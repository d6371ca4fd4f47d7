"""Smoke run of tools/src_lines.py, the source line count quoted in ROADMAP and CHANGES."""

import runpy
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def test_counts_every_module_and_their_total():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split() for line in proc.stdout.splitlines()]
    names = [name for _, name in rows]
    assert names[-1] == "total"
    assert {"cli.py", "words.py", "funcspace.py"} <= set(names)
    counts = [int(n) for n, _ in rows]
    assert counts[-1] == sum(counts[:-1]) > 0


def test_skips_blank_and_comment_lines_but_not_docstrings(tmp_path):
    code_lines = runpy.run_path(str(TOOL))["code_lines"]
    module = tmp_path / "a.py"
    module.write_text('"""Doc."""\n\n# a comment\n  # indented\nx = 1  # trailing\n\n')
    assert code_lines(module) == 2
