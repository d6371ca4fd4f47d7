"""tools/cli_reach.py's list of the functions in src that the CLI never calls, pinned to a named allow-list.

New dead code shows here as a failure, the way tools/src_lines.py shows size: move a function that only
tests call into the tests, or name here why it stays.
"""

import subprocess
import sys
from pathlib import Path

from test_trace_names import TRACED

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_reach.py"

# names perfbench calls: wrapped by perfbench/layertrace.py (test_trace_names.TRACED), or timed by the
# scaling series in perfbench/run.py
PERFBENCH_TRACED = ["adjunction.opp_element", "stages.LabelMap.__call__"]
PERFBENCH_SERIES = ["stages.diagram_dot", "stages.limit_paths"]
# the text of a value in an error message or a repr, which no CLI answer prints
TEXTS = ["strings._OmegaMany.__repr__", "words.Elem.__str__"]
# the console script's entry point, around the `run()` that the tool calls
ENTRY = ["cli.main"]


def _traced_name(owner, name: str) -> str:
    module = getattr(owner, "__module__", None) or owner.__name__
    qualname = f"{owner.__qualname__}." if isinstance(owner, type) else ""
    return f"{module.rpartition('.')[2]}.{qualname}{name}"


def test_the_allowed_perfbench_names_are_perfbench_s():
    assert set(PERFBENCH_TRACED) <= {_traced_name(owner, name) for owner, name in TRACED}
    series = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    assert all(f"{name}(" in series for name in PERFBENCH_SERIES)


def test_the_cli_calls_every_other_function_in_src():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == sorted(PERFBENCH_TRACED + PERFBENCH_SERIES + TEXTS + ENTRY)
