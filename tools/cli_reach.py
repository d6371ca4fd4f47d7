"""Print the functions in src/scottlab that the CLI never calls.

    python tools/cli_reach.py

Runs the argv of tools/cli_digest.py's grid whose sizes stay below
SIZE_BELOW, in text and in JSON (the `usage` row as it is), through
`scottlab.cli.run`, under a `sys.setprofile` hook installed before
scottlab is imported, so module bodies and lazily loaded layers are
profiled too.  Then it prints, one per line and sorted, `module.qualname`
of every function defined in src/scottlab (each `def`, found with `ast`)
that no run called.  The large sizes reach no function that the small
ones do not; they only take long.  A function on the list is dead code
for the CLI: only tests or the benchmark call it, or nothing does.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scottlab"
SIZE_BELOW = 300  # an argv with a number at least this large is left out


def defined() -> set[str]:
    """`module.qualname` of every function the package's modules define."""
    names = set()

    def walk(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def small(argv: list[str]) -> bool:
    return not any(a.lstrip("-").isdigit() and int(a.lstrip("-")) >= SIZE_BELOW for a in argv)


def main() -> None:
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(PACKAGE.parent))  # this checkout's src, whatever PYTHONPATH names
    sys.setprofile(hook)
    import cli_digest

    for verb, argvs in cli_digest.grid().items():
        for argv in filter(small, argvs):
            for fmt in ((),) if verb == "usage" else (("--format", "text"), ("--format", "json")):
                cli_digest._answer([*argv, *fmt])
    sys.setprofile(None)
    called = {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
              if Path(c.co_filename).resolve().parent == PACKAGE}
    for name in sorted(defined() - called):
        print(name)


if __name__ == "__main__":
    main()
