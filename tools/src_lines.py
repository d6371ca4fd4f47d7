"""Print the non-blank, non-comment line count of each scottlab module and their total.

    python tools/src_lines.py

A line counts unless it is blank or its first non-space character is '#';
docstrings count.  One row per src/scottlab/*.py file, by name, then a
`total` row.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scottlab"


def code_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for s in stripped if s and not s.startswith("#"))


def main() -> None:
    counts = {p.name: code_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
