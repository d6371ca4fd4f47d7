"""Print one SHA-256 per verb of the CLI's answers over a fixed grid of argv, then a total.

    PYTHONPATH=<checkout>/src python tools/cli_digest.py

Each argv of the grid runs in-process through `scottlab.cli.run`, once
as text and once with `--format json`; a verb's digest covers, in grid
order, each run's stdout, stderr and exit code.  The `usage` row runs
its argv as they are: argparse's own answers at the top level and at a
verb (help, a missing or unknown verb, an unrecognized argument, an
invalid choice, `--opt=--`), with help wrapped at a fixed 80 columns.
A run that raises counts the exception's name as its exit code, so a
checkout that ends in a traceback still gets its digest.  Besides
plain argv, which the CLI reads from its option table, the grid holds
spellings that only argparse reads (an abbreviation, a separate
negative value) and ones that both read (`--opt=value`, a repeated
option, a group's `--format`), so it covers both ways into a verb.
Run it on two checkouts and diff the outputs: a verb whose line
differs answered some argv differently.  Without PYTHONPATH it runs this checkout's `src`.  The
grid covers every verb and subverb; it is written out here, not derived
from the package, so that both checkouts answer the same argv.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
# argparse wraps help at the terminal's width, which COLUMNS sets
os.environ["COLUMNS"] = "80"

from scottlab.cli import run  # noqa: E402

ORDERS = ["two", "phi", "theta", "omega", "omega_opp", "omega_prime", "omega_prime_opp", "lambda",
          "lambda_prime", "lambda_hat_prime", "xi", "xi_opp", "v"]
COMPOSITES = ["lambda", "lambda_prime", "lambda_hat_prime", "v"]
GLUED = ["lambda_hat_prime", "v"]
LITERAL = ["omega", "omega_opp", "omega_prime", "omega_prime_opp", "lambda_hat_prime"]
WINDOWS = range(61)
ATOMS = ["w", "w*", "1", "2", "3"]
SCHEMES = ["standard", "alternative"]
WORDS = ["w+1", "1+w", "w*+w", "w+w*", "w+1+w*", "2+w*+w+2", "w*+1+w"]
BAD_WORDS = ["", "x", "w+", "w**", "0", "+1"]
RECIPES = [f"{k}:{i}" for k in ("I", "II", "III", "IV") for i in (1, 2, 3, 7, 13, 10**6)] + [
    "I:0", "II:1000001", "V:1", "II", "II:x", "II:3:1"]
BAD_LITERALS = ["...", "0011", "...0101", "...0011...", "0x1...", "10..."]
BAD_PAIRS = ["000..., ...111", "(000...)", "(000..., ...111, 111...)", "(000..., ...101)"]


def _normal(atoms) -> bool:
    """No two finite atoms in a row, none right after w* and none right before w."""
    return not any((a not in ("w", "w*") and b not in ("w", "w*")) or (a == "w*" and b not in ("w", "w*"))
                   or (a not in ("w", "w*") and b == "w") for a, b in zip(atoms, atoms[1:]))


def _valley_pairs(depth: int) -> list[str]:
    """The pairs of the valley order v up to count `depth`, ascending, the boundary once."""
    lower = ["000..."] + [f"{'0' * u}11..." for u in range(depth, 0, -1)] + ["111..."]
    upper = [f"...00{'1' * c}" for c in range(1, depth + 1)] + ["...111"]
    return [f"(...000, {s})" for s in lower] + [f"({s}, 111...)" for s in upper]


def _family_literals(depth: int) -> list[str]:
    """One literal per string of the four families up to count `depth`, bottom of the stack first."""
    return ([f"...0{'1' * c}" for c in range(depth + 1)] + ["...111", "000..."]
            + [f"{'0' * u}1..." for u in range(depth, -1, -1)])


# the elements of three composite orders, by label and by literal, and one non-element each
NAMES = {
    "lambda_prime": ["0", "1", "2", "inf", "inf'", "2'", "1'", "0'", "...000", "...001", "...0011", "...111",
                     "000...", "0011...", "011...", "111...", "(000..., ...111)", "7''"],
    "lambda_hat_prime": ["0", "1", "2", "m", "2'", "1'", "0'", "(000..., ...000)", "(000..., ...001)",
                         "(000..., ...111)", "(0011..., ...111)", "(111..., ...111)", "(000..., 00011...)",
                         "inf"],
    "v": ["-inf", "-2", "-1", "m'", "0", "+1", "1", "+2", "+inf", *_valley_pairs(2), "(000..., 111...)", "-0"],
}


def grid() -> dict[str, list[list[str]]]:
    """The argv of each verb, in a fixed order."""
    big = [10**3, 10**6, 10**6 + 1]
    return {
        "string approx": [["string", "approx", "--recipe", f"{k}:{i}", "--n", str(n)]
                          for k in ("I", "II", "III", "IV") for n in [*range(14), *big]
                          for i in (0, 1, 2, 3, 7, 13)],
        "string limit": [["string", "limit", "--recipe", f"II:{i}", "--pos", str(pos), "--depth", str(d)]
                         for i in (1, 2, 5) for pos in range(5) for d in (0, 2, 3, 5, 9, 40, 10**6 + 1)],
        "limit": [["limit", "--scheme", s, "--depth", str(d)]
                  for s in ("standard", "alternative") for d in [*range(71), 999, 1000, 10**6, 10**6 + 1]],
        "fpt": [["fpt", "--cpo", c, "--mu", mu] for c in ORDERS for mu in ("const0", "const1", "id")],
        # and every order's table at the benchmark's window, at the bound and past it, and two refusals
        "funcspace": [["funcspace", "--cpo", c, "--table", "--window", str(w)] for c in ORDERS for w in range(31)]
        + [["funcspace", "--cpo", c, "--table", "--window", str(w)] for c in ORDERS for w in (93, 1000, 1001)]
        + [["funcspace", "--word", "+".join(atoms)] for n in range(1, 6)
           for atoms in itertools.product(ATOMS, repeat=n) if _normal(atoms)]
        + [["funcspace", "--word", "w+1", "--table"], ["funcspace", "--cpo", "v", "--word", "w"]],
        # and the benchmark's four adjunction windows on every composite (table8's 58 and pipeline's 56
        # lie in WINDOWS); boundary also at the ends of the benchmark's cheap windows
        "adjunction": [["adjunction", "--cpo", c, "--window", str(w)] for c in COMPOSITES
                       for w in [*WINDOWS, 99, 100, 145, 150]],
        # and spellings that only argparse reads (an abbreviation), or that both read: --opt=value, a repeat
        "boundary": [["boundary", "--cpo", c, "--window", str(w)] for c in GLUED for w in [*WINDOWS, 100, 160]]
        + [["boundary", "--cpo", "v", "--win", "7"], ["boundary", "--cpo=v", "--window", "7"],
           ["boundary", "--cpo", "v", "--window", "3", "--window", "7"]],
        "table8": [["table8", "--window", str(w)] for w in WINDOWS],
        "pipeline": [["pipeline", "--window", str(w)] for w in WINDOWS],
        # the valley pairs, then three pairs that are not elements of v
        "lcr backward": [["lcr", "backward", "--pair", p, *e]
                         for p in [*_valley_pairs(10), "(000..., 111...)", "(...000, ...111)", "(000..., ...111)"]
                         for e in ([], ["--endpoint", "L"], ["--endpoint", "R"])],
        # and the group's own --format, before the subverb's
        "lcr forward": [["lcr", "forward", "--x", x] for x in _family_literals(12)]
        + [["lcr", "--format", "json", "forward", "--x", "...0011"]],
        "decompose": [["decompose", "--cpo", c] for c in ORDERS],
        "replicate": [["replicate", *pair] for pair in ([], ["--pair", "(000..., ...111)"],
                                                        ["--pair", "(...000, 111...)"], ["--pair", "(000..., ...0011)"])],
        # and the orders that print literals at their bound and past it
        "cpo": [["cpo", "--cpo", c, "--window", str(w)] for c in ORDERS for w in range(31)]
        + [["cpo", "--cpo", c, "--window", str(w)] for c in LITERAL for w in (2000, 2001)],
        # --x=VALUE, since argparse reads a separate -inf as an option
        "compare": [["compare", "--cpo", c, f"--x={x}", f"--y={y}"] for c, names in NAMES.items()
                    for x in names for y in names] + [["compare", "--cpo", "phi", "--x=-3", "--y", "2"]],
        "neighbors": [["neighbors", "--cpo", c, f"--x={x}"] for c, names in NAMES.items() for x in names],
        # small sizes from below each lower bound, one size of the benchmark's stage tower, then each upper
        # bound, the largest text each verb writes, and its first rejected value, refused before any work
        # and a separate negative size, which argparse reads as a value
        "stage": [["stage", "--n", str(n)] for n in [*range(-1, 21), 200, 5000, 5001]] + [["stage", "--n", "-3"]],
        "funcs": [["funcs", "--m", str(m)] for m in [*range(-1, 11), 21]],
        "mu": [["mu", "--map", m] for m in ("00", "01", "10", "11", "0", "011", "02", "ab", " 01 ")],
        "ep": [["ep", "--scheme", s, "--n", str(n), *check]
               for s in SCHEMES for n in [*range(-1, 21), 200, 100000, 100001] for check in ([], ["--check"])],
        # and paths up to depth 300, where tests/test_stages.py pins the labels to the catalogue's phi and theta,
        # with the benchmark's depth of 150 and the ends of its jitter, 145 and 155;
        # paths and diagram also at their bounds, where a character that JSON escapes would first show
        "paths": [["paths", "--scheme", s, "--depth", str(d)]
                  for s in SCHEMES for d in [*range(-1, 16), 145, 150, 155, 300, 3000, 3001]],
        "diagram": [["diagram", "--scheme", s, "--depth", str(d)]
                    for s in SCHEMES for d in [*range(-1, 9), 92, 101, 200, 300, 301]],
        "normalize": [["normalize", "--word", "+".join(atoms)] for n in range(1, 4)
                      for atoms in itertools.product(ATOMS, repeat=n)]
        + [["normalize", "--word", w] for w in BAD_WORDS],
        "iso": [["iso", "--a", a, "--b", b] for a in [*ORDERS, *WORDS, "x"] for b in [*ORDERS, *WORDS, "w+"]],
        "string realize": [["string", "realize", "--recipe", r] for r in RECIPES],
        "string opp": [["string", "opp", "--x", x] for x in [*_family_literals(6), *BAD_LITERALS]],
        "string opp-pair": [["string", "opp-pair", "--pair", p]
                            for p in [*_valley_pairs(4), "(000..., ...111)", "(0011..., ...0011)", *BAD_PAIRS]],
        "string lr": [["string", "lr", "--recipe", r] for r in RECIPES],
        "string lr-pair": [["string", "lr-pair", "--a", a, "--b", b] for a in RECIPES[::3] for b in RECIPES[1::3]],
        "string classify": [["string", "classify", "--x", x] for x in [*_family_literals(6), *BAD_LITERALS]],
        "usage": [[], ["-h"], ["no-such-verb"], ["cpo", "-h"], ["cpo", "--cpo", "v", "extra"], ["string"],
                  ["string", "-h"], ["lcr", "bogus"], ["ep", "--n", "3", "--scheme", "nope"],
                  # a group's --format with no --format after it
                  ["lcr", "--format", "json", "forward", "--x", "...0011"],
                  # `--opt=--`, which argparse reads as no value: a str option, an int option, a group's --format
                  ["normalize", "--word=--"], ["boundary", "--cpo", "v", "--window=--"],
                  ["lcr", "--format=--", "forward", "--x", "...0011"]],
    }


def _answer(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as e:  # a checkout whose run() raises, where `python -m scottlab` prints a traceback
            code = type(e).__name__
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}\0".encode()


def main() -> None:
    total = hashlib.sha256()
    for verb, argvs in grid().items():
        if verb != "usage":
            argvs = [[*argv, "--format", fmt] for argv in argvs for fmt in ("text", "json")]
        h = hashlib.sha256()
        for argv in argvs:
            h.update(_answer(argv))
        total.update(h.digest())
        print(f"{h.hexdigest()}  {len(argvs):5d}  {verb}")
    print(f"{total.hexdigest()}  {'':5}  total")


if __name__ == "__main__":
    main()
