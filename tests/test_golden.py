"""Byte-exact CLI output of the catalogue's labels, halves and folds, and of every verb.

Each case of golden/cli_outputs.json runs once as text and once with
--format json.  Each case of golden/cli_verbs.json names its argv and
runs once per format it records (text, json, and dot for two verbs).
Every output must equal the recorded bytes.  golden/funcspace_tables.json
holds `funcspace --table --window 12` of every order, and the sha256 of
`--window 93` of the four composite orders, in both formats.
golden/fpt_outputs.json holds `fpt` of every order under every mu, in
both formats, the verdicts "not applicable" included.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scottlab.cli import run

from window_scan import all_names

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "cli_outputs.json").read_text())
VERBS = json.loads((GOLDEN_DIR / "cli_verbs.json").read_text())
TABLES = json.loads((GOLDEN_DIR / "funcspace_tables.json").read_text())
FPT = json.loads((GOLDEN_DIR / "fpt_outputs.json").read_text())

_ALIASES = [
    # numerals and primed numerals
    ("compare", "two", "0", "1"),
    ("compare", "phi", "3", "2'"),
    ("neighbors", "phi", "0'"),
    ("compare", "theta", "inf", "5"),
    ("neighbors", "theta", "∞"),
    # string literals next to numerals, inf and inf'
    ("compare", "omega", "...0011", "4"),
    ("neighbors", "omega", "3"),
    ("compare", "omega_opp", "0011...", "1'"),
    ("neighbors", "omega_opp", "111..."),
    ("compare", "omega_prime", "inf", "...111"),
    ("neighbors", "omega_prime", "...01"),
    ("compare", "omega_prime_opp", "inf'", "000..."),
    ("neighbors", "omega_prime_opp", "2'"),
    ("compare", "lambda", "...0011", "0011..."),
    ("compare", "lambda", "2'", "∞"),
    ("neighbors", "lambda", "inf"),
    ("compare", "lambda_prime", "inf", "inf'"),
    ("compare", "lambda_prime", "3′", "⋯0011"),
    ("neighbors", "lambda_prime", "000..."),
    ("neighbors", "lambda_prime", "...111"),
    # m, m', signed numerals and pair literals
    ("compare", "lambda_hat_prime", "m", "(000..., ...111)"),
    ("compare", "lambda_hat_prime", "(0011..., ...111)", "3"),
    ("neighbors", "lambda_hat_prime", "m"),
    ("neighbors", "lambda_hat_prime", "(000..., ...0001)"),
    ("neighbors", "lambda_hat_prime", "2'"),
    ("compare", "xi", "-inf", "m'"),
    ("compare", "xi", "(...000, 0111...)", "0"),
    ("neighbors", "xi", "-2"),
    ("neighbors", "xi", "(...000, 000...)"),
    ("compare", "xi_opp", "+inf", "3"),
    ("compare", "xi_opp", "(...0001, 111...)", "+2"),
    ("neighbors", "xi_opp", "m'"),
    ("neighbors", "xi_opp", "0"),
    ("compare", "v", "-inf", "+inf"),
    ("compare", "v", "-∞", "+∞"),
    ("compare", "v", "(...000, 111...)", "0"),
    ("compare", "v", "(...000, 0111...)", "-1"),
    ("compare", "v", "(...0011, 111...)", "+2"),
    ("neighbors", "v", "m'"),
    ("neighbors", "v", "-1"),
    ("neighbors", "v", "+1"),
    ("neighbors", "v", "(...000, 000...)"),
]


def _alias_argv(verb, cpo, x, y=None):
    # "--x=-1" rather than "--x -1": argparse reads a bare "-1" as an option
    return [verb, "--cpo", cpo, f"--x={x}"] + ([] if y is None else [f"--y={y}"])


CASES = (
    [["cpo", "--cpo", name, "--window", "6"] for name in all_names()]
    + [["adjunction", "--cpo", name, "--window", "12"]
       for name in ("lambda", "lambda_prime", "lambda_hat_prime", "v")]
    + [["boundary", "--cpo", name] for name in ("lambda_hat_prime", "v")]
    + [_alias_argv(*case) for case in _ALIASES]
    + [["lcr", "forward", "--x", x]
       for x in ("...111", "000...", "...000", "111...", "...0011", "0011...")]
    + [["decompose", "--cpo", name] for name in ("lambda_hat_prime", "v")]
    + [["replicate"], ["replicate", "--pair", "(...000, 111...)"]]
)


# (argv, format, expected stdout)
RUNS = (
    [(argv, fmt, GOLDEN[" ".join(argv)][fmt]) for argv in CASES for fmt in ("text", "json")]
    + [(entry["argv"], fmt, out) for entry in (*VERBS.values(), *FPT.values())
       for fmt, out in entry.items() if fmt != "argv"]
)


@pytest.mark.parametrize(("argv", "fmt", "expected"), RUNS,
                         ids=[f"{' '.join(argv)}-{fmt}" for argv, fmt, _ in RUNS])
def test_output_matches_golden(capsys, argv, fmt, expected):
    code = run(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


TABLE_RUNS = [(entry["argv"], fmt, entry[fmt], digest)
              for key, digest in (("tables", False), ("sha256", True))
              for entry in TABLES[key].values() for fmt in ("text", "json")]


@pytest.mark.parametrize(("argv", "fmt", "expected", "digest"), TABLE_RUNS,
                         ids=[f"{' '.join(argv)}-{fmt}" for argv, fmt, _, _ in TABLE_RUNS])
def test_funcspace_table_matches_golden(capsys, argv, fmt, expected, digest):
    code = run(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = hashlib.sha256(captured.out.encode()).hexdigest() if digest else captured.out
    assert out == expected


def test_funcspace_tables_cover_every_order():
    assert list(TABLES["tables"]) == all_names()
    assert list(TABLES["sha256"]) == ["lambda", "lambda_prime", "lambda_hat_prime", "v"]


def test_fpt_outputs_cover_every_order_and_mu():
    assert [(argv[2], argv[4]) for argv in (e["argv"] for e in FPT.values())] == [
        (name, mu) for name in all_names() for mu in ("const0", "const1", "id")]
