import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import hypothesis.strategies as hs
import jsonschema
import pytest
from hypothesis import given, settings

from scottlab.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stage_pinned_bytes(capsys):
    code, out, err = _run(capsys, ["stage", "--n", "4"])
    assert (code, err) == (0, "")
    assert out == "000 001 011 111\n"


def test_iso_pinned_bytes(capsys):
    code, out, err = _run(capsys, ["iso", "--a", "lambda_hat_prime", "--b", "lambda_prime"])
    assert (code, err) == (0, "")
    assert out == "not isomorphic: ω+1+ω* vs ω+1+1+ω*\n"


def test_fpt_pinned_bytes(capsys):
    code, out, err = _run(capsys, ["fpt", "--cpo", "phi", "--mu", "id", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == '{"g":"psi_inf","preimage":"inf","value":0}\n'


def test_table8_matches_golden(capsys):
    _, out, _ = _run(capsys, ["table8"])
    assert out == (GOLDEN / "table8.txt").read_text()


@pytest.mark.parametrize("scheme", ["standard", "alternative"])
def test_diagram_matches_golden(capsys, scheme):
    code, out, err = _run(capsys, ["diagram", "--scheme", scheme, "--depth", "5"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"diagram_{scheme}_5.dot").read_text()


SCHEMA_CASES = [
    ("cpo", ["cpo", "--cpo", "phi"]),
    ("normalize", ["normalize", "--word", "1+w+1"]),
    ("iso", ["iso", "--a", "phi", "--b", "theta"]),
    ("compare", ["compare", "--cpo", "v", "--x", "-1", "--y", "m'"]),
    ("neighbors", ["neighbors", "--cpo", "phi", "--x", "inf"]),
    ("stage", ["stage", "--n", "5"]),
    ("funcs", ["funcs", "--m", "4"]),
    ("mu", ["mu", "--map", "01"]),
    ("ep", ["ep", "--scheme", "standard", "--n", "6"]),
    ("paths", ["paths", "--depth", "8"]),
    ("limit", ["limit"]),
    ("diagram", ["diagram", "--depth", "3"]),
    ("funcspace", ["funcspace", "--cpo", "phi", "--table", "--window", "3"]),
    ("funcspace", ["funcspace", "--word", "w*"]),
    ("fpt", ["fpt", "--cpo", "phi", "--mu", "id"]),
    ("fpt", ["fpt", "--cpo", "theta", "--mu", "id"]),
    ("string_realize", ["string", "realize", "--recipe", "II:3"]),
    ("string_approx", ["string", "approx", "--recipe", "I:2", "--n", "6"]),
    ("string_limit", ["string", "limit", "--recipe", "II:3", "--pos", "2"]),
    ("string_opp", ["string", "opp", "--x", "...00011"]),
    ("string_opp_pair", ["string", "opp-pair", "--pair", "(000..., ...111)"]),
    ("string_lr", ["string", "lr", "--recipe", "II:2"]),
    ("string_lr_pair", ["string", "lr-pair", "--a", "III:1", "--b", "II:5"]),
    ("string_classify", ["string", "classify", "--x", "011..."]),
    ("adjunction", ["adjunction", "--cpo", "lambda", "--window", "30"]),
    ("adjunction", ["adjunction", "--cpo", "v"]),
    ("boundary", ["boundary", "--cpo", "v"]),
    ("boundary", ["boundary", "--cpo", "lambda_hat_prime"]),
    ("decompose", ["decompose", "--cpo", "lambda_hat_prime"]),
    ("decompose", ["decompose", "--cpo", "v"]),
    ("lcr_forward", ["lcr", "forward", "--x", "...0011"]),
    ("lcr_forward", ["lcr", "forward", "--x", "111..."]),
    ("lcr_backward", ["lcr", "backward", "--pair", "(...000, 111...)", "--endpoint", "R"]),
    ("lcr_backward", ["lcr", "backward", "--pair", "(...0011, 111...)"]),
    ("replicate", ["replicate"]),
    ("replicate", ["replicate", "--pair", "(...000, 111...)"]),
    ("table8", ["table8"]),
    ("pipeline", ["pipeline"]),
]


def _schema(name):
    path = resources.files("scottlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize(("schema_name", "argv"), SCHEMA_CASES,
                         ids=[" ".join(c[1]) for c in SCHEMA_CASES])
def test_json_output_validates(capsys, schema_name, argv):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    schema = _schema(schema_name)
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.validate(obj, schema, cls=jsonschema.Draft202012Validator)
    # compact single-line form, unicode kept literal
    assert out == json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n"


def test_every_schema_file_is_exercised():
    shipped = {p.name for p in (resources.files("scottlab") / "schemas").iterdir()}
    used = {f"{name}.schema.json" for name, _ in SCHEMA_CASES}
    assert used == shipped


@pytest.mark.parametrize("argv", [
    ["pipeline", "--format", "json"],
    ["table8"],
    ["diagram", "--depth", "4"],
    ["adjunction", "--cpo", "v", "--format", "json"],
])
def test_output_is_deterministic(capsys, argv):
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


NEGATIVE_VERDICTS = [
    (["fpt", "--cpo", "theta", "--mu", "id"],
     "fixed point construction not applicable: theta: ω+1 vs 1+ω*\n"),
    (["replicate", "--pair", "(...000, 111...)"],
     "not replicable: replication applies only to (000..., ...111), got (...000, 111...)\n"),
    (["iso", "--a", "w", "--b", "w*"], "not isomorphic: ω vs ω*\n"),
]


@pytest.mark.parametrize(("argv", "expected"), NEGATIVE_VERDICTS,
                         ids=["fpt", "replicate", "iso"])
def test_negative_verdicts_exit_zero(capsys, argv, expected):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == expected


USAGE_ERRORS = [
    ["cpo", "--cpo", "nope"],
    ["normalize", "--word", "w+bogus"],
    ["compare", "--cpo", "v", "--x", "zap", "--y", "+1"],
    ["stage", "--n", "0"],
    ["funcspace"],
    ["funcspace", "--word", "w", "--table"],
    ["string", "realize", "--recipe", "V:1"],
    ["string", "realize", "--recipe", "II-3"],
    ["mu", "--map", "012"],
    ["lcr", "backward", "--pair", "(...000, 111...)"],
    ["lcr", "backward", "--pair", "(000..., 111...)"],
    ["lcr", "backward", "--pair", "(...000, ...111)"],
    ["paths", "--depth", "1"],
    ["pipeline", "--window", "-1"],
    ["adjunction", "--cpo", "lambda_prime", "--window", "-1"],
    ["boundary", "--cpo", "v", "--window", "-1"],
    ["table8", "--window", "-1"],
    ["cpo", "--cpo", "omega", "--window", "-2"],
    ["funcspace", "--cpo", "phi", "--table", "--window", "-1"],
    ["diagram", "--scheme", "standard", "--depth", "1100"],
    ["diagram", "--scheme", "alternative", "--depth", "1100"],
    ["funcs", "--m", "21"],
    # one step past each stage-tower bound in scottlab.stages
    ["stage", "--n", "5001"],
    ["ep", "--n", "100001", "--check"],
    ["paths", "--depth", "3001"],
    ["limit", "--scheme", "alternative", "--depth", "1000001"],
    # one step past each bound on a window or size whose output or work grows with it
    ["cpo", "--cpo", "omega", "--window", "100001"],
    ["funcspace", "--cpo", "phi", "--table", "--window", "1001"],
    ["string", "approx", "--recipe", "II:3", "--n", "1000001"],
    ["string", "limit", "--recipe", "II:3", "--pos", "2", "--depth", "1000001"],
    # a superscript digit passes str.isdigit but not int()
    ["normalize", "--word", "²"],
    ["string", "realize", "--recipe", "II:²"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) for a in USAGE_ERRORS])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


DEEP = 1100  # past Python's default recursion limit of 1000


@pytest.mark.parametrize(("scheme", "inf_path"), [
    ("standard", [s // 2 for s in range(DEEP)]),
    ("alternative", list(range(DEEP))),
])
def test_paths_beyond_the_recursion_limit(capsys, scheme, inf_path):
    code, out, err = _run(capsys, ["paths", "--scheme", scheme, "--depth", str(DEEP)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == DEEP
    assert ",".join(map(str, inf_path)) + " <-> inf" in lines


@pytest.mark.parametrize(("scheme", "order_type"), [("standard", "ω+1+ω*"), ("alternative", "ω+1")])
def test_limit_beyond_the_recursion_limit(capsys, scheme, order_type):
    code, out, err = _run(capsys, ["limit", "--scheme", scheme, "--depth", str(DEEP)])
    assert (code, err) == (0, "")
    assert out == f"{scheme}: {order_type}\n"


GOLDEN_OUTPUTS = json.loads((GOLDEN / "cli_outputs.json").read_text())
REUSED = [
    ["cpo", "--cpo", "lambda_hat_prime", "--window", "6"],
    ["adjunction", "--cpo", "v", "--window", "12"],
    ["neighbors", "--cpo", "v", "--x=m'"],
    ["lcr", "forward", "--x", "...0011"],
    ["replicate"],
]


def test_one_parser_serves_interleaved_calls(capsys):
    """The parser is built once; no parse leaks into the next one."""
    assert build_parser() is build_parser()
    for argv in REUSED:
        golden = GOLDEN_OUTPUTS[" ".join(argv)]
        for call, fmt in ((argv + ["--format", "json"], "json"), (argv, "text"),
                          (["cpo", "--cpo", "nope"], None), (["no-such-verb"], None),
                          (argv, "text"), (argv + ["--format", "text"], "text")):
            code, out, err = _run(capsys, call)
            if fmt is None:
                assert (code, out) == (2, "")
            else:
                assert (code, out, err) == (0, golden[fmt], ""), (call, fmt)
    code, out, _ = _run(capsys, ["funcspace", "--cpo", "phi", "--table", "--window", "3"])
    assert code == 0 and "columns:" in out
    code, out, _ = _run(capsys, ["funcspace", "--cpo", "phi"])
    assert code == 0 and "columns:" not in out


@pytest.mark.parametrize(("argv", "golden"), [
    (["string", "--format", "json", "realize", "--recipe", "II:3"], "string realize --recipe II:3"),
    (["lcr", "--format", "json", "forward", "--x", "...0011"], "lcr forward --x ...0011"),
])
def test_group_format_is_honoured(capsys, argv, golden):
    expected = {**GOLDEN_OUTPUTS, **json.loads((GOLDEN / "cli_verbs.json").read_text())}[golden]
    assert _run(capsys, argv) == (0, expected["json"], "")
    # the subverb's own --format comes later and wins
    assert _run(capsys, argv + ["--format", "text"]) == (0, expected["text"], "")


def test_unencodable_output_exits_one():
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run([sys.executable, "-m", "scottlab", "cpo", "--cpo", "phi"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: stdout cannot encode the output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_argparse_failures_exit_two(capsys):
    assert run(["no-such-verb"]) == 2
    assert run([]) == 2
    assert run(["fpt", "--cpo", "phi", "--mu", "swap"]) == 2
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['scottlab', 'stage', '--n', '3']; "
         "from scottlab.cli import main; main()"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "00 01 11\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scottlab", "stage", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "00 01 11\n"


# -- fuzzing the argparse tree ----------------------------------------------

HOSTILE = ["", " ", "(", ")", "...", "-0", "0", "1", "-1", "+1", "²", "٣", "w", "w*", "ω+1+ω*",
           "w+²", "inf", "inf'", "m", "m'", "-inf", "psi_0", "...0011", "0011...", "111...",
           "000...", "...000", "...111", "(000..., ...111)", "(...000, 111...)", "(...0011, 111...)",
           "II:3", "II:²", "V:1", "I:0", "III:-1", "phi", "lambda"]
CPOS = ["two", "phi", "theta", "omega", "omega_opp", "omega_prime", "omega_prime_opp", "lambda",
        "lambda_prime", "lambda_hat_prime", "xi", "xi_opp", "v", "lam", "omega_set"]
texts = hs.one_of(hs.sampled_from(HOSTILE + CPOS), hs.text(max_size=6))
ints = hs.integers(-3, 40)
OPTION = {"text": texts, "cpo": hs.one_of(hs.sampled_from(CPOS), texts), "int": ints,
          # the decided verbs take a window of any size at the same cost
          "window": hs.one_of(ints, hs.integers(0, 10**9), hs.just(10**9)),
          "scheme": hs.sampled_from(["standard", "alternative"]),
          "mu": hs.sampled_from(["const0", "const1", "id"]), "endpoint": hs.sampled_from(["L", "R"])}


def _option(kind):
    """The values of an option; a number kind is one step past a documented bound.

    The bound itself is left out: it is valid but slow (funcs --m 20 takes seconds).
    """
    if isinstance(kind, int):
        return hs.one_of(ints, hs.just(kind))
    return OPTION[kind]


# every verb and subverb: (argv prefix, required options, optional options)
TREE = [
    (["cpo"], {"--cpo": "cpo"}, {"--window": 100_001}),
    (["normalize"], {"--word": "text"}, {}),
    (["iso"], {"--a": "cpo", "--b": "cpo"}, {}),
    (["compare"], {"--cpo": "cpo", "--x": "text", "--y": "text"}, {}),
    (["neighbors"], {"--cpo": "cpo", "--x": "text"}, {}),
    (["stage"], {"--n": 5001}, {}),
    (["funcs"], {"--m": 21}, {}),
    (["mu"], {"--map": "text"}, {}),
    (["ep"], {"--n": 100_001}, {"--scheme": "scheme", "--check": None}),
    (["paths"], {}, {"--scheme": "scheme", "--depth": 3001}),
    (["limit"], {}, {"--scheme": "scheme", "--depth": 1_000_001}),
    (["diagram"], {}, {"--scheme": "scheme", "--depth": 301}),
    (["funcspace"], {}, {"--cpo": "cpo", "--word": "text", "--window": 1001, "--table": None}),
    (["fpt"], {"--cpo": "cpo", "--mu": "mu"}, {}),
    (["string", "realize"], {"--recipe": "text"}, {}),
    (["string", "approx"], {"--recipe": "text", "--n": 1_000_001}, {}),
    (["string", "limit"], {"--recipe": "text", "--pos": "int"}, {"--depth": 1_000_001}),
    (["string", "opp"], {"--x": "text"}, {}),
    (["string", "opp-pair"], {"--pair": "text"}, {}),
    (["string", "lr"], {"--recipe": "text"}, {}),
    (["string", "lr-pair"], {"--a": "text", "--b": "text"}, {}),
    (["string", "classify"], {"--x": "text"}, {}),
    (["adjunction"], {"--cpo": "cpo"}, {"--window": "window"}),
    (["boundary"], {"--cpo": "cpo"}, {"--window": "window"}),
    (["decompose"], {"--cpo": "cpo"}, {}),
    (["lcr", "forward"], {"--x": "text"}, {}),
    (["lcr", "backward"], {"--pair": "text"}, {"--endpoint": "endpoint"}),
    (["replicate"], {}, {"--pair": "text"}),
    (["table8"], {}, {"--window": "window"}),
    (["pipeline"], {}, {"--window": "window"}),
]


@hs.composite
def argvs(draw):
    prefix, required, optional = draw(hs.sampled_from(TREE))
    argv = list(prefix)
    chosen = list(required.items()) + [o for o in optional.items() if draw(hs.booleans())]
    for flag, kind in chosen:
        # --opt=value, so that a value starting with "-" is not read as an option
        argv.append(flag if kind is None else f"{flag}={draw(_option(kind))}")
    return argv + draw(hs.sampled_from([[], ["--format", "json"], ["--format", "text"]]))


@settings(max_examples=1500)
@given(argvs())
def test_every_argv_exits_zero_or_two_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an uncaught exception fails the test with its argv
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "", argv
