import bisect
import contextlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import hypothesis.strategies as hs
import jsonschema
import pytest
from hypothesis import given, settings

from scottlab import cli, stages
from scottlab.catalog import named_cpo
from scottlab.cli import MAX_TABLE_WINDOW, MUS, SCHEMES, TABLE, build_parser, read_argv, run
from scottlab.errors import UsageError
from scottlab.funcspace import Mu, eval_segment, self_iso
from scottlab.stages import MAX_EP_STAGE, MAX_PATHS_DEPTH, MAX_STAGE, Scheme, limit_paths
from scottlab.words import parse_word, window_elems

from window_scan import all_names

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
    ["funcspace", "--cpo", "v", "--word", "w"],
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
    # `--opt=--`, whose "--" argparse drops, leaving no value: a str option and an int option
    ["normalize", "--word=--"],
    ["boundary", "--cpo", "v", "--window=--"],
    # far past it, where building anything before the check would exhaust memory
    ["paths", "--depth", "1000000000"],
    ["paths", "--depth", "1000000000", "--format", "json"],
    ["diagram", "--depth", "1000000000", "--format", "json"],
    ["limit", "--scheme", "alternative", "--depth", "1000001"],
    # one step past each bound on a window or size whose output or work grows with it
    ["cpo", "--cpo", "omega", "--window", "100001"],
    ["funcspace", "--cpo", "phi", "--table", "--window", "1001"],
    ["string", "approx", "--recipe", "II:3", "--n", "1000001"],
    ["string", "limit", "--recipe", "II:3", "--pos", "2", "--depth", "1000001"],
    ["string", "realize", "--recipe", "II:1000001"],
    ["string", "lr", "--recipe", "II:999999999999999999999999"],
    # a superscript digit passes str.isdigit but not int()
    ["normalize", "--word", "²"],
    ["string", "realize", "--recipe", "II:²"],
    # a numeral past Python's int-string digit limit (4300 by default)
    ["normalize", "--word", "w+" + "9" * 5000],
    ["compare", "--cpo", "phi", "--x", "9" * 5000, "--y", "1"],
    ["string", "realize", "--recipe", "II:" + "9" * 5000],
    # a literal order prints a label of count c as a literal of about c letters
    ["compare", "--cpo", "omega", "--x", "9999999999999999999", "--y", "1"],
    ["neighbors", "--cpo", "lambda_hat_prime", "--x", "9999999999999999999"],
    ["neighbors", "--cpo", "omega", "--x", "1000001"],
    ["cpo", "--cpo", "lambda_hat_prime", "--window", "2001"],
    # a depth below pos + index
    ["string", "limit", "--recipe", "II:3", "--pos", "2", "--depth", "4"],
]


def _argv_id(argv):
    return " ".join(a if len(a) <= 40 else f"{a[:8]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[_argv_id(a) for a in USAGE_ERRORS])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


USAGE_MESSAGES = [
    (["string", "limit", "--recipe", "II:3", "--pos", "2", "--depth", "4"], "depth must be >= 5, got 4"),
    (["compare", "--cpo", "omega_prime", "--x", "9999999999999999999", "--y", "1"],
     "label count must be <= 1000000, got 9999999999999999999"),
    (["neighbors", "--cpo", "omega_opp", "--x", "1000001'"], "label count must be <= 1000000, got 1000001"),
    (["cpo", "--cpo", "omega", "--window", "2001"], "window must be <= 2000, got 2001"),
]


@pytest.mark.parametrize(("argv", "message"), USAGE_MESSAGES, ids=[_argv_id(a) for a, _ in USAGE_MESSAGES])
def test_usage_errors_name_the_bound(capsys, argv, message):
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def test_a_label_starting_with_a_dash_is_passed_with_an_equals_sign(capsys):
    assert _run(capsys, ["compare", "--cpo", "v", "--x=-inf", "--y", "+1"]) == (0, "-inf < +1\n", "")
    # argparse reads a separate -inf as an option: its usage error, with no traceback
    code, out, err = _run(capsys, ["compare", "--cpo", "v", "--x", "-inf", "--y", "+1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.endswith("error: argument --x: expected one argument\n")
    assert "Traceback" not in err


def test_only_literal_orders_bound_their_label_counts(capsys):
    code, out, _ = _run(capsys, ["compare", "--cpo", "phi", "--x", "9999999999999999999", "--y", "1"])
    assert (code, out) == (0, "9999999999999999999 > 1\n")
    assert _run(capsys, ["neighbors", "--cpo", "omega", "--x", "1000000"])[0] == 0


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


@pytest.mark.parametrize("scheme", ["standard", "alternative"])
def test_paths_text_is_each_path_of_limit_paths(capsys, scheme):
    """Oracle for the rows cut from the two label strings: each line joins one path's entries, then its label.

    The rows include each kind of cut: the path of label 0, all tail (cut 0); the inf path; and,
    for STANDARD, the path of the top label, 0', whose rising tail has slack 0.
    """
    for depth in [*range(2, 301), DEEP, MAX_PATHS_DEPTH]:
        code, out, err = _run(capsys, ["paths", "--scheme", scheme, "--depth", str(depth)])
        assert (code, err) == (0, ""), depth
        lines = out.splitlines()
        paths = limit_paths(Scheme(scheme), depth)
        assert lines == [",".join(map(str, p.entries)) + " <-> " + p.label for p in paths], depth
        assert lines[0].startswith(",".join(["0"] * depth) + " <-> "), depth  # 0, or inf where t_depth is 0
        assert sum(line.endswith(" <-> inf") for line in lines) == 1, depth
        assert lines[-1].endswith(" <-> 0'" if scheme == "standard" else " <-> inf"), depth


@pytest.mark.parametrize(("scheme", "order_type"), [("standard", "ω+1+ω*"), ("alternative", "ω+1")])
def test_limit_beyond_the_recursion_limit(capsys, scheme, order_type):
    code, out, err = _run(capsys, ["limit", "--scheme", scheme, "--depth", str(DEEP)])
    assert (code, err) == (0, "")
    assert out == f"{scheme}: {order_type}\n"


# the sizes of each JSON writer's oracle: small ones, the benchmark's range of diagram depths, the bounds
WRITER_SIZES = {"diagram": [*range(2, 41), *range(89, 105), 300], "paths": [*range(2, 161), 300, 3000],
                "stage": [*range(1, 301), MAX_STAGE], "funcspace": [*range(41), 93, MAX_TABLE_WINDOW]}
WRITER_CASES = [(verb, scheme) for verb in ("diagram", "paths") for scheme in SCHEMES] + [
    pytest.param("stage", None, id="stage"), pytest.param("funcspace", None, id="funcspace")]
# funcspace --word without --table: its object is the verdict alone
VERDICT_WORDS = ["1", "3", "w", "w*", "w+1", "1+w*", "w+1+w*", "w+2+w*", "2+w*+w+2", "w*+1+w"]


def _funcspace_table_object(name, window):
    """`funcspace --cpo name --window window --table`'s object, from one to_label per column and one segment_at
    per row, each row's cut found by bisection on its monotone eval_segment over the columns."""
    c = named_cpo(name)
    report = self_iso(c.word)
    space = report.space
    cols = window_elems(c.word, window)
    columns = [c.to_label(x) for x in cols]
    rows = []
    for pos in window_elems(space.word, window):
        seg = space.segment_at(pos)
        k = bisect.bisect_left(range(len(cols)), 1, key=lambda i: eval_segment(c.word, seg, cols[i]))
        row = f"psi_{c.to_label(pos)}" if space.word == c.word else str(seg)
        rows.append({"row": row, "bits": "0" * k + "1" * (len(cols) - k)})
    return {"base": name, "order_type": str(space.word), "self_isomorphic": report.is_iso,
            "reason": report.reason, "notes": list(report.notes), "columns": columns, "rows": rows}


def _writer_cases(verb, scheme):
    """Each argv of a JSON writer's oracle and its object, or None where the verb's compute returns it."""
    if verb == "funcspace":
        for word in VERDICT_WORDS:
            report = self_iso(parse_word(word))
            yield ["funcspace", "--word", word], {
                "base": str(parse_word(word)), "order_type": str(report.space.word),
                "self_isomorphic": report.is_iso, "reason": report.reason, "notes": list(report.notes)}
        for name in all_names():
            for size in WRITER_SIZES[verb]:
                yield (["funcspace", "--cpo", name, "--window", str(size), "--table"],
                       _funcspace_table_object(name, size))
        return
    for size in WRITER_SIZES[verb]:
        if verb == "stage":
            yield ["stage", "--n", str(size)], None
        elif verb == "paths":
            yield [verb, "--scheme", scheme, "--depth", str(size)], {
                "scheme": scheme, "depth": size,
                "paths": [{"entries": list(p.entries), "label": p.label} for p in limit_paths(Scheme(scheme), size)]}
        else:
            yield [verb, "--scheme", scheme, "--depth", str(size)], _diagram_object(scheme, size)


def _diagram_object(scheme, depth):
    return {"scheme": scheme, "depth": depth, "dot": stages.diagram_dot(Scheme(scheme), depth)}


@pytest.mark.parametrize(("verb", "scheme"), WRITER_CASES)
def test_a_json_writer_prints_the_dump_of_its_object(capsys, verb, scheme):
    """`paths`, `diagram`, `stage` and `funcspace` write their JSON text themselves; it is json.dumps of the
    verb's object.

    `stage`'s compute returns its object; `paths`' returns its text, so its object is built from limit_paths,
    `diagram`'s returns the dot text's pieces, so its object is built from diagram_dot, and `funcspace`'s
    returns its head and its table's texts and cuts, so its object is built from the layers, a label per column
    and a segment per row.
    """
    for argv, obj in _writer_cases(verb, scheme):
        if obj is None:
            args = build_parser().parse_args(argv)
            obj = args.compute(args)
        expected = json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
        assert _run(capsys, argv + ["--format", "json"]) == (0, expected, ""), argv


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_paths_render_and_json_writer_each_return_one_text(scheme):
    """`paths` joins its whole answer inside its render and its JSON writer, so a timer around `run()` covers
    the join: each returns one str, not a list of pieces that stdout is given one by one."""
    for depth in (2, 150, MAX_PATHS_DEPTH):
        args = build_parser().parse_args(["paths", "--scheme", scheme, "--depth", str(depth)])
        assert type(args.render(args.compute(args), args)) is str, depth
        assert type(args.dump(args)) is str, depth


@pytest.mark.parametrize("name", all_names())
def test_table_labels_and_row_texts_need_no_json_escape(name):
    """The funcspace writer joins the column labels and row texts into its JSON as they are, and the bits
    are 0s and 1s: no label or row text holds a character that JSON escapes."""
    c = named_cpo(name)
    space = self_iso(c.word).space
    for window in [*range(61), MAX_TABLE_WINDOW]:
        texts = {*c.window_labels(window), *space.rows(window)[1]}
        assert all(json.dumps(t, ensure_ascii=False) == f'"{t}"' for t in texts), window


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ep_checks_its_laws_only_where_it_prints_them(monkeypatch, capsys, scheme):
    """Text `ep` prints the laws only with --check; the JSON object always carries them."""
    calls = []
    monkeypatch.setattr(stages, "check_ep_laws", lambda pair, _fn=stages.check_ep_laws: calls.append(pair) or _fn(pair))
    for extra, expected in (([], 0), (["--check"], 1), (["--format", "json"], 1),
                            (["--check", "--format", "json"], 1)):
        calls.clear()
        code, out, err = _run(capsys, ["ep", "--scheme", scheme, "--n", "7", *extra])
        assert (code, err) == (0, ""), extra
        assert len(calls) == expected, extra
        assert ("laws" in out) == bool(expected), extra


def per_entry_ep_text(obj, check):
    """The `ep` text with each entry formatted on its own."""
    lines = [f"{m}: " + " ".join(map("{}->{}".format, range(len(obj[m])), obj[m])) for m in ("e", "p")]
    if check:
        laws = obj["laws"]
        lines.append(f"laws: {'ok' if laws['ok'] else 'VIOLATED (' + str(laws['witness']) + ')'}")
    return "\n".join(lines)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ep_text_matches_the_per_entry_rendering(capsys, scheme):
    for n in [*range(1, 301), MAX_EP_STAGE]:
        for check in ([], ["--check"]):
            argv = ["ep", "--scheme", scheme, "--n", str(n), *check]
            args = build_parser().parse_args(argv)
            assert _run(capsys, argv) == (0, per_entry_ep_text(args.compute(args), check) + "\n", ""), argv


@pytest.mark.parametrize("argv", [["diagram", "--depth", "6"], ["paths", "--scheme", "alternative", "--depth", "7"],
                                  ["stage", "--n", "5"]])
def test_format_dot_prints_the_text(capsys, argv):
    """--format accepts dot for every verb, and it prints the text answer, not JSON."""
    code, out, err = _run(capsys, argv + ["--format", "text"])
    assert (code, err) == (0, "")
    assert _run(capsys, argv + ["--format", "dot"]) == (0, out, "")


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


# argparse's own answers: help, an unrecognized argument at the top level, a missing subverb or option,
# an invalid choice
PARSE_EXITS = [*([verb, "-h"] for verb in TABLE), ["cpo", "--cpo", "v", "extra"], ["stage", "--n", "3", "x"],
               ["string"], ["string", "realize"], ["lcr", "bogus"], ["ep", "--n", "3", "--scheme", "nope"],
               ["fpt", "--cpo", "phi", "--mu", "swap"]]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=[_argv_id(a) for a in PARSE_EXITS])
def test_run_answers_help_and_errors_as_the_parser(capsys, monkeypatch, argv):
    """run() leaves help and usage errors to build_parser()'s parser, and answers with its bytes and exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    code = run(argv)
    one = capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(argv)
    assert (code, one.out, one.err) == (e.value.code or 0, *capsys.readouterr())


@pytest.mark.parametrize(("argv", "golden"), [
    (["string", "--format", "json", "realize", "--recipe", "II:3"], "string realize --recipe II:3"),
    (["lcr", "--format", "json", "forward", "--x", "...0011"], "lcr forward --x ...0011"),
])
def test_group_format_is_honoured(capsys, argv, golden):
    expected = {**GOLDEN_OUTPUTS, **json.loads((GOLDEN / "cli_verbs.json").read_text())}[golden]
    assert _run(capsys, argv) == (0, expected["json"], "")
    # the subverb's own --format comes later and wins
    assert _run(capsys, argv + ["--format", "text"]) == (0, expected["text"], "")


# argv answered in pieces, each with the character and the position at which a write of the whole text fails;
# each answer starts with ASCII text
UNENCODABLE = [(["diagram"], "λ", 85), (["diagram", "--format", "json"], "λ", 127),
               (["funcspace", "--cpo", "v", "--table"], "ω", 20),
               (["funcspace", "--cpo", "v", "--table", "--format", "json"], "ω", 28)]


@pytest.mark.parametrize(("argv", "char", "position"), [(["cpo", "--cpo", "phi"], "ω", 5), *UNENCODABLE],
                         ids=[_argv_id(a) for a in [["cpo", "--cpo", "phi"], *(a for a, _, _ in UNENCODABLE)]])
def test_unencodable_output_exits_one(argv, char, position):
    """A stdout that cannot encode the answer gets none of it: exit 1 and one error line, which names the
    position in the whole text, also where the answer is written in pieces."""
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run([sys.executable, "-m", "scottlab", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: stdout cannot encode the output: 'ascii' codec can't encode character "
                           f"'\\u{ord(char):04x}' in position {position}: ordinal not in range(128)\n")


def test_no_piece_is_written_before_every_piece_encodes(monkeypatch, capsys):
    """A list of texts whose first non-ASCII piece comes after an ASCII one: stdout gets none of it, and the
    error names the position in the whole text."""
    pieces = stages.diagram_pieces(Scheme.STANDARD, 5)
    monkeypatch.setitem(cli.TABLE["diagram"].defaults, "render", lambda answer, args: [answer[1], answer[5]])
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["diagram"]) == 1
    out.flush()
    assert out.buffer.getvalue() == b""
    position = len(pieces[1]) + pieces[5].index("λ")
    assert capsys.readouterr().err == ("error: stdout cannot encode the output: 'ascii' codec can't encode "
                                       f"character '\\u03bb' in position {position}: ordinal not in range(128)\n")


def test_the_stdout_error_handler_is_honoured():
    """The pieces are checked with stdout's own error handler: backslashreplace writes λ as an escape."""
    env = {**os.environ, "PYTHONIOENCODING": "ascii:backslashreplace"}
    proc = subprocess.run([sys.executable, "-m", "scottlab", "diagram", "--depth", "6"], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == stages.diagram_dot(Scheme.STANDARD, 6).encode("ascii", "backslashreplace")


def _diagram_argv(scheme, depth, fmt):
    return ["diagram", "--scheme", scheme, "--depth", str(depth), "--format", fmt]


def _diagram_output(scheme, depth, fmt):
    """What `diagram --scheme scheme --depth depth` prints, from diagram_dot."""
    obj = _diagram_object(scheme, depth)
    return obj["dot"] if fmt == "text" else json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_diagram_answers_with_the_pieces_of_diagram_pieces(scheme):
    """`diagram`'s render and JSON writer return diagram_pieces' list, whose layout test_stages pins."""
    for depth in (2, 92):
        args = read_argv(_diagram_argv(scheme, depth, "text"))
        assert args.render(args.compute(args), args) == stages.diagram_pieces(Scheme(scheme), depth), depth
        head = f'{{"scheme":"{scheme}","depth":{depth},"dot":"'
        assert args.dump(args) == stages.diagram_pieces(Scheme(scheme), depth, '\\"', "\\n", head, '"}\n'), depth


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_pipe_gets_the_utf8_of_the_whole_diagram(scheme, fmt):
    """Through a pipe, stdout is a TextIOWrapper, which encodes each piece as run() writes it (a StringIO, as
    tools/cli_digest.py captures with, never encodes): its bytes are the UTF-8 of the whole text."""
    proc = subprocess.run([sys.executable, "-m", "scottlab", *_diagram_argv(scheme, 300, fmt)], capture_output=True,
                          env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _diagram_output(scheme, 300, fmt).encode()


CLOSED_STDOUT = [["string", "realize", "--recipe", "II:1000000"], ["stage", "--n", "5000"],
                 ["diagram", "--depth", "300"]]


@pytest.mark.parametrize("argv", CLOSED_STDOUT, ids=[_argv_id(a) for a in CLOSED_STDOUT])
def test_closed_stdout_exits_one(argv):
    """A reader that stops early, as `| head -c 80` does, gets exit 1 and one error line."""
    proc = subprocess.Popen([sys.executable, "-m", "scottlab", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(80)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 80
    assert err == "error: stdout was closed before the output was written\n"


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


def test_a_cold_start_imports_neither_dataclasses_nor_inspect():
    """Records are tuples: a cold start never loads dataclasses or the inspect module it pulls in."""
    script = ("import runpy, sys; import scottlab.cli; sys.argv = ['scottlab', 'stage', '--n', '4']\n"
              "try:\n    runpy.run_module('scottlab', run_name='__main__')\n"
              "except SystemExit as e:\n    print(e.code)\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == ("000 001 011 111\n0\n[]\n", "")


STAGE_LAYERS, MU_LAYERS = ["stages", "words"], ["funcspace", "words"]
BOUNDARY_LAYERS = ["adjunction", "catalog", "strings", "words"]
# a cold argv, the layers whose bodies it runs, and whether it loads json: the stage tower's verbs never run
# the catalogue or the strings, in text or in JSON, and the map-space verbs that name no catalogued order
# never run them either; `paths`, `diagram` and `stage` write their JSON themselves
COLD_LAYERS = {
    "stage --n 4": (STAGE_LAYERS, False),
    "stage --n 4 --format json": (STAGE_LAYERS, False),
    "ep --n 3": (STAGE_LAYERS, False),
    "ep --n 3 --check --format json": (STAGE_LAYERS, True),
    "paths --depth 8": (STAGE_LAYERS, False),
    "paths --scheme alternative --depth 8 --format json": (STAGE_LAYERS, False),
    "limit --depth 12": (STAGE_LAYERS, False),
    "diagram --depth 4": (STAGE_LAYERS, False),
    "diagram --depth 4 --format json": (STAGE_LAYERS, False),
    "mu --map 01": (MU_LAYERS, False),
    "mu --map 10 --format json": (MU_LAYERS, True),
    "funcspace --word w+1": (MU_LAYERS, False),
    "funcspace --word w*+w --format json": (MU_LAYERS, True),
    # an order's boundary is read off the catalogue's record of it, and only Table 8 reads a map space
    "boundary --cpo v": (BOUNDARY_LAYERS, False),
    "decompose --cpo v": (sorted(BOUNDARY_LAYERS + ["replication"]), False),
    "replicate": (sorted(BOUNDARY_LAYERS + ["replication"]), False),
    "table8": (sorted(BOUNDARY_LAYERS + ["funcspace", "replication"]), False),
    # the full parser, build_parser(), lists the --scheme and --mu choices without running a layer
    "-h": ([], False),
}


@pytest.mark.parametrize("case", COLD_LAYERS)
def test_a_cold_verb_runs_only_its_layers(case):
    """Module bodies run through exec(), which raises an audit event, however the module is loaded.

    An in-process test cannot see this: some earlier test has run every layer already.  Only
    `--format json` loads json, and not for a verb with its own JSON writer.
    """
    script = ("import contextlib, io, runpy, sys; from pathlib import Path\n"
              "ran = set(); had_json = 'json' in sys.modules\n"
              "sys.addaudithook(lambda event, args: event == 'exec' and ran.add(args[0].co_filename))\n"
              f"sys.argv = ['scottlab', *{case.split()!r}]\n"
              "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "    try:\n        runpy.run_module('scottlab', run_name='__main__')\n"
              "    except SystemExit as e:\n        code = e.code\n"
              "layers = {'words', 'strings', 'catalog', 'funcspace', 'stages', 'adjunction', 'replication'}\n"
              "print(code, bool(out.getvalue()), sorted(layers & {Path(f).stem for f in ran}), "
              "had_json or 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    layers, loads_json = COLD_LAYERS[case]
    assert (proc.stdout, proc.stderr) == (f"0 True {layers} {loads_json}\n", "")


def test_the_parser_choices_are_the_scheme_and_mu_values():
    """The parser writes the choices out, so that building it runs neither `stages` nor `funcspace`."""
    assert SCHEMES == tuple(s.value for s in Scheme)
    assert MUS == tuple(m.value for m in Mu)


# one verb per group of layers, each on the few layers it runs
COLD_GOLDEN = ["normalize --word 1+w+1", "string classify --x 011...", "cpo --cpo phi", "mu --map 01",
               "boundary --cpo v", "table8", "paths --depth 8"]


@pytest.mark.parametrize("case", COLD_GOLDEN)
def test_a_cold_verb_matches_its_golden_output(case):
    golden = {**GOLDEN_OUTPUTS, **json.loads((GOLDEN / "cli_verbs.json").read_text())}[case]
    argv = case.split(" ")
    expected_json = json.loads(golden["json"])
    if argv == ["table8"]:
        # Table 8 is decided for the whole order: a smaller window changes only the echoed window
        argv, expected_json["window"] = ["table8", "--window", "3"], 3
    for fmt in ("text", "json"):
        proc = subprocess.run([sys.executable, "-m", "scottlab", *argv, "--format", fmt],
                              capture_output=True, text=True, encoding="utf-8",
                              env={**os.environ, "PYTHONIOENCODING": "utf-8"})
        assert (proc.returncode, proc.stderr) == (0, ""), fmt
        if fmt == "text":
            assert proc.stdout == golden["text"]
        else:
            assert json.loads(proc.stdout) == expected_json
            assert proc.stdout == json.dumps(expected_json, ensure_ascii=False, separators=(",", ":")) + "\n"


# -- fuzzing the argparse tree ----------------------------------------------

HOSTILE = ["", " ", "(", ")", "...", "-0", "0", "1", "-1", "+1", "²", "٣", "w", "w*", "ω+1+ω*",
           "w+²", "inf", "inf'", "m", "m'", "-inf", "psi_0", "...0011", "0011...", "111...",
           "000...", "...000", "...111", "(000..., ...111)", "(...000, 111...)", "(...0011, 111...)",
           "II:3", "II:²", "V:1", "I:0", "III:-1", "phi", "lambda"]
CPOS = ["two", "phi", "theta", "omega", "omega_opp", "omega_prime", "omega_prime_opp", "lambda",
        "lambda_prime", "lambda_hat_prime", "xi", "xi_opp", "v", "lam", "omega_set"]
texts = hs.one_of(hs.sampled_from(HOSTILE + CPOS), hs.text(max_size=6))
ints = hs.integers(-3, 40)
# past the label count a literal order may print, plain, primed and signed
BIG_LABELS = [f"{sign}{n}{prime}" for n in ("1000001", "9999999999999999999")
              for sign, prime in (("", ""), ("", "'"), ("+", ""), ("-", ""))]
OPTION = {"text": texts, "cpo": hs.one_of(hs.sampled_from(CPOS), texts), "int": ints,
          "label": hs.one_of(texts, hs.sampled_from(BIG_LABELS)),
          # the decided verbs take a window of any size at the same cost
          "window": hs.one_of(ints, hs.integers(0, 10**9), hs.just(10**9)),
          "scheme": hs.sampled_from(["standard", "alternative"]),
          "mu": hs.sampled_from(["const0", "const1", "id"]), "endpoint": hs.sampled_from(["L", "R"]),
          "format": hs.sampled_from(["text", "json", "dot", "xml"])}


def _option(kind):
    """The values of an option; a number kind is one step past a documented bound, a tuple past each.

    The bound itself is left out: it is valid but slow (funcs --m 20 takes seconds).
    """
    if isinstance(kind, int):
        return hs.one_of(ints, hs.just(kind))
    if isinstance(kind, tuple):
        return hs.one_of(ints, hs.sampled_from(kind))
    return OPTION[kind]


# every verb and subverb: (argv prefix, required options, optional options)
TREE = [
    # a chain of literals has its own bound
    (["cpo"], {"--cpo": "cpo"}, {"--window": (2001, 100_001)}),
    (["normalize"], {"--word": "text"}, {}),
    (["iso"], {"--a": "cpo", "--b": "cpo"}, {}),
    (["compare"], {"--cpo": "cpo", "--x": "label", "--y": "label"}, {}),
    (["neighbors"], {"--cpo": "cpo", "--x": "label"}, {}),
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


# -- the option table's reader against argparse ---------------------------------

# values that argparse reads as options, or refuses, or that only it reads (a separate negative number)
DASHED = hs.sampled_from(["-3", "-inf", "--", "-h", "-", ""])


@hs.composite
def spelled_argvs(draw):
    """An argv over one verb's options of TREE, in any spelling argparse reads or refuses.

    Mixed in: --opt=value, abbreviations, repeats and omissions, values starting with "-", a stray
    `--`, `-h` or word, and a group-level --format before the subverb.
    """
    prefix, required, optional = draw(hs.sampled_from(TREE))
    argv = list(prefix)
    if len(prefix) == 2:
        argv[1:1] = draw(hs.sampled_from([[], ["--format", "json"], ["--format=text"], ["--format", "xml"]]))
    kinds = {**required, **optional, "--format": "format"}
    # mostly every required option, so that most argvs are plain
    flags = list(required) * draw(hs.sampled_from([1, 1, 1, 0])) + draw(hs.lists(hs.sampled_from(list(kinds)),
                                                                                 max_size=5))
    for flag in draw(hs.permutations(flags)):
        spelled = draw(hs.sampled_from([flag] * 5 + [flag[:-1] if len(flag) > 3 else flag]))
        if kinds[flag] is None:
            argv.append(draw(hs.sampled_from([spelled, spelled, f"{spelled}=1"])))
            continue
        value = str(draw(hs.one_of(_option(kinds[flag]), _option(kinds[flag]), DASHED)))
        argv += draw(hs.sampled_from([[spelled, value], [f"{spelled}={value}"]]))
    for token in draw(hs.sampled_from([[]] * 4 + [["--"], ["-h"], ["--help"], ["extra"]])):
        argv.insert(draw(hs.integers(1, len(argv))), token)
    return argv


@settings(max_examples=3000)
@given(spelled_argvs())
def test_the_reader_returns_none_or_what_argparse_returns(argv):
    if (args := read_argv(argv)) is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


def _parsed(argv):
    """The attributes build_parser() sets for argv, or None where it refuses argv."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except (SystemExit, UsageError):
            return None


def _verbs():
    """Every verb and subverb of TABLE: (its argv prefix, its entry)."""
    for verb, entry in TABLE.items():
        if isinstance(entry, cli.Group):
            yield from (([verb, sub], sub_entry) for sub, sub_entry in entry.subverbs.items())
        else:
            yield [verb], entry


def _valid(opt, second=False):
    if opt.type is int:
        return "4" if second else "3"
    return opt.choices[-1 if second else 0] if opt.choices else "w" if second else "v"


def _values(opt):
    """A value of each class for a valued option; a str option without choices has no bad value."""
    bad = "x" if opt.type is int else "nope" if opt.choices else None
    values = {"valid": _valid(opt), "bad": bad, "negative": "-3", "dashed": "-inf", "empty": "", "double dash": "--"}
    return {cls: value for cls, value in values.items() if value is not None}


def _is_plain(opt, value, joined):
    """Whether read_argv reads `--opt value` (joined: `--opt=value`): a value not starting with "-" unless
    joined, not `--`, of the option's type and among its choices."""
    if value == "--" or (value.startswith("-") and not joined):
        return False
    try:
        value = opt.type(value)
    except ValueError:
        return False
    return opt.choices is None or value in opt.choices


def _spellings(opt):
    """Each spelling class of one option: (class, its argv tokens, whether read_argv reads them)."""
    flag = opt.flag
    if opt.type is bool:
        return [("given", [flag], True), ("repeated", [flag, flag], True), ("missing", [], True),
                ("with a value", [f"{flag}=1"], False)]
    out = [("missing", [], not opt.required),
           ("repeated", [flag, _valid(opt), f"{flag}={_valid(opt, second=True)}"], True)]
    for cls, value in _values(opt).items():
        out += [(f"{cls} --opt v", [flag, value], _is_plain(opt, value, False)),
                (f"{cls} --opt=v", [f"{flag}={value}"], _is_plain(opt, value, True))]
    return out


def _spelled_argvs(prefix, entry):
    """Each option of one verb in each spelling class, the verb's other required options given plainly; for a
    subverb, also its group's --format before it."""
    base = {o.flag: [o.flag, _valid(o)] for o in entry.options.values() if o.required}
    for opt in entry.options.values():
        others = [token for flag, tokens in base.items() if flag != opt.flag for token in tokens]
        for cls, tokens, plain in _spellings(opt):
            yield f"{opt.flag} {cls}", [*prefix, *others, *tokens], plain
    if len(prefix) == 2:
        required = [token for tokens in base.values() for token in tokens]
        for cls, tokens, plain in _spellings(cli.FORMAT):
            yield f"group --format {cls}", [prefix[0], *tokens, prefix[1], *required], plain


@pytest.mark.parametrize(("prefix", "entry"), list(_verbs()), ids=[" ".join(p) for p, _ in _verbs()])
def test_the_reader_answers_every_spelling_class_as_argparse(prefix, entry):
    """A decision over the option table, not a sample: for each spelling class of each option, read_argv
    returns what build_parser() parses where the argv is plain, and None, leaving it to argparse, elsewhere."""
    for case, argv, plain in _spelled_argvs(prefix, entry):
        got = read_argv(argv)
        if plain:
            assert got is not None and vars(got) == _parsed(argv), (case, argv)
        else:
            assert got is None, (case, argv)


def test_every_benchmark_request_is_read_without_argparse():
    """perfbench's workloads send only plain argv, so the benchmark builds argparse's parser only in setup_s.

    Reads a few blocks of each workload, at full and at --smoke sizes, without running them.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen = 0
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for smoke in (False, True):
                for block in itertools.islice(workloads.blocks(workload, seed, smoke), 4):
                    for argv in block:
                        assert read_argv(argv) is not None, (workload, seed, argv)
                        seen += 1
    assert seen > 1000


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(spelled_argvs())
def test_run_answers_as_argparse_alone_does(argv):
    """Whether the reader reads argv or leaves it to argparse, run() prints the same bytes."""
    answer = _answer(argv)
    with mock.patch.object(cli, "read_argv", return_value=None):
        assert _answer(argv) == answer, argv


# each verb and subverb with its required options; the first value starting with "-" is spelled --x=-1
PLAIN = [argv + fmt for _, argv in SCHEMA_CASES if "-1" not in argv
         for fmt in ([], ["--format", "json"], ["--format=dot"])] + [
    ["compare", "--cpo", "v", "--x=-1", "--y", "m'"], ["ep", "--n", "4", "--check", "--check"],
    ["boundary", "--cpo", "v", "--window", "3", "--window=100"], ["funcspace", "--cpo=v", "--table", "--window=9"],
    ["string", "--format", "json", "realize", "--recipe", "II:3"], ["lcr", "--format=json", "forward", "--x=111..."],
    ["string", "--format", "json", "approx", "--recipe", "I:2", "--n", "6", "--format", "text"]]


@pytest.mark.parametrize("argv", PLAIN, ids=map(" ".join, PLAIN))
def test_the_reader_reads_every_plain_argv(argv):
    """A plain argv never reaches argparse: the reader returns the namespace argparse would."""
    assert read_argv(argv) is not None
    assert vars(read_argv(argv)) == vars(build_parser().parse_args(argv))


# the spellings that only argparse reads, refuses or answers with help
NOT_PLAIN = [[], ["-h"], ["stage"], ["stage", "-h"], ["stage", "--n", "-3"], ["boundary", "--cpo", "v", "--win", "7"],
             ["compare", "--cpo", "phi", "--x", "-3", "--y", "2"], ["stage", "--", "--n", "3"], ["stage", "--n=x"],
             ["ep", "--n", "3", "--check=1"], ["ep", "--n", "3", "--scheme", "nope"], ["string", "realize"],
             ["string", "--form", "json", "realize", "--recipe", "II:3"], ["lcr", "bogus"], ["string", "-h"],
             ["stage", "--n", "3", "extra"], ["normalize", "--word=--"], ["funcspace", "--table="]]


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=map(" ".join, NOT_PLAIN))
def test_the_reader_leaves_other_spellings_to_argparse(argv):
    assert read_argv(argv) is None


# a plain cold argv, and two that argparse answers: help and a usage error
COLD_PARSE = {"stage --n 4": False, "boundary --cpo v": False, "string --format json realize --recipe II:3": False,
              "-h": True, "stage --n x": True}


@pytest.mark.parametrize("case", COLD_PARSE)
def test_only_help_and_errors_load_argparse_cold(case, monkeypatch):
    """A plain argv loads none of argparse, gettext and locale; help and a usage error load them,
    and print the bytes that they print in-process."""
    script = ("import contextlib, io, runpy, sys\n"
              f"sys.argv = ['scottlab', *{case.split()!r}]\n"
              "out, err = io.StringIO(), io.StringIO()\n"
              "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "    try:\n        runpy.run_module('scottlab', run_name='__main__')\n"
              "    except SystemExit as e:\n        code = e.code\n"
              "print(repr((code, out.getvalue(), err.getvalue())))\n"
              "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8",
                          env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    answer, loaded = proc.stdout.splitlines()
    assert (loaded, proc.stderr) == (str(["argparse", "gettext", "locale"] if COLD_PARSE[case] else []), "")
    assert answer == repr(_answer(case.split()))
