"""Command line interface.

Every operation in the package is reachable from here.  Output is
deterministic: no timestamps, no environment-dependent content, and
the same invocation always produces the same bytes.  --format json
emits one compact JSON object per run; the schemas shipped in
scottlab/schemas describe each verb's object.

Each verb and subverb is a pair of functions, listed with its options
in one table, TABLE: compute(args) returns the verb's JSON object,
exactly as its schema describes it, and render(obj, args) builds the
text from that object alone.  `run()` prints one or the other, so the
text is built only when it is printed.  A layer's report (an adjunction
or boundary report, a decomposition, a fold, a replication, a Table 8
row, the pipeline, the e/p laws) is a tuple record, a typing.NamedTuple
whose `_fields` are its schema's keys, in order, and `_json` is the
only function that turns a report into JSON.  For --format json,
`run()` prints `json.dumps` of the object, except for a verb with its
own JSON writer: `paths`, `diagram` and `stage` write the same text and
its line end from templates, with no object built and no escaping pass,
and `funcspace` writes its head through `json.dumps` and joins its table
around it.  `paths`' compute returns no object either, but its whole
text, which `stages.paths_text` joins from the text's row tokens as it
joins the JSON writer's from JSON's; `diagram`'s returns the dot text's
pieces, and `funcspace`'s the object's head and its table's labels, row
texts and cuts, which its render and its writer both wrap.  Text `ep`
checks the e/p laws only with `--check`.

A render or a JSON writer may return a list of texts in place of one
text, as `diagram`'s do: its pieces hold a non-ASCII character (λ) only
in the header and in stage 1's edges, so the bulk of its text, up to
39 MB, is stored at 1 byte per character and a stdout encodes it by a
copy.  `run()` writes the texts in order, then the verb's end; before it
writes any, it encodes each non-ASCII text with stdout's own encoding
and error handler, so a stdout that cannot encode the answer still gets
none of it.
`--format` may be given to a group (`string`, `lcr`) or to its subverb;
the later one wins.

TABLE describes each verb's and subverb's options once: flag, type,
choices, whether required, default.  `run()` first reads argv against
it with read_argv, which takes only plain spellings (each option in
full, as `--opt value` or `--opt=value`) and returns the attributes
argparse would set.  Any other argv goes to argparse, whose parser
build_parser() builds from the same table, so argparse alone writes
help, usage lines and errors, and reads the spellings only it reads,
such as abbreviations.  argparse is imported only there, so a plain
argv loads neither it nor gettext and locale.

A cold start pays only for the verb it runs.  Importing this module
runs none of the layers: each is registered lazily and its body runs
the first time a verb reads a name from it, so `stage` runs `stages`
and `words` only, `boundary` runs `adjunction`, `catalog`, `strings`
and `words`, and only `decompose`, `lcr`, `replicate`, `table8` and
`pipeline` run `replication`.  An argv left to argparse gets the parser
of every verb, which runs no layer either, and `json` is imported only
for `--format json` of a verb without a JSON writer, or of `funcspace`.

Exit codes: 0 for success, including negative mathematical verdicts
(a failed isomorphism or adjunction is a result, not an error); 1 when
stdout cannot take the output (it cannot encode it, or its reader
closed it early); 2 for unusable input (a UsageError).
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import BadLiteral, NotBoundary, NotIsomorphic, UnknownCpo, UsageError

if TYPE_CHECKING:  # only an annotation names argparse, which build_parser alone imports
    import argparse


def _lazy(name: str):
    """The layer `scottlab.<name>`, in sys.modules and on the package, its body not yet run.

    LazyLoader runs the body on the first attribute read, so the verbs call the
    layers through these module objects and a verb runs only the layers it reads.
    """
    fullname = f"{__package__}.{name}"
    if (module := sys.modules.get(fullname)) is not None:
        return module
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


words, st, catalog, funcspace, stages, adjunction, replication = map(
    _lazy, ("words", "strings", "catalog", "funcspace", "stages", "adjunction", "replication"))


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _word_or_cpo(token: str):
    """A catalogue name, or failing that an order-word literal."""
    try:
        c = catalog.named_cpo(token)
        return c.word, str(c.display_word)
    except UnknownCpo:
        w = words.parse_word(token)
        return w, str(w)


def _parse_recipe(text: str) -> st.SpecifiedString:
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise BadLiteral(f"recipe must look like II:3, got {text!r}")
    kind = parts[0].strip().upper()
    try:
        k = st.SpecKind[kind]
    except KeyError:
        raise BadLiteral(f"unknown recipe family {parts[0]!r}") from None
    if (index := words.read_decimal(parts[1].strip())) is None:
        raise BadLiteral(f"recipe index must be a number, got {parts[1]!r}")
    s = st.SpecifiedString(k, index)
    words.check_range("recipe index", s.index, 1, st.MAX_RECIPE_INDEX)
    return s


def _recipe_str(s: st.SpecifiedString) -> str:
    return f"{s.kind.value}:{s.index}"


def _json(report):
    """A report as its schema's JSON value: its fields are the schema's keys, in order.

    A record that writes its own text (a string or pair: its literal) becomes that text,
    any other record (a tuple with `_fields`) an object, a plain tuple a list, an enum its
    value.  Records are tuples, so they are told apart from plain tuples before a tuple
    becomes a list; no layer's class is named, so a report runs only the layers it came from.
    """
    if report is None or isinstance(report, (str, int)):
        return report
    if isinstance(report, tuple):
        if type(report).__str__ is not tuple.__str__:
            return str(report)
        keys = getattr(report, "_fields", None)
        if keys is not None:
            return {k: _json(v) for k, v in zip(keys, report)}
        return [_json(x) for x in report]
    return report.value


# -- verbs: compute(args) -> object, render(object, args) -> text -----------


def _cpo(args) -> dict:
    c = catalog.named_cpo(args.cpo)
    bottom, top = words.extremes(c.word)
    return {
        "cpo": c.name.value,
        "order_type": str(c.display_word),
        "normal_type": str(c.word),
        "bottom": c.to_label(bottom) if bottom else None,
        "top": c.to_label(top) if top else None,
        "chain": catalog.chain_display(c, args.window),
    }


def _cpo_text(obj, args) -> str:
    normal = f" (normal form {obj['normal_type']})" if obj["normal_type"] != obj["order_type"] else ""
    return (f"{obj['cpo']}: {obj['order_type']}{normal}\n"
            f"bottom: {obj['bottom'] or 'none'}  top: {obj['top'] or 'none'}\n{obj['chain']}")


def _normalize(args) -> dict:
    w = words.parse_word(args.word)
    return {"input": str(w), "normal": str(words.normalize(w))}


def _normalize_text(obj, args) -> str:
    return obj["normal"]


def _iso(args) -> dict:
    wa, da = _word_or_cpo(args.a)
    wb, db = _word_or_cpo(args.b)
    return {"a": da, "b": db, "isomorphic": words.iso(wa, wb),
            "a_normal": str(words.normalize(wa)), "b_normal": str(words.normalize(wb))}


def _iso_text(obj, args) -> str:
    return f"{'isomorphic' if obj['isomorphic'] else 'not isomorphic'}: {obj['a']} vs {obj['b']}"


def _compare(args) -> dict:
    c = catalog.named_cpo(args.cpo)
    x = c.to_elem(args.x)
    y = c.to_elem(args.y)
    rel = words.compare(c.word, x, y).value
    return {"cpo": c.name.value, "x": c.to_label(x), "y": c.to_label(y), "relation": rel}


def _compare_text(obj, args) -> str:
    return f"{obj['x']} {obj['relation']} {obj['y']}"


def _neighbors(args) -> dict:
    c = catalog.named_cpo(args.cpo)
    x = c.to_elem(args.x)
    pred, succ = words.neighbors(c.word, x)
    return {"cpo": c.name.value, "x": c.to_label(x),
            "predecessor": c.to_label(pred) if pred else None,
            "successor": c.to_label(succ) if succ else None}


def _neighbors_text(obj, args) -> str:
    return f"predecessor: {obj['predecessor'] or 'none'}, successor: {obj['successor'] or 'none'}"


def _stage(args) -> dict:
    s = stages.stage(args.n)
    return {"n": s.n, "elements": list(s.elements)}


def _stage_text(obj, args) -> str:
    # only stage 1's one word is empty
    return " ".join(obj["elements"]) or "λ"


def _stage_json(args) -> str:
    # the object of _stage from a template: its words hold only 0s and 1s, which need no escape
    s = stages.stage(args.n)
    return f'{{"n":{s.n},"elements":["' + '","'.join(s.elements) + '"]}\n'


def _funcs(args) -> dict:
    fs = stages.enumerate_monotone(args.m)
    return {"m": args.m, "count": len(fs), "functions": list(fs)}


def _funcs_text(obj, args) -> str:
    return " ".join(obj["functions"])


def _mu(args) -> dict:
    bits = args.map.strip()
    if len(bits) != 2 or set(bits) - {"0", "1"}:
        raise BadLiteral(f"candidate must be two bits, got {args.map!r}")
    return {"candidate": bits, "continuous": funcspace.mu_continuous((int(bits[0]), int(bits[1])))}


def _mu_text(obj, args) -> str:
    return "continuous" if obj["continuous"] else "not continuous (not monotone)"


def _ep(args) -> dict:
    pair = stages.ep_pair(stages.Scheme(args.scheme), args.n)
    obj = {"scheme": pair.scheme.value, "n": pair.n, "e": list(pair.e.mapping), "p": list(pair.p.mapping)}
    if args.check or args.format == "json":  # the text prints the laws only with --check
        obj["laws"] = _json(stages.check_ep_laws(pair))
    return obj


def _ep_text(obj, args) -> str:
    # each map's line is a run of j->m_j whose numerals slice assignment fills from one list of texts
    texts = list(map(str, range(len(obj["p"]))))  # 0, ..., n: every label and entry of both maps
    out = []
    for m in ("e", "p"):
        run = [None, "->", None, " "] * len(obj[m])
        run[0::4], run[2::4] = texts[:len(obj[m])], map(texts.__getitem__, obj[m])
        run[-1] = "\n"
        out.append(f"{m}: ")
        out += run
    if args.check:
        laws = obj["laws"]
        out.append(f"laws: {'ok' if laws['ok'] else 'VIOLATED (' + str(laws['witness']) + ')'}")
    else:
        out.pop()  # the p line ends the text
    return "".join(out)


def _paths(args) -> str:
    # not the schema's object: the text of every path, which the JSON writer builds with its own tokens
    return stages.paths_text(stages.Scheme(args.scheme), args.depth)


def _paths_text(text, args) -> str:
    return text


def _paths_json(args) -> str:
    # the schema's object around the same rows: the labels k, inf and k' need no escape
    return stages.paths_text(stages.Scheme(args.scheme), args.depth, '{"entries":[', '],"label":"', '"}', ",",
                             f'{{"scheme":"{args.scheme}","depth":{args.depth},"paths":[', "]}\n")


def _limit(args) -> dict:
    w = stages.limit_cpo(stages.Scheme(args.scheme), args.depth)
    return {"scheme": args.scheme, "depth": args.depth, "order_type": str(w)}


def _limit_text(obj, args) -> str:
    return f"{obj['scheme']}: {obj['order_type']}"


def _diagram(args) -> list[str]:
    # not the schema's object: the dot text's pieces, of which only the header and stage 1's edges hold λ
    return stages.diagram_pieces(stages.Scheme(args.scheme), args.depth)


def _diagram_text(pieces, args) -> list[str]:
    # the dot text ends in its own newline, so the verb registers end=""
    return pieces


def _diagram_json(args) -> list[str]:
    # the schema's object {scheme, depth, dot} as the dot text's pieces: the dot text built with the
    # escaped quote and line end of a JSON string, the object's braces and line end around it
    return stages.diagram_pieces(stages.Scheme(args.scheme), args.depth, '\\"', "\\n",
                                 f'{{"scheme":"{args.scheme}","depth":{args.depth},"dot":"', '"}\n')


# the table has about 2w rows of 2w bits and a label per column, O(w^2) bytes: at
# w = 1000, 1.5 MB for omega in 0.06-0.08 s, 4.1 MB for v in 0.07-0.09 s, and 7.1 MB in
# 0.09-0.12 s for lambda_hat_prime, whose column labels are pair literals, each from a
# fresh process, of which the table takes 1.5-2, 3-6 and 5.5-8 ms (2-vCPU Xeon, Python 3.11)
MAX_TABLE_WINDOW = 1000


def _funcspace(args) -> tuple[dict, tuple[list[str], list[str], list[int]] | None]:
    """Not the schema's object: the keys before its table, and with --table the column labels, each row's
    text and its cut, which the text and the JSON writer wrap.  Rows are the space's windowed segments,
    columns the base window."""
    if bool(args.cpo) == bool(args.word):
        raise BadLiteral("give --cpo or --word, not both" if args.cpo else "need --cpo or --word")
    c = catalog.named_cpo(args.cpo) if args.cpo else None
    word = words.parse_word(args.word) if c is None else c.word
    # a catalogued order holds its verdict; a word given on the command line is decided afresh
    report = funcspace.self_iso(word) if c is None else c.self_iso
    head = {
        "base": str(word) if c is None else c.name.value,
        "order_type": str(report.space.word),
        "self_isomorphic": report.is_iso,
        "reason": report.reason,
        "notes": list(report.notes),
    }
    if not args.table:
        return head, None
    if c is None:
        raise BadLiteral("--table needs a catalogued --cpo for its labels")
    words.check_range("window", args.window, 0, MAX_TABLE_WINDOW)
    columns = c.window_labels(args.window)
    cuts, texts = report.space.rows(args.window)
    # a space of the base's own word has the base's window, so its rows take the column labels
    # and no row text is written
    rows = [f"psi_{label}" for label in columns] if report.space.word == c.word else list(texts)
    return head, (columns, rows, cuts)


def _funcspace_bits(n: int, cuts: list[int]) -> list[str]:
    # an open segment is an up-set, so a row with cut k is k 0s then 1s: one slice of a staircase
    staircase = "0" * n + "1" * n
    return [staircase[n - k:2 * n - k] for k in cuts]


def _funcspace_text(answer, args) -> str:
    head, table = answer
    verdict = "yes" if head["self_isomorphic"] else f"no ({head['reason']})"
    lines = [f"{head['base']}: function space {head['order_type']}; isomorphic to base: {verdict}"]
    lines.extend(f"note: {n}" for n in head["notes"])
    if table is not None:
        columns, rows, cuts = table
        width = max(map(len, rows))
        lines.append("columns: " + " ".join(columns))
        lines += [f"{row.ljust(width)} {bits}" for row, bits in zip(rows, _funcspace_bits(len(columns), cuts))]
    return "\n".join(lines)


def _funcspace_json(args) -> str:
    # the schema's object: its head through json.dumps, then its table joined around the labels, row
    # texts and bits, which hold no character that JSON escapes
    import json

    head, table = _funcspace(args)
    text = json.dumps(head, ensure_ascii=False, separators=(",", ":"))
    if table is None:
        return text + "\n"
    columns, rows, cuts = table
    cells = ",".join([f'{{"row":"{row}","bits":"{bits}"}}'
                      for row, bits in zip(rows, _funcspace_bits(len(columns), cuts))])
    return f'{text[:-1]},"columns":["' + '","'.join(columns) + f'"],"rows":[{cells}]}}\n'


def _fpt(args) -> dict:
    c = catalog.named_cpo(args.cpo)
    try:
        r = funcspace.fpt(c, funcspace.Mu(args.mu))
    except NotIsomorphic as e:
        return {"cpo": c.name.value, "mu": args.mu, "applicable": False, "reason": str(e)}
    return {"g": r.g_label, "preimage": r.preimage_label, "value": r.value}


def _fpt_text(obj, args) -> str:
    if not obj.get("applicable", True):
        return f"fixed point construction not applicable: {obj['reason']}"
    return f"g = {obj['g']}, preimage = {obj['preimage']}, value = {obj['value']}"


def _string_realize(args) -> dict:
    s = _parse_recipe(args.recipe)
    x = st.realize(s)
    return {"recipe": _recipe_str(s), "string": str(x), "compact": st.render_compact(x)}


def _string_realize_text(obj, args) -> str:
    return obj["string"]


def _string_approx(args) -> dict:
    s = _parse_recipe(args.recipe)
    return {"recipe": _recipe_str(s), "n": args.n, "word": st.finite_approx(s.kind, s.index, args.n)}


def _string_approx_text(obj, args) -> str:
    return obj["word"] or "λ"


def _string_limit(args) -> dict:
    s = _parse_recipe(args.recipe)
    stable = st.limit_check(s.kind, s.index, args.pos, args.depth)
    return {"recipe": _recipe_str(s), "pos": args.pos, "depth": args.depth,
            "stable": stable, "bit": st.bit_at(st.realize(s), args.pos)}


def _string_limit_text(obj, args) -> str:
    return f"{'stable' if obj['stable'] else 'UNSTABLE'}, bit {obj['bit']}"


def _string_opp(args) -> dict:
    x = st.parse_literal(args.x)
    return {"input": str(x), "output": str(st.opp(x))}


def _string_opp_pair(args) -> dict:
    p = st.parse_pair_literal(args.pair)
    return {"input": str(p), "output": str(st.opp_pair(p))}


def _string_lr(args) -> dict:
    s = _parse_recipe(args.recipe)
    t = st.lr(s)
    return {"input": _recipe_str(s), "output": _recipe_str(t),
            "input_string": str(st.realize(s)), "output_string": str(st.realize(t))}


# the text of `string opp`, `opp-pair` and `lr`
def _output_text(obj, args) -> str:
    return obj["output"]


def _string_lr_pair(args) -> dict:
    a, b = _parse_recipe(args.a), _parse_recipe(args.b)
    ta, tb = st.lr_pair((a, b))
    return {"input": [_recipe_str(a), _recipe_str(b)], "output": [_recipe_str(ta), _recipe_str(tb)]}


def _string_lr_pair_text(obj, args) -> str:
    return " ".join(obj["output"])


def _string_classify(args) -> dict:
    x = st.parse_literal(args.x)
    c = st.classify(x)
    return {"string": str(x), "family": c.family.value, "index": c.index}


def _string_classify_text(obj, args) -> str:
    return f"{obj['family']}, index {obj['index'] if obj['index'] is not None else 'indeterminate'}"


def _adjunction(args) -> dict:
    return _json(adjunction.check_adjunction(args.cpo, args.window))


def _adjunction_text(obj, args) -> str:
    lines = [f"{obj['cpo']}: halves {obj['lower']} / {obj['upper']}, window {obj['window']}"]
    lines.extend(f"condition {c['index']}: " + ("pass" if c["passed"] else f"FAIL (witness {c['witness']})")
                 for c in obj["conditions"])
    lines.append("adjunction: " + _yes_no(obj["passed"]))
    return "\n".join(lines)


def _boundary(args) -> dict:
    return _json(adjunction.boundary_report(args.cpo, args.window))


def _boundary_text(obj, args) -> str:
    return "\n".join([
        f"{obj['cpo']}: boundary {obj['label']} = {obj['boundary']}",
        f"self-dual: {_yes_no(obj['self_dual'])}",
        f"predecessor: {obj['predecessor'] or 'none'}, successor: {obj['successor'] or 'none'}",
        f"in lower half: {_yes_no(obj['in_lower'])}, in upper half: {_yes_no(obj['in_upper'])}",
        f"top of lower half: {_yes_no(obj['join_of_lower'])}, "
        f"bottom of upper half: {_yes_no(obj['meet_of_upper'])}",
    ])


def _decompose(args) -> dict:
    return {"cpo": catalog.named_cpo(args.cpo).name.value,
            "decompositions": _json(replication.decompositions(args.cpo))}


def _decompose_text(obj, args) -> str:
    lines = []
    for d in obj["decompositions"]:
        parts = " + ".join(d["parts"])
        if d["natural"]:
            lines.append(f"{parts} via {d['name']} (boundary -> {d['boundary_image']})")
        else:
            w = d["witness"]
            lines.append(f"{parts}: no natural pairing "
                         f"({w['element']} claimed by {w['lower_claim']} and by {w['upper_claim']})")
    return "\n".join(lines)


def _lcr_forward(args) -> dict:
    return _json(replication.lcr_forward(st.parse_literal(args.x)))


def _lcr_forward_text(obj, args) -> str:
    return (f"{obj['source']} ({obj['source_label']}) -> {obj['image']} ({obj['label']}) in {obj['half']}"
            + (" [boundary collision]" if obj["collision"] else ""))


def _lcr_backward(args) -> dict:
    pair = st.parse_pair_literal(args.pair)
    endpoint = st.Orientation[args.endpoint] if args.endpoint else None
    out = replication.lcr_backward(pair, endpoint)
    return {"pair": str(pair), "endpoint": args.endpoint, "preimage": str(out)}


def _lcr_backward_text(obj, args) -> str:
    return obj["preimage"]


def _replicate(args) -> dict:
    pair = st.parse_pair_literal(args.pair) if args.pair else adjunction.BOUNDARY_M
    try:
        return _json(replication.replicate(pair))
    except NotBoundary as e:
        return {"source": str(pair), "replicable": False, "reason": str(e)}


def _replicate_text(obj, args) -> str:
    if not obj.get("replicable", True):
        return f"not replicable: {obj['reason']}"
    return (f"{obj['source']} -> intent {obj['intent']} ({obj['intent_label']}), "
            f"extent {obj['extent']} ({obj['extent_label']}); "
            f"mutual immediate neighbors: {_yes_no(obj['mutual_neighbors'])}")


def _matrix_text(rows) -> str:
    # one column per key of the rows; the headers drop the underscores
    keys = list(rows[0])
    headers = [k.replace("_", " ") for k in keys]
    widths = [max(len(h), *(len(r[k]) for r in rows)) for h, k in zip(headers, keys)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers)]
    lines.extend(fmt(r.values()) for r in rows)
    return "\n".join(lines)


def _table8(args) -> dict:
    return {"window": args.window, "rows": _json(replication.table8(args.window))}


def _table8_text(obj, args) -> str:
    return _matrix_text(obj["rows"])


def _pipeline(args) -> dict:
    return _json(replication.pipeline(args.window))


def _pipeline_text(obj, args) -> str:
    d, rep, l = obj["dualization"], obj["replication"], obj["lcr"]
    return "\n".join([
        f"dualization: {d['source']} -> {d['target']}  isomorphic: "
        f"{_yes_no(d['isomorphic'])}  ({d['order_type']})",
        f"replication: {rep['source']} -> {rep['target']}  m -> {rep['intent_label']} / {rep['extent_label']}"
        f"  ({rep['source_type']} -> {rep['target_type']})  mutual neighbors: "
        f"{_yes_no(rep['mutual_neighbors'])}",
        f"lcr: {l['source']} -> {l['target']}  round trip: {'ok' if l['round_trip_ok'] else 'BROKEN'}"
        f"  collision at {l['collision_label']} from {l['collision_preimages'][0]}"
        f" and {l['collision_preimages'][1]}  isomorphic: {_yes_no(l['isomorphic'])}",
        "",
        _matrix_text(obj["table8"]),
    ])


# -- options: one table, read by read_argv and built into argparse by build_parser
# (plain classes: a typing.NamedTuple class would cost a cold start about 0.3 ms to create)


class Opt:
    """An option: `--flag value` or `--flag=value`, the value of `type` and among `choices`.

    A bool option is a store_true flag, which takes no value; its default is False.
    """

    __slots__ = ("flag", "type", "choices", "required", "default", "help")

    def __init__(self, flag: str, type: type = str, choices: tuple[str, ...] | None = None, required: bool = False,
                 default: object = None, help: str | None = None):
        self.flag, self.type, self.choices, self.required, self.default, self.help = (
            flag, type, choices, required, default, help)


# given at a group and at its subverb, the later one wins; its default is the top level's "text"
FORMAT = Opt("--format", choices=("text", "json", "dot"))
GROUP_OPTIONS = {FORMAT.flag: FORMAT}


class Verb:
    """A verb or subverb: its help line, its options by flag (`--format` first), the names of those
    it requires, and what parse_args sets before it reads argv: each option's default, and `compute`,
    `render` and the JSON writer `dump`, which `run()` calls, and the `end` that follows the rendered text.

    A bare flag among `options` is a required str option.  The JSON writer `dump(args)` writes the
    text of json.dumps(compute(args)) and its line end; `end` is as print's `end`.
    """

    __slots__ = ("help", "options", "required", "defaults")

    def __init__(self, compute, render, help: str | None, *options: str | Opt, dump=None, end: str = "\n"):
        opts = [Opt(o, required=True) if isinstance(o, str) else o for o in options]
        self.help = help
        self.options = GROUP_OPTIONS | {o.flag: o for o in opts}
        self.required = {o.flag[2:] for o in opts if o.required}
        self.defaults = ({o.flag[2:]: False if o.type is bool else o.default for o in opts}
                         | {"compute": compute, "render": render, "dump": dump, "end": end})


class Group:
    """A verb whose subverb names the answer (`string`, `lcr`); the subverb's name is stored at `dest`."""

    __slots__ = ("help", "dest", "subverbs")

    def __init__(self, help: str, dest: str, subverbs: dict[str, Verb]):
        self.help, self.dest, self.subverbs = help, dest, subverbs


# the values of stages.Scheme and funcspace.Mu, which a test ties to them: a table that read the
# enums would run those layers' bodies, a cold start's cost for every verb
SCHEMES = ("standard", "alternative")
MUS = ("const0", "const1", "id")
SCHEME = Opt("--scheme", choices=SCHEMES, default="standard")
WINDOW = Opt("--window", int, default=20)

# every verb, in the order of the top-level help, and each one's options in the order of its usage line
TABLE = {
    "cpo": Verb(_cpo, _cpo_text, "describe a catalogued order", "--cpo", WINDOW),
    "normalize": Verb(_normalize, _normalize_text, "normal form of an order word", "--word"),
    "iso": Verb(_iso, _iso_text, "isomorphism verdict for two orders", "--a", "--b"),
    "compare": Verb(_compare, _compare_text, "order two elements", "--cpo", "--x", "--y"),
    "neighbors": Verb(_neighbors, _neighbors_text, "immediate neighbors of an element", "--cpo", "--x"),
    "stage": Verb(_stage, _stage_text, "the finite stage of monotone words", Opt("--n", int, required=True),
                  dump=_stage_json),
    "funcs": Verb(_funcs, _funcs_text, "monotone maps from an m-chain into 2", Opt("--m", int, required=True)),
    "mu": Verb(_mu, _mu_text, "continuity of a candidate map 2 -> 2",
               Opt("--map", required=True, help="two bits: f(0)f(1)")),
    "ep": Verb(_ep, _ep_text, "embedding/projection pair between stages", SCHEME, Opt("--n", int, required=True),
               Opt("--check", bool)),
    "paths": Verb(_paths, _paths_text, "projection-consistent label paths", SCHEME,
                  Opt("--depth", int, default=10), dump=_paths_json),
    "limit": Verb(_limit, _limit_text, "order type of the stage limit", SCHEME, Opt("--depth", int, default=12)),
    "diagram": Verb(_diagram, _diagram_text, "stage diagram in dot form", SCHEME, Opt("--depth", int, default=5),
                    dump=_diagram_json, end=""),
    "funcspace": Verb(_funcspace, _funcspace_text, "space of monotone maps into 2", Opt("--cpo"), Opt("--word"),
                      Opt("--window", int, default=5), Opt("--table", bool), dump=_funcspace_json),
    "fpt": Verb(_fpt, _fpt_text, "fixed point of a continuous mu", "--cpo", Opt("--mu", choices=MUS, required=True)),
    "string": Group("monotypic string operations", "string_cmd", {
        "realize": Verb(_string_realize, _string_realize_text, None, "--recipe"),
        "approx": Verb(_string_approx, _string_approx_text, None, "--recipe", Opt("--n", int, required=True)),
        "limit": Verb(_string_limit, _string_limit_text, None, "--recipe", Opt("--pos", int, required=True),
                      Opt("--depth", int, default=20)),
        "opp": Verb(_string_opp, _output_text, None, "--x"),
        "opp-pair": Verb(_string_opp_pair, _output_text, None, "--pair"),
        "lr": Verb(_string_lr, _output_text, None, "--recipe"),
        "lr-pair": Verb(_string_lr_pair, _string_lr_pair_text, None, "--a", "--b"),
        "classify": Verb(_string_classify, _string_classify_text, None, "--x"),
    }),
    "adjunction": Verb(_adjunction, _adjunction_text, "the three adjunction conditions", "--cpo", WINDOW),
    "boundary": Verb(_boundary, _boundary_text, "boundary element of a glued order", "--cpo", WINDOW),
    "decompose": Verb(_decompose, _decompose_text, "string family decompositions", "--cpo"),
    "lcr": Group("fold strings into the valley order", "lcr_cmd", {
        "forward": Verb(_lcr_forward, _lcr_forward_text, None, "--x"),
        "backward": Verb(_lcr_backward, _lcr_backward_text, None, "--pair", Opt("--endpoint", choices=("L", "R"))),
    }),
    "replicate": Verb(_replicate, _replicate_text, "split the self-dual boundary", Opt("--pair")),
    "table8": Verb(_table8, _table8_text, "summary matrix of the composite orders", WINDOW),
    "pipeline": Verb(_pipeline, _pipeline_text, "dualization, replication, and folding, chained", WINDOW),
}


def _read_option(argv: list[str], i: int, options: dict[str, Opt], values: dict) -> int:
    """Read the option at argv[i] into values and return the index past it.

    Raises LookupError or ValueError for what argparse reads otherwise or refuses: a flag not spelled
    in full, a value missing or starting with "-", a value to a flag, a bad int or choice.
    """
    flag, eq, value = argv[i].partition("=")
    opt = options[flag]
    if opt.type is bool:
        if eq:
            raise ValueError(value)
        values[flag[2:]] = True
        return i + 1
    if not eq:
        i += 1
        value = argv[i]
        if value.startswith("-"):
            raise ValueError(value)
    elif value == "--":  # argparse drops an explicit "--", and build_parser's Store refuses what is left
        raise ValueError(value)
    value = opt.type(value)
    if opt.choices is not None and value not in opt.choices:
        raise ValueError(value)
    values[flag[2:]] = value
    return i + 1


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The attributes that build_parser().parse_args(argv) sets, for a plain argv; None for any other.

    A plain argv is a verb, for a group its own --format and its subverb, then the verb's options from
    TABLE, each spelled in full as `--opt value`, whose value does not start with "-", or `--opt=value`,
    each value of its option's type and among its choices, every required option given.  A repeated
    option keeps its last value, and a subverb's --format wins over its group's.  Every other argv (none,
    -h, an abbreviation, `--`, an unknown or missing option, a bad int or choice) is left to argparse.
    """
    try:
        entry, values, i = TABLE[argv[0]], {"verb": argv[0], "format": "text"}, 1
        if isinstance(entry, Group):
            while argv[i].startswith("-"):
                i = _read_option(argv, i, GROUP_OPTIONS, values)
            values[entry.dest] = argv[i]
            entry, i = entry.subverbs[argv[i]], i + 1
        given: dict[str, object] = {}
        while i < len(argv):
            i = _read_option(argv, i, entry.options, given)
    except (LookupError, ValueError):
        return None
    if not given.keys() >= entry.required:
        return None
    return SimpleNamespace(**values | entry.defaults | given)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb, built from TABLE.

    `run()` turns to argparse only for an argv that read_argv leaves: help, usage errors, and the
    spellings that only argparse reads, such as abbreviations.  Building it runs no layer.  argparse
    is imported here and only here, so an argv that read_argv reads loads neither it nor the gettext
    and locale modules it uses.  The parser is built once per process and reused.  Callers must not
    modify it: `parse_args` returns a fresh namespace on every call, so nothing carries over from one
    parse to the next.
    """
    import argparse

    class Store(argparse.Action):
        """argparse's store, which refuses `--opt=--` with a UsageError: argparse drops its "--" and
        passes an empty list, which no verb can read."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise UsageError(f"argument {option_string}: expected one argument")
            setattr(namespace, self.dest, values)

    def add(subs, name: str, entry: Verb | Group) -> None:
        # a subverb without help gets no line in its group's help
        p = subs.add_parser(name, **({} if entry.help is None else {"help": entry.help}))
        p.add_argument(FORMAT.flag, action=Store, choices=FORMAT.choices, default=argparse.SUPPRESS)
        if isinstance(entry, Group):
            group = p.add_subparsers(dest=entry.dest, required=True)
            for sub, sub_entry in entry.subverbs.items():
                add(group, sub, sub_entry)
            return
        for o in list(entry.options.values())[1:]:  # after --format
            if o.type is bool:
                p.add_argument(o.flag, action="store_true")
            else:
                p.add_argument(o.flag, action=Store, type=o.type, choices=o.choices, required=o.required,
                               default=o.default, help=o.help)
        p.set_defaults(**entry.defaults)

    parser = argparse.ArgumentParser(
        prog="scottlab",
        description="countable chain-complete orders, their map spaces, and the fixed point construction",
    )
    parser.set_defaults(format="text")
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, entry in TABLE.items():
        add(subs, name, entry)
    return parser


def _refuse(e: UsageError) -> int:
    print(f"error: {e}", file=sys.stderr)
    return 2


def _check_encodable(pieces: list[str]) -> None:
    """Encode each non-ASCII piece as stdout will, so that an answer it cannot encode fails before any
    piece is written; ASCII pieces are left out, every encoding of a stdout encodes them.

    The failure is raised again from the whole text, so it names the position a write of the whole text
    names.  A stream without an encoding, such as a StringIO, never encodes.
    """
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding is None:
        return
    errors = sys.stdout.errors or "strict"
    for piece in pieces:
        if not piece.isascii():
            try:
                piece.encode(encoding, errors)
            except UnicodeEncodeError:
                "".join(pieces).encode(encoding, errors)
                raise


def run(argv: list[str] | None = None) -> int:
    """Read argv and print the verb's object as text or JSON, the JSON from the verb's writer if it has one.

    read_argv reads a plain argv; argparse parses any other, and answers help and usage errors.  A render
    or writer that returns a list of texts has them written in order, once stdout is known to encode them.
    """
    if argv is None:
        argv = sys.argv[1:]
    if (args := read_argv(argv)) is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        except UsageError as e:
            return _refuse(e)
    try:
        if args.format != "json":
            text, end = args.render(args.compute(args), args), args.end
        elif args.dump is not None:
            text, end = args.dump(args), ""  # a JSON writer ends its own line
        else:
            import json  # only here and in the funcspace writer: a text answer never loads it
            text, end = json.dumps(args.compute(args), ensure_ascii=False, separators=(",", ":")), "\n"
    except UsageError as e:
        return _refuse(e)
    pieces = [text] if isinstance(text, str) else text
    try:
        if len(pieces) > 1:  # one text is encoded whole before any of it is written
            _check_encodable(pieces)
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.write(end)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except UnicodeEncodeError as e:
        print(f"error: stdout cannot encode the output: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the unwritten rest would fail again in the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
