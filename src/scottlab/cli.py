"""Command line interface.

Every operation in the package is reachable from here.  Output is
deterministic: no timestamps, no environment-dependent content, and
the same invocation always produces the same bytes.  --format json
emits one compact JSON object per run; the schemas shipped in
scottlab/schemas describe each verb's object.

Each verb and subverb is a pair of functions that `_add()` attaches to
its parser: compute(args) returns the verb's JSON object, exactly as
its schema describes it, and render(obj, args) builds the text from
that object alone.  `run()` prints one or the other, so the text is
built only when it is printed.  A layer's report (an adjunction or
boundary report, a decomposition, a fold, a replication, a Table 8 row,
the pipeline, the e/p laws) is a tuple record, a typing.NamedTuple
whose `_fields` are its schema's keys, in order, and `_json` is the
only function that turns a report into JSON.  For --format json,
`run()` prints `json.dumps` of the object, except for a verb with its
own JSON writer: `paths` and `diagram` write the same text from
templates, with no object built and no escaping pass.
`--format` may be given to a group (`string`, `lcr`) or to its subverb;
the later one wins.

A cold start pays only for the verb it runs.  Importing this module
runs none of the layers: each is registered lazily and its body runs
the first time a verb reads a name from it, so `stage` runs `stages`
and `words` only, `boundary` runs `adjunction`, `catalog`, `strings`
and `words`, and only `decompose`, `lcr`, `replicate`, `table8` and
`pipeline` run `replication`.  `run()` builds the parser of the verb
that argv names, not all of them, and `json` is imported only for
`--format json` of a verb without a JSON writer.

Exit codes: 0 for success, including negative mathematical verdicts
(a failed isomorphism or adjunction is a result, not an error); 1 when
stdout cannot take the output (it cannot encode it, or its reader
closed it early); 2 for unusable input (a UsageError).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import os
import sys

from .errors import BadLiteral, NotBoundary, NotIsomorphic, UnknownCpo, UsageError


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
    return {"scheme": pair.scheme.value, "n": pair.n, "e": list(pair.e.mapping),
            "p": list(pair.p.mapping), "laws": _json(stages.check_ep_laws(pair))}


def _ep_text(obj, args) -> str:
    lines = [f"{m}: " + " ".join(map("{}->{}".format, range(len(obj[m])), obj[m])) for m in ("e", "p")]
    if args.check:
        laws = obj["laws"]
        lines.append(f"laws: {'ok' if laws['ok'] else 'VIOLATED (' + str(laws['witness']) + ')'}")
    return "\n".join(lines)


def _paths(args) -> dict:
    paths = stages.limit_paths(stages.Scheme(args.scheme), args.depth)
    return {"scheme": args.scheme, "depth": args.depth,
            "paths": [{"entries": list(p.entries), "label": p.label} for p in paths]}


def _label_texts(depth: int):
    # every entry is a label below depth: one table of their texts, not a str() per entry
    return list(map(str, range(depth))).__getitem__


def _paths_text(obj, args) -> str:
    text = _label_texts(obj["depth"])
    return "\n".join(",".join(map(text, p["entries"])) + f" <-> {p['label']}" for p in obj["paths"])


def _paths_json(args) -> str:
    # the object of _paths with no dict, list or int of it built: the labels k, inf and k' need no escape;
    # limit_paths checks the depth before the table is built, and its iterator drops the paths once read
    paths = iter(stages.limit_paths(stages.Scheme(args.scheme), args.depth))
    text = _label_texts(args.depth)
    rows = ",".join(f'{{"entries":[{",".join(map(text, p.entries))}],"label":"{p.label}"}}' for p in paths)
    return f'{{"scheme":"{args.scheme}","depth":{args.depth},"paths":[{rows}]}}'


def _limit(args) -> dict:
    w = stages.limit_cpo(stages.Scheme(args.scheme), args.depth)
    return {"scheme": args.scheme, "depth": args.depth, "order_type": str(w)}


def _limit_text(obj, args) -> str:
    return f"{obj['scheme']}: {obj['order_type']}"


def _diagram(args) -> dict:
    return {"scheme": args.scheme, "depth": args.depth,
            "dot": stages.diagram_dot(stages.Scheme(args.scheme), args.depth)}


def _diagram_text(obj, args) -> str:
    # the dot text ends in its own newline, so the verb registers end="": a copy without it would be d^3 bytes
    return obj["dot"]


def _diagram_json(args) -> str:
    # the object of _diagram, its dot text built with the escaped quote and line end of a JSON string
    dot = stages.diagram_dot(stages.Scheme(args.scheme), args.depth, '\\"', "\\n")
    return f'{{"scheme":"{args.scheme}","depth":{args.depth},"dot":"{dot}"}}'


# the table has about 2w rows of 2w bits and a label per column, O(w^2) bytes: at
# w = 1000, 1.5 MB for omega in 0.06 s, 4.1 MB for v in 0.08 s, and 7.1 MB in 0.11 s
# for lambda_hat_prime, whose column labels are pair literals, each from a fresh
# process, of which the table takes 8, 13 and 18 ms (2-vCPU Xeon, Python 3.11)
MAX_TABLE_WINDOW = 1000


def _funcspace_table(c, space, window: int):
    """Rows are the space's windowed segments, columns the base window."""
    words.check_range("window", window, 0, MAX_TABLE_WINDOW)
    columns = c.window_labels(window)
    rows = space.rows(window)
    # a space of the base's own word has the base's window, so its rows take the column labels
    labels = [f"psi_{label}" for label in columns] if space.word == c.word else [str(s) for s, _ in rows]
    # an open segment is an up-set, so a row with cut k is k 0s then 1s: one slice of a staircase
    n = len(columns)
    staircase = "0" * n + "1" * n
    return columns, [{"row": r, "bits": staircase[n - k:2 * n - k]} for r, (_, k) in zip(labels, rows)]


def _funcspace(args) -> dict:
    if bool(args.cpo) == bool(args.word):
        raise BadLiteral("give --cpo or --word, not both" if args.cpo else "need --cpo or --word")
    c = catalog.named_cpo(args.cpo) if args.cpo else None
    word = words.parse_word(args.word) if c is None else c.word
    base_name = str(word) if c is None else c.name.value
    report = funcspace.self_iso(word)
    obj = {
        "base": base_name,
        "order_type": str(report.space.word),
        "self_isomorphic": report.is_iso,
        "reason": report.reason,
        "notes": list(report.notes),
    }
    if args.table:
        if c is None:
            raise BadLiteral("--table needs a catalogued --cpo for its labels")
        obj["columns"], obj["rows"] = _funcspace_table(c, report.space, args.window)
    return obj


def _funcspace_text(obj, args) -> str:
    verdict = "yes" if obj["self_isomorphic"] else f"no ({obj['reason']})"
    lines = [f"{obj['base']}: function space {obj['order_type']}; isomorphic to base: {verdict}"]
    lines.extend(f"note: {n}" for n in obj["notes"])
    if "rows" in obj:
        width = max(len(r["row"]) for r in obj["rows"])
        lines.append("columns: " + " ".join(obj["columns"]))
        lines.extend(f"{r['row']:<{width}} {r['bits']}" for r in obj["rows"])
    return "\n".join(lines)


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


# -- parser ----------------------------------------------------------------

# in the order of the top-level help
VERBS = ("cpo", "normalize", "iso", "compare", "neighbors", "stage", "funcs", "mu", "ep", "paths", "limit",
         "diagram", "funcspace", "fpt", "string", "adjunction", "boundary", "decompose", "lcr", "replicate",
         "table8", "pipeline")


# the values of stages.Scheme and funcspace.Mu, which a test ties to them: a parser that read the
# enums would run those layers' bodies, a cold start's cost for every verb in the full parser
SCHEMES = ("standard", "alternative")
MUS = ("const0", "const1", "id")


def _add(group, name, compute=None, render=None, *required, dump=None, end="\n", **kwargs):
    """A parser that takes --format and the `required` string options.

    A verb or subverb also gets its compute and render functions, and may get
    a JSON writer `dump(args)`, which writes the text of json.dumps(compute(args)).
    `end` follows the rendered text, as print's `end`; JSON always ends in a newline.
    """
    p = group.add_parser(name, **kwargs)
    # given at a group and at its subverb, the later one wins
    p.add_argument("--format", choices=("text", "json", "dot"), default=argparse.SUPPRESS)
    for option in required:
        p.add_argument(option, required=True)
    if compute:
        p.set_defaults(compute=compute, render=render, dump=dump, end=end)
    return p


def _add_verb(subs, verb: str) -> None:
    """Attach one verb's parser to subs; a group (`string`, `lcr`) comes with all its subverbs.

    The choices of --scheme and --mu are written out (SCHEMES, MUS), so no parser
    runs a layer.
    """
    match verb:
        case "cpo":
            p = _add(subs, verb, _cpo, _cpo_text, "--cpo", help="describe a catalogued order")
            p.add_argument("--window", type=int, default=20)
        case "normalize":
            _add(subs, verb, _normalize, _normalize_text, "--word", help="normal form of an order word")
        case "iso":
            _add(subs, verb, _iso, _iso_text, "--a", "--b", help="isomorphism verdict for two orders")
        case "compare":
            _add(subs, verb, _compare, _compare_text, "--cpo", "--x", "--y", help="order two elements")
        case "neighbors":
            _add(subs, verb, _neighbors, _neighbors_text, "--cpo", "--x", help="immediate neighbors of an element")
        case "stage":
            p = _add(subs, verb, _stage, _stage_text, help="the finite stage of monotone words")
            p.add_argument("--n", type=int, required=True)
        case "funcs":
            p = _add(subs, verb, _funcs, _funcs_text, help="monotone maps from an m-chain into 2")
            p.add_argument("--m", type=int, required=True)
        case "mu":
            p = _add(subs, verb, _mu, _mu_text, help="continuity of a candidate map 2 -> 2")
            p.add_argument("--map", required=True, help="two bits: f(0)f(1)")
        case "ep":
            p = _add(subs, verb, _ep, _ep_text, help="embedding/projection pair between stages")
            p.add_argument("--scheme", choices=SCHEMES, default="standard")
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--check", action="store_true")
        case "paths" | "limit" | "diagram":
            compute, render, dump, depth, help = {
                "paths": (_paths, _paths_text, _paths_json, 10, "projection-consistent label paths"),
                "limit": (_limit, _limit_text, None, 12, "order type of the stage limit"),
                "diagram": (_diagram, _diagram_text, _diagram_json, 5, "stage diagram in dot form"),
            }[verb]
            p = _add(subs, verb, compute, render, dump=dump, end="" if verb == "diagram" else "\n", help=help)
            p.add_argument("--scheme", choices=SCHEMES, default="standard")
            p.add_argument("--depth", type=int, default=depth)
        case "funcspace":
            p = _add(subs, verb, _funcspace, _funcspace_text, help="space of monotone maps into 2")
            p.add_argument("--cpo")
            p.add_argument("--word")
            p.add_argument("--window", type=int, default=5)
            p.add_argument("--table", action="store_true")
        case "fpt":
            p = _add(subs, verb, _fpt, _fpt_text, "--cpo", help="fixed point of a continuous mu")
            p.add_argument("--mu", choices=MUS, required=True)
        case "string":
            group = _add(subs, verb, help="monotypic string operations").add_subparsers(dest="string_cmd",
                                                                                        required=True)
            _add(group, "realize", _string_realize, _string_realize_text, "--recipe")
            p = _add(group, "approx", _string_approx, _string_approx_text, "--recipe")
            p.add_argument("--n", type=int, required=True)
            p = _add(group, "limit", _string_limit, _string_limit_text, "--recipe")
            p.add_argument("--pos", type=int, required=True)
            p.add_argument("--depth", type=int, default=20)
            _add(group, "opp", _string_opp, _output_text, "--x")
            _add(group, "opp-pair", _string_opp_pair, _output_text, "--pair")
            _add(group, "lr", _string_lr, _output_text, "--recipe")
            _add(group, "lr-pair", _string_lr_pair, _string_lr_pair_text, "--a", "--b")
            _add(group, "classify", _string_classify, _string_classify_text, "--x")
        case "adjunction":
            p = _add(subs, verb, _adjunction, _adjunction_text, "--cpo", help="the three adjunction conditions")
            p.add_argument("--window", type=int, default=20)
        case "boundary":
            p = _add(subs, verb, _boundary, _boundary_text, "--cpo", help="boundary element of a glued order")
            p.add_argument("--window", type=int, default=20)
        case "decompose":
            _add(subs, verb, _decompose, _decompose_text, "--cpo", help="string family decompositions")
        case "lcr":
            group = _add(subs, verb, help="fold strings into the valley order").add_subparsers(dest="lcr_cmd",
                                                                                               required=True)
            _add(group, "forward", _lcr_forward, _lcr_forward_text, "--x")
            p = _add(group, "backward", _lcr_backward, _lcr_backward_text, "--pair")
            p.add_argument("--endpoint", choices=("L", "R"))
        case "replicate":
            p = _add(subs, verb, _replicate, _replicate_text, help="split the self-dual boundary")
            p.add_argument("--pair")
        case "table8":
            p = _add(subs, verb, _table8, _table8_text, help="summary matrix of the composite orders")
            p.add_argument("--window", type=int, default=20)
        case "pipeline":
            p = _add(subs, verb, _pipeline, _pipeline_text, help="dualization, replication, and folding, chained")
            p.add_argument("--window", type=int, default=20)


@functools.cache
def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of one verb, or of every verb when none is named.

    `run()` asks for the verb that argv names, so a cold start builds one
    verb's parser and runs only the layers that parser reads; any other
    argv (none, -h, an unknown verb) gets the parser of every verb.  A
    verb's parser parses and fails on that verb's argv with the same bytes
    as the full one.  Each is built once per process and reused, since
    building it is most of the cost of a cheap in-process `run()`.
    Callers must not modify it: `parse_args` returns a fresh namespace on
    every call, so nothing carries over from one parse to the next.
    """
    parser = argparse.ArgumentParser(
        prog="scottlab",
        description="countable chain-complete orders, their map spaces, and the fixed point construction",
    )
    parser.set_defaults(format="text")
    # the usage line above a top-level error lists every verb, also from one verb's parser; the full
    # parser leaves metavar unset, since its "invalid choice" error would name the argument by it
    subs = parser.add_subparsers(dest="verb", required=True,
                                 metavar=None if verb is None else "{" + ",".join(VERBS) + "}")
    for name in VERBS if verb is None else (verb,):
        _add_verb(subs, name)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and print the verb's object as text or JSON, the JSON from the verb's writer if it has one."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0]) if argv and argv[0] in VERBS else build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    end = "\n"
    try:
        if args.format != "json":
            text, end = args.render(args.compute(args), args), args.end
        elif args.dump is not None:
            text = args.dump(args)
        else:
            import json  # only here: neither a text answer nor a JSON writer loads it
            text = json.dumps(args.compute(args), ensure_ascii=False, separators=(",", ":"))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print(text, end=end)
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
