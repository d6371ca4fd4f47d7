"""Command line interface.

Every operation in the package is reachable from here.  Output is
deterministic: no timestamps, no environment-dependent content, and
the same invocation always produces the same bytes.  --format json
emits one compact JSON object per run; the schemas shipped in
scottlab/schemas describe each verb's object.

Exit codes: 0 for success, including negative mathematical verdicts
(a failed isomorphism or adjunction is a result, not an error); 2 for
unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import strings as st
from .adjunction import BOUNDARY_M, boundary_report, check_adjunction
from .catalog import chain_display, named_cpo
from .errors import BadLiteral, NotBoundary, NotIsomorphic, UnknownCpo
from .funcspace import Mu, fpt, indicator_row, mu_continuous, scott_opens, self_iso
from .replication import decompositions, lcr_backward, lcr_forward, pipeline, replicate, table8
from .stages import Scheme, check_ep_laws, diagram_dot, enumerate_monotone, ep_pair, limit_cpo, limit_paths, stage
from .words import compare, extremes, iso as word_iso, neighbors, normalize, parse_word, window_elems

# every input-shaped failure descends from ValueError; negative verdicts do not
USAGE_ERRORS = (ValueError,)


def _emit(args, text: str, obj) -> int:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
    else:
        print(text)
    return 0


def _word_or_cpo(token: str):
    """A catalogue name, or failing that an order-word literal."""
    try:
        c = named_cpo(token)
        return c.word, str(c.display_word)
    except UnknownCpo:
        w = parse_word(token)
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
    if not parts[1].strip().isdigit():
        raise BadLiteral(f"recipe index must be a number, got {parts[1]!r}")
    return st.SpecifiedString(k, int(parts[1]))


def _recipe_str(s: st.SpecifiedString) -> str:
    return f"{s.kind.value}:{s.index}"


# -- verb handlers ---------------------------------------------------------


def _cmd_cpo(args) -> int:
    c = named_cpo(args.cpo)
    bottom, top = extremes(c.word)
    obj = {
        "cpo": c.name.value,
        "order_type": str(c.display_word),
        "normal_type": str(c.word),
        "bottom": c.to_label(bottom) if bottom else None,
        "top": c.to_label(top) if top else None,
        "chain": chain_display(c, args.window),
    }
    text = (f"{c.name.value}: {c.display_word}"
            + (f" (normal form {c.word})" if c.word != c.display_word else "")
            + f"\nbottom: {obj['bottom'] or 'none'}  top: {obj['top'] or 'none'}\n{obj['chain']}")
    return _emit(args, text, obj)


def _cmd_normalize(args) -> int:
    w = parse_word(args.word)
    n = normalize(w)
    return _emit(args, str(n), {"input": str(w), "normal": str(n)})


def _cmd_iso(args) -> int:
    wa, da = _word_or_cpo(args.a)
    wb, db = _word_or_cpo(args.b)
    verdict = word_iso(wa, wb)
    text = f"{'isomorphic' if verdict else 'not isomorphic'}: {da} vs {db}"
    return _emit(args, text, {
        "a": da, "b": db, "isomorphic": verdict,
        "a_normal": str(normalize(wa)), "b_normal": str(normalize(wb)),
    })


def _cmd_compare(args) -> int:
    c = named_cpo(args.cpo)
    x = c.to_elem(args.x)
    y = c.to_elem(args.y)
    rel = compare(c.word, x, y).value
    return _emit(args, f"{c.to_label(x)} {rel} {c.to_label(y)}",
                 {"cpo": c.name.value, "x": c.to_label(x), "y": c.to_label(y), "relation": rel})


def _cmd_neighbors(args) -> int:
    c = named_cpo(args.cpo)
    x = c.to_elem(args.x)
    pred, succ = neighbors(c.word, x)
    pl = c.to_label(pred) if pred else None
    sl = c.to_label(succ) if succ else None
    return _emit(args, f"predecessor: {pl or 'none'}, successor: {sl or 'none'}",
                 {"cpo": c.name.value, "x": c.to_label(x), "predecessor": pl, "successor": sl})


def _cmd_stage(args) -> int:
    s = stage(args.n)
    text = " ".join(e or "λ" for e in s.elements)
    return _emit(args, text, {"n": s.n, "elements": list(s.elements)})


def _cmd_funcs(args) -> int:
    fs = enumerate_monotone(args.m)
    return _emit(args, " ".join(fs), {"m": args.m, "count": len(fs), "functions": list(fs)})


def _cmd_mu(args) -> int:
    bits = args.map.strip()
    if len(bits) != 2 or set(bits) - {"0", "1"}:
        raise BadLiteral(f"candidate must be two bits, got {args.map!r}")
    ok = mu_continuous((int(bits[0]), int(bits[1])))
    return _emit(args, "continuous" if ok else "not continuous (not monotone)",
                 {"candidate": bits, "continuous": ok})


def _cmd_ep(args) -> int:
    pair = ep_pair(Scheme(args.scheme), args.n)
    report = check_ep_laws(pair)
    lines = [
        "e: " + " ".join(f"{k}->{pair.e(k)}" for k in range(pair.n)),
        "p: " + " ".join(f"{k}->{pair.p(k)}" for k in range(pair.n + 1)),
    ]
    obj = {
        "scheme": pair.scheme.value, "n": pair.n,
        "e": list(pair.e.mapping), "p": list(pair.p.mapping),
        "laws": {
            "p_after_e_is_id": report.p_after_e_is_id,
            "e_after_p_below_id": report.e_after_p_below_id,
            "e_monotone": report.e_monotone,
            "p_monotone": report.p_monotone,
            "ok": report.ok,
            "witness": report.witness,
        },
    }
    if args.check:
        lines.append(f"laws: {'ok' if report.ok else 'VIOLATED (' + str(report.witness) + ')'}")
    return _emit(args, "\n".join(lines), obj)


def _cmd_paths(args) -> int:
    paths = limit_paths(Scheme(args.scheme), args.depth)
    lines = [",".join(str(k) for k in p.entries) + f" <-> {p.label}" for p in paths]
    obj = {
        "scheme": args.scheme, "depth": args.depth,
        "paths": [{"entries": list(p.entries), "label": p.label} for p in paths],
    }
    return _emit(args, "\n".join(lines), obj)


def _cmd_limit(args) -> int:
    w = limit_cpo(Scheme(args.scheme), args.depth)
    return _emit(args, f"{args.scheme}: {w}",
                 {"scheme": args.scheme, "depth": args.depth, "order_type": str(w)})


def _cmd_diagram(args) -> int:
    dot = diagram_dot(Scheme(args.scheme), args.depth)
    if getattr(args, "format", "dot") == "json":
        print(json.dumps({"scheme": args.scheme, "depth": args.depth, "dot": dot},
                         ensure_ascii=False, separators=(",", ":")))
    else:
        sys.stdout.write(dot)
    return 0


def _funcspace_table(c, space, window: int):
    """Rows are the space's windowed segments, columns the base window."""
    cols = window_elems(c.word, window)
    rows = window_elems(space.word, window)
    aligned = space.word == c.word
    out = []
    for r in rows:
        seg = space.segment_at(r)
        label = f"psi_{c.to_label(r)}" if aligned else str(seg)
        out.append({"row": label, "bits": indicator_row(c.word, seg, cols)})
    return [c.to_label(x) for x in cols], out


def _cmd_funcspace(args) -> int:
    if args.cpo:
        c = named_cpo(args.cpo)
        base_name = c.name.value
        word = c.word
    else:
        if not args.word:
            raise BadLiteral("need --cpo or --word")
        word = parse_word(args.word)
        base_name = str(word)
        c = None
    report = self_iso(word)
    space = scott_opens(word)
    obj = {
        "base": base_name,
        "order_type": str(space.word),
        "self_isomorphic": report.is_iso,
        "reason": report.reason,
        "notes": list(report.notes),
    }
    lines = [f"{base_name}: function space {space.word}; isomorphic to base: "
             + ("yes" if report.is_iso else f"no ({report.reason})")]
    lines.extend(f"note: {n}" for n in report.notes)
    if args.table:
        if c is None:
            raise BadLiteral("--table needs a catalogued --cpo for its labels")
        columns, rows = _funcspace_table(c, space, args.window)
        obj["columns"] = columns
        obj["rows"] = rows
        width = max(len(r["row"]) for r in rows)
        lines.append("columns: " + " ".join(columns))
        lines.extend(f"{r['row']:<{width}} {r['bits']}" for r in rows)
    return _emit(args, "\n".join(lines), obj)


def _cmd_fpt(args) -> int:
    c = named_cpo(args.cpo)
    try:
        r = fpt(c, Mu(args.mu))
    except NotIsomorphic as e:
        text = f"fixed point construction not applicable: {e}"
        return _emit(args, text, {"cpo": c.name.value, "mu": args.mu,
                                  "applicable": False, "reason": str(e)})
    return _emit(args, f"g = {r.g_label}, preimage = {r.preimage_label}, value = {r.value}",
                 {"g": r.g_label, "preimage": r.preimage_label, "value": r.value})


def _cmd_string(args) -> int:
    sub = args.string_cmd
    if sub == "realize":
        s = _parse_recipe(args.recipe)
        x = st.realize(s)
        return _emit(args, str(x), {"recipe": _recipe_str(s), "string": str(x),
                                    "compact": st.render_compact(x)})
    if sub == "approx":
        s = _parse_recipe(args.recipe)
        wordn = st.finite_approx(s.kind, s.index, args.n)
        return _emit(args, wordn or "λ",
                     {"recipe": _recipe_str(s), "n": args.n, "word": wordn})
    if sub == "limit":
        s = _parse_recipe(args.recipe)
        stable = st.limit_check(s.kind, s.index, args.pos, args.depth)
        bit = st.bit_at(st.realize(s), args.pos)
        text = f"{'stable' if stable else 'UNSTABLE'}, bit {bit}"
        return _emit(args, text, {"recipe": _recipe_str(s), "pos": args.pos,
                                  "depth": args.depth, "stable": stable, "bit": bit})
    if sub == "opp":
        x = st.parse_literal(args.x)
        return _emit(args, str(st.opp(x)), {"input": str(x), "output": str(st.opp(x))})
    if sub == "opp-pair":
        p = st.parse_pair_literal(args.pair)
        q = st.opp_pair(p)
        return _emit(args, str(q), {"input": str(p), "output": str(q)})
    if sub == "lr":
        s = _parse_recipe(args.recipe)
        t = st.lr(s)
        return _emit(args, _recipe_str(t),
                     {"input": _recipe_str(s), "output": _recipe_str(t),
                      "input_string": str(st.realize(s)), "output_string": str(st.realize(t))})
    if sub == "lr-pair":
        a, b = _parse_recipe(args.a), _parse_recipe(args.b)
        ta, tb = st.lr_pair((a, b))
        return _emit(args, f"{_recipe_str(ta)} {_recipe_str(tb)}",
                     {"input": [_recipe_str(a), _recipe_str(b)],
                      "output": [_recipe_str(ta), _recipe_str(tb)]})
    if sub == "classify":
        x = st.parse_literal(args.x)
        c = st.classify(x)
        text = f"{c.family.value}, index {c.index if c.index is not None else 'indeterminate'}"
        return _emit(args, text, {"string": str(x), "family": c.family.value, "index": c.index})
    raise BadLiteral(f"unknown string operation {sub!r}")


def _cmd_adjunction(args) -> int:
    r = check_adjunction(args.cpo, args.window)
    lines = [f"{r.which.value}: halves {r.lower} / {r.upper}, window {r.window}"]
    for c in r.conditions:
        lines.append(f"condition {c.index}: " + ("pass" if c.passed else f"FAIL (witness {c.witness})"))
    lines.append("adjunction: " + ("yes" if r.passed else "no"))
    obj = {
        "cpo": r.which.value, "lower": r.lower, "upper": r.upper, "window": r.window,
        "conditions": [{"index": c.index, "passed": c.passed, "witness": c.witness}
                       for c in r.conditions],
        "passed": r.passed,
    }
    return _emit(args, "\n".join(lines), obj)


def _cmd_boundary(args) -> int:
    b = boundary_report(args.cpo, args.window)
    lines = [
        f"{b.which.value}: boundary {b.boundary_label} = {b.boundary}",
        f"self-dual: {'yes' if b.self_dual else 'no'}",
        f"predecessor: {b.predecessor or 'none'}, successor: {b.successor or 'none'}",
        f"in lower half: {'yes' if b.in_lower else 'no'}, in upper half: {'yes' if b.in_upper else 'no'}",
        f"top of lower half: {'yes' if b.join_of_lower else 'no'}, "
        f"bottom of upper half: {'yes' if b.meet_of_upper else 'no'}",
    ]
    obj = {
        "cpo": b.which.value, "boundary": str(b.boundary), "label": b.boundary_label,
        "self_dual": b.self_dual, "predecessor": b.predecessor, "successor": b.successor,
        "in_lower": b.in_lower, "in_upper": b.in_upper,
        "join_of_lower": b.join_of_lower, "meet_of_upper": b.meet_of_upper,
        "window": b.window,
    }
    return _emit(args, "\n".join(lines), obj)


def _cmd_decompose(args) -> int:
    ds = decompositions(args.cpo)
    lines = []
    items = []
    for d in ds:
        parts = " + ".join(k.value for k in d.parts)
        if d.natural:
            lines.append(f"{parts} via {d.name} (boundary -> {d.boundary_image})")
        else:
            w = d.witness
            lines.append(f"{parts}: no natural pairing "
                         f"({w.element} claimed by {w.lower_claim} and by {w.upper_claim})")
        items.append({
            "parts": [k.value for k in d.parts],
            "natural": d.natural,
            "name": d.name,
            "boundary_image": str(d.boundary_image) if d.boundary_image else None,
            "witness": None if d.witness is None else {
                "element": str(d.witness.element),
                "lower_claim": str(d.witness.lower_claim),
                "upper_claim": str(d.witness.upper_claim),
            },
        })
    return _emit(args, "\n".join(lines), {"cpo": named_cpo(args.cpo).name.value,
                                          "decompositions": items})


def _cmd_lcr(args) -> int:
    if args.lcr_cmd == "forward":
        img = lcr_forward(st.parse_literal(args.x))
        text = (f"{img.source} ({img.source_label}) -> {img.image} ({img.label}) in {img.half}"
                + (" [boundary collision]" if img.collision else ""))
        return _emit(args, text, {
            "source": str(img.source), "source_label": img.source_label,
            "image": str(img.image), "half": img.half, "label": img.label,
            "collision": img.collision,
        })
    pair = st.parse_pair_literal(args.pair)
    endpoint = st.Orientation[args.endpoint] if args.endpoint else None
    out = lcr_backward(pair, endpoint)
    return _emit(args, str(out), {"pair": str(pair), "endpoint": args.endpoint,
                                  "preimage": str(out)})


def _cmd_replicate(args) -> int:
    pair = st.parse_pair_literal(args.pair) if args.pair else BOUNDARY_M
    try:
        r = replicate(pair)
    except NotBoundary as e:
        return _emit(args, f"not replicable: {e}",
                     {"source": str(pair), "replicable": False, "reason": str(e)})
    text = (f"{r.source} -> intent {r.intent} ({r.intent_label}), "
            f"extent {r.extent} ({r.extent_label}); "
            f"mutual immediate neighbors: {'yes' if r.mutual_neighbors else 'no'}")
    return _emit(args, text, {
        "source": str(r.source),
        "intent": str(r.intent), "intent_label": r.intent_label,
        "extent": str(r.extent), "extent_label": r.extent_label,
        "mutual_neighbors": r.mutual_neighbors,
    })


def _table8_rows(rows):
    return [
        {"cpo": r.cpo, "adjunction": r.adjunction, "fixed_point": r.fixed_point,
         "boundary": r.boundary, "order_type": r.order_type}
        for r in rows
    ]


def _table8_text(rows) -> str:
    headers = ["cpo", "adjunction", "fixed point", "boundary", "order type"]
    keys = ["cpo", "adjunction", "fixed_point", "boundary", "order_type"]
    widths = [max(len(h), *(len(r[k]) for r in rows)) for h, k in zip(headers, keys)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers)]
    lines.extend(fmt([r[k] for k in keys]) for r in rows)
    return "\n".join(lines)


def _cmd_table8(args) -> int:
    rows = _table8_rows(table8(args.window))
    return _emit(args, _table8_text(rows), {"window": args.window, "rows": rows})


def _cmd_pipeline(args) -> int:
    p = pipeline(args.window)
    d, rep, l = p.dualization, p.replication, p.lcr
    lines = [
        f"dualization: {d.source} -> {d.target}  isomorphic: "
        f"{'yes' if d.isomorphic else 'no'}  ({d.order_type})",
        f"replication: {rep.source} -> {rep.target}  m -> {rep.intent_label} / {rep.extent_label}"
        f"  ({rep.source_type} -> {rep.target_type})  mutual neighbors: "
        f"{'yes' if rep.mutual_neighbors else 'no'}",
        f"lcr: {l.source} -> {l.target}  round trip: {'ok' if l.round_trip_ok else 'BROKEN'}"
        f"  collision at {l.collision_label} from {l.collision_preimages[0]}"
        f" and {l.collision_preimages[1]}  isomorphic: {'yes' if l.isomorphic else 'no'}",
        "",
        _table8_text(_table8_rows(p.matrix)),
    ]
    obj = {
        "dualization": {"source": d.source, "target": d.target,
                        "isomorphic": d.isomorphic, "order_type": d.order_type},
        "replication": {"source": rep.source, "target": rep.target,
                        "intent_label": rep.intent_label, "extent_label": rep.extent_label,
                        "source_type": rep.source_type, "target_type": rep.target_type,
                        "mutual_neighbors": rep.mutual_neighbors},
        "lcr": {"source": l.source, "target": l.target, "round_trip_ok": l.round_trip_ok,
                "collision_label": l.collision_label,
                "collision_preimages": list(l.collision_preimages),
                "isomorphic": l.isomorphic},
        "table8": _table8_rows(p.matrix),
    }
    return _emit(args, "\n".join(lines), obj)


# -- parser ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every verb, built once per process.

    Building it is most of the cost of a cheap in-process `run()`, so
    the first call's parser is kept and reused.  Callers must not
    modify it: `parse_args` returns a fresh namespace on every call, so
    nothing carries over from one parse to the next.
    """
    parser = argparse.ArgumentParser(
        prog="scottlab",
        description="countable chain-complete orders, their map spaces, and the fixed point construction",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        return p

    p = add("cpo", _cmd_cpo, help="describe a catalogued order")
    p.add_argument("--cpo", required=True)
    p.add_argument("--window", type=int, default=20)

    p = add("normalize", _cmd_normalize, help="normal form of an order word")
    p.add_argument("--word", required=True)

    p = add("iso", _cmd_iso, help="isomorphism verdict for two orders")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("compare", _cmd_compare, help="order two elements")
    p.add_argument("--cpo", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("neighbors", _cmd_neighbors, help="immediate neighbors of an element")
    p.add_argument("--cpo", required=True)
    p.add_argument("--x", required=True)

    p = add("stage", _cmd_stage, help="the finite stage of monotone words")
    p.add_argument("--n", type=int, required=True)

    p = add("funcs", _cmd_funcs, help="monotone maps from an m-chain into 2")
    p.add_argument("--m", type=int, required=True)

    p = add("mu", _cmd_mu, help="continuity of a candidate map 2 -> 2")
    p.add_argument("--map", required=True, help="two bits: f(0)f(1)")

    p = add("ep", _cmd_ep, help="embedding/projection pair between stages")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="standard")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true")

    p = add("paths", _cmd_paths, help="projection-consistent label paths")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="standard")
    p.add_argument("--depth", type=int, default=10)

    p = add("limit", _cmd_limit, help="order type of the stage limit")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="standard")
    p.add_argument("--depth", type=int, default=12)

    p = add("diagram", _cmd_diagram, help="stage diagram in dot form")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="standard")
    p.add_argument("--depth", type=int, default=5)

    p = add("funcspace", _cmd_funcspace, help="space of monotone maps into 2")
    p.add_argument("--cpo")
    p.add_argument("--word")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--table", action="store_true")

    p = add("fpt", _cmd_fpt, help="fixed point of a continuous mu")
    p.add_argument("--cpo", required=True)
    p.add_argument("--mu", choices=[m.value for m in Mu], required=True)

    p = add("string", _cmd_string, help="monotypic string operations")
    ssubs = p.add_subparsers(dest="string_cmd", required=True)

    def sadd(name):
        sp = ssubs.add_parser(name)
        sp.set_defaults(fn=_cmd_string)
        sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
        return sp

    sp = sadd("realize"); sp.add_argument("--recipe", required=True)
    sp = sadd("approx"); sp.add_argument("--recipe", required=True); sp.add_argument("--n", type=int, required=True)
    sp = sadd("limit"); sp.add_argument("--recipe", required=True)
    sp.add_argument("--pos", type=int, required=True); sp.add_argument("--depth", type=int, default=20)
    sp = sadd("opp"); sp.add_argument("--x", required=True)
    sp = sadd("opp-pair"); sp.add_argument("--pair", required=True)
    sp = sadd("lr"); sp.add_argument("--recipe", required=True)
    sp = sadd("lr-pair"); sp.add_argument("--a", required=True); sp.add_argument("--b", required=True)
    sp = sadd("classify"); sp.add_argument("--x", required=True)

    p = add("adjunction", _cmd_adjunction, help="the three adjunction conditions")
    p.add_argument("--cpo", required=True)
    p.add_argument("--window", type=int, default=20)

    p = add("boundary", _cmd_boundary, help="boundary element of a glued order")
    p.add_argument("--cpo", required=True)
    p.add_argument("--window", type=int, default=20)

    p = add("decompose", _cmd_decompose, help="string family decompositions")
    p.add_argument("--cpo", required=True)

    p = add("lcr", _cmd_lcr, help="fold strings into the valley order")
    lsubs = p.add_subparsers(dest="lcr_cmd", required=True)
    lp = lsubs.add_parser("forward")
    lp.set_defaults(fn=_cmd_lcr)
    lp.add_argument("--format", choices=("text", "json", "dot"), default="text")
    lp.add_argument("--x", required=True)
    lp = lsubs.add_parser("backward")
    lp.set_defaults(fn=_cmd_lcr)
    lp.add_argument("--format", choices=("text", "json", "dot"), default="text")
    lp.add_argument("--pair", required=True)
    lp.add_argument("--endpoint", choices=("L", "R"))

    p = add("replicate", _cmd_replicate, help="split the self-dual boundary")
    p.add_argument("--pair")

    p = add("table8", _cmd_table8, help="summary matrix of the composite orders")
    p.add_argument("--window", type=int, default=20)

    p = add("pipeline", _cmd_pipeline, help="dualization, replication, and folding, chained")
    p.add_argument("--window", type=int, default=20)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
