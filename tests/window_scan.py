"""The window scans that once decided adjunction, boundary, Table 8 and pipeline.

They walk every count up to the window, in O(w^2) pairs for condition
(3), and serve as the oracle for the decided verdicts: for every window,
the decided report must equal the scan's.  `corner_adjunction` is the
corner scan that came between the two: it compares (3) at every pair of
counts within settle + 2 of a layer's window ends (`corners`).

The helpers the scans and the tests share live here too, since the
package no longer needs them: `half_window` (a half's elements up to a
count), `spelled` (a half's element at a layer and count), `corners`,
`all_names`, `BOUNDARY_M_PRIME`, `project` (the string a splitting sends
a pair to) and `canonical_iso` (the positional isomorphism, or
NotIsomorphic).
"""

import json
import re
from pathlib import Path
from typing import Iterator

from scottlab import strings as st
from scottlab.adjunction import (
    AdjunctionReport,
    BoundaryReport,
    ConditionReport,
    build_pair_cpo,
    _check_shapes,
    opp_element,
)
from scottlab.catalog import CpoName, Half, Layer, NamedCpo, ends_of, named_cpo, opp_ends, spell, stack_key
from scottlab.errors import NotBoundary, NotIsomorphic, UnknownCpo
from scottlab.funcspace import SelfIsoReport, self_iso
from scottlab.replication import (
    BOUNDARY_M,
    Decomposition,
    DualizationEdge,
    LcrEdge,
    PipelineReport,
    ReplicationEdge,
    Table8Row,
    lcr_backward,
    lcr_forward,
    replicate,
)
from scottlab.words import check_window, iso, neighbors, rank_key, window_offsets

COMPOSITE = (CpoName.LAMBDA, CpoName.LAMBDA_PRIME, CpoName.LAMBDA_HAT_PRIME, CpoName.V)
GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = {**json.loads((GOLDEN / "cli_outputs.json").read_text()),
           **json.loads((GOLDEN / "cli_verbs.json").read_text())}


BOUNDARY_M_PRIME = spell(build_pair_cpo(CpoName.V).boundary.ends)


def all_names() -> list[str]:
    return [cn.value for cn in CpoName]


def spelled(half: Half, layer: Layer, c: int):
    """The half's element at (layer, c), spelled; a pair takes its pinned end from the half's own left or right."""
    s = layer.string(c)
    if half.right is not None:
        return st.PairString(s, half.right)
    return s if half.left is None else st.PairString(half.left, s)


def half_window(half: Half, n: int) -> list:
    """The half's elements up to count n, spelled, ascending, including the extreme strings."""
    return [spelled(half, layer, c) for layer in half.layers for c in window_offsets(layer.atom, n)]


def corners(layer: Layer, n: int, reach: int) -> range | list[int]:
    """The layer's counts up to n in window order, its window offsets, within `reach` of either end."""
    counts = window_offsets(layer.atom, n)
    # sliced, not measured: len() of a range fails from 2**63 counts on
    return [*counts[:reach + 1], *counts[-reach - 1:]] if counts[reach + 1:-reach - 1] else counts


def project(d: Decomposition, p: st.PairString) -> st.MonotypicString:
    """The string a pair element corresponds to under this splitting."""
    if not d.natural:
        raise NotBoundary("the valley order has no natural splitting to project along")
    return d.boundary_image if p == BOUNDARY_M else named_cpo(CpoName.LAMBDA_HAT_PRIME).held(ends_of(p))


def canonical_iso(cpo: NamedCpo) -> SelfIsoReport:
    """Positional isomorphism between a named order and its map space."""
    report = self_iso(cpo.word)
    if not report.is_iso:
        raise NotIsomorphic(f"{cpo.name.value}: {report.reason}")
    return report


def golden_at_window(argv: list[str], fmt: str, window: int) -> str:
    """The golden output of argv, run at the default window 20, with the window it echoes set to `window`."""
    out = OUTPUTS[" ".join(argv)][fmt]
    out = out.replace(", window 20\n", f", window {window}\n")
    return re.sub(r'"window":20(?=[,}])', f'"window":{window}', out)


def pinned(half: Half) -> bool:
    return half.left is not None or half.right is not None


def held_string(half: Half, x) -> st.MonotypicString | None:
    """The string x holds if it is shaped as the half's elements: a pair with the half's pinned string, or a string."""
    if not pinned(half):
        return x if isinstance(x, st.MonotypicString) else None
    if not isinstance(x, st.PairString):
        return None
    if half.left is not None:
        return x.right if x.left == half.left else None
    return x.left if x.right == half.right else None


def holds(half: Half, x) -> bool:
    """The string-level membership rule: x is shaped as the half's elements and its string's family is a layer's."""
    s = held_string(half, x)
    return s is not None and st.classify(s).family in {layer.family for layer in half.layers}


def stack_rank(s: st.MonotypicString) -> tuple[int, int]:
    """Position of a string in the whole stack."""
    return stack_key(*ends_of(s)[1])


def scan_adjunction(cpo: NamedCpo, window: int) -> AdjunctionReport:
    """The three conditions, over every pair of the halves' windows."""
    a_half, b_half = cpo.halves
    _check_shapes(cpo)
    xs = half_window(a_half, window)
    ys = half_window(b_half, window)
    oxs = [opp_element(x) for x in xs]
    oys = [opp_element(y) for y in ys]

    c1 = next((x for x, ox in zip(xs, oxs) if not holds(b_half, ox)), None)
    c2 = next((y for y, oy in zip(ys, oys) if not holds(a_half, oy)), None)
    position = (lambda x: rank_key(cpo.word, cpo.element(ends_of(x)))) if pinned(a_half) else stack_rank
    px = [(position(x), position(ox)) for x, ox in zip(xs, oxs)]
    py = [(position(y), position(oy)) for y, oy in zip(ys, oys)]
    c3 = next((f"{x}, {y}" for x, (x_at, ox_at) in zip(xs, px) for y, (y_at, oy_at) in zip(ys, py)
               if (x_at <= oy_at) != (y_at <= ox_at)), None)
    conds = (
        ConditionReport(1, c1 is None, str(c1) if c1 is not None else None),
        ConditionReport(2, c2 is None, str(c2) if c2 is not None else None),
        ConditionReport(3, c3 is None, c3),
    )
    return AdjunctionReport(cpo.name, a_half.name, b_half.name, window, conds,
                            all(c.passed for c in conds))


def corner_first_outside(cpo: NamedCpo, i: int, window: int) -> str | None:
    """The first element of half i's window whose dual the other half does not hold, spelled, per layer."""
    for layer in cpo.halves[i].layers:
        c = corners(layer, window, 0)[0]
        if cpo.free(1 - i, opp_ends(cpo.ends_at(i, layer, c))) is None:
            return str(spelled(cpo.halves[i], layer, c))
    return None


def corner_keys(cpo: NamedCpo, i: int, window: int) -> Iterator[tuple[Layer, int, tuple, tuple]]:
    """Half i's corners in window order: (layer, count, the element's sort key, its dual's).

    Keys are taken in the order, or for strings in the whole stack.  From `settle` on, an element and its
    dual each lie in one run whatever the count, so a layer's runs are located below it and at its first count.
    """
    settle = cpo.settle
    place, key = ((cpo.locate, lambda run, c: rank_key(cpo.word, cpo._elem(run, c))) if cpo.pins[0][1] is not None
                  else ((lambda ends: ends[1]), stack_key))
    for layer in cpo.halves[i].layers:
        runs = None
        for c in corners(layer, window, settle + 2):
            if c < settle or runs is None:
                x = cpo.ends_at(i, layer, c)
                (run, cx), (orun, co) = place(x), place(opp_ends(x))
                runs = (run, orun) if c >= settle else None
            else:
                (run, orun), cx, co = runs, c, c
            yield layer, c, key(run, cx), key(orun, co)


def corner_adjunction(cpo: NamedCpo, window: int) -> AdjunctionReport:
    """The three conditions, with (3) compared at every pair of corners, the counts within settle + 2 of a
    layer's window ends: a failing pair farther in keeps failing when moved one count towards the scan's start."""
    check_window(window)
    if len(cpo.halves) != 2 or cpo.bare:
        raise UnknownCpo(f"no half pairing attached to {cpo.name.value}")
    _check_shapes(cpo)
    xs, ys = list(corner_keys(cpo, 0, window)), list(corner_keys(cpo, 1, window))
    c3 = next((f"{spelled(cpo.halves[0], lx, cx)}, {spelled(cpo.halves[1], ly, cy)}"
               for lx, cx, x_at, ox_at in xs for ly, cy, y_at, oy_at in ys
               if (x_at <= oy_at) != (y_at <= ox_at)), None)
    conds = tuple(ConditionReport(k, c is None, c) for k, c in enumerate(
        (corner_first_outside(cpo, 0, window), corner_first_outside(cpo, 1, window), c3), 1))
    return AdjunctionReport(cpo.name, cpo.halves[0].name, cpo.halves[1].name, window, conds,
                            all(c.passed for c in conds))


def scan_boundary(which, window: int) -> BoundaryReport:
    """The boundary report, with the join and meet checked on every window element."""
    cpo = build_pair_cpo(which)
    lower, upper = cpo.halves
    b = spell(cpo.boundary.ends)
    belem = cpo.element(cpo.boundary.ends)
    pred, succ = neighbors(cpo.word, belem)
    lower_win = half_window(lower, window)
    upper_win = half_window(upper, window)
    # a window's end is b only if its half pins b's pinned string, so the ranks below exist
    join = lower_win[-1] == b and all(stack_rank(held_string(lower, x)) <= stack_rank(held_string(lower, b))
                                      for x in lower_win)
    meet = upper_win[0] == b and all(stack_rank(held_string(upper, b)) <= stack_rank(held_string(upper, y))
                                     for y in upper_win)
    return BoundaryReport(
        cpo.name, b, cpo.to_label(belem), opp_element(b) == b,
        cpo.to_label(pred) if pred is not None else None,
        cpo.to_label(succ) if succ is not None else None,
        holds(lower, b), holds(upper, b), join, meet, window,
    )


def scan_table8(window: int) -> tuple[Table8Row, ...]:
    rows = []
    for name in COMPOSITE:
        cpo = named_cpo(name)
        adj = "yes" if scan_adjunction(cpo, window).passed else "no"
        fp = "applicable" if self_iso(cpo.word).is_iso else "not applicable"
        try:
            glued = build_pair_cpo(name)
            boundary = glued.to_label(glued.element(glued.boundary.ends))
        except UnknownCpo:
            boundary = "n/a"
        rows.append(Table8Row(name.value, adj, fp, boundary, str(cpo.display_word)))
    return tuple(rows)


def scan_pipeline(window: int) -> PipelineReport:
    """The pipeline, with the scanned fold edge and Table 8."""
    lam = named_cpo(CpoName.LAMBDA)
    hat = named_cpo(CpoName.LAMBDA_HAT_PRIME)
    lam_prime = named_cpo(CpoName.LAMBDA_PRIME)

    dual = DualizationEdge(lam.name.value, hat.name.value, iso(lam.word, hat.word), str(hat.display_word))

    rep = replicate(BOUNDARY_M)
    rep_edge = ReplicationEdge(
        hat.name.value, lam_prime.name.value, rep.intent_label, rep.extent_label,
        str(hat.display_word), str(lam_prime.display_word), rep.mutual_neighbors,
    )
    return PipelineReport(dual, rep_edge, scan_lcr(window), scan_table8(window))


def scan_lcr(window: int) -> LcrEdge:
    """The pipeline's fold edge, with the lcr round trip and collisions probed on every window element."""
    lam_prime = named_cpo(CpoName.LAMBDA_PRIME)
    v = named_cpo(CpoName.V)
    probe = [x for half in lam_prime.halves for x in half_window(half, window)]
    ok = True
    collisions = []
    for x in probe:
        img = lcr_forward(x)
        endpoint = st.Orientation.R if x.orientation is st.Orientation.R else st.Orientation.L
        if lcr_backward(img.image, endpoint) != x:
            ok = False
        if img.collision:
            collisions.append(x)
    return LcrEdge(
        lam_prime.name.value, v.name.value, ok and len(collisions) == 2,
        v.to_label(v.element(v.boundary.ends)), tuple(str(c) for c in collisions),
        iso(lam_prime.word, v.word),
    )
