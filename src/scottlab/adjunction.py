"""Dual halves, the adjunction conditions, and boundary elements.

The four composite orders each split into a lower and an upper half
exchanged by the dual map opp.  A pairing of halves (A, B) satisfies
the adjunction when

  (1) opp sends A into B,
  (2) opp sends B into A,
  (3) for x in A and y in B:  x <= opp(y)  iff  opp(x) >= y,

(3) being the law of a Galois connection (Ore 1944; Erné, Koslowski,
Melton & Strecker 1993).  The checks run in the ambient composite
order, so a failure of (1) or (2) does not prevent (3) from being
evaluated.

Each verdict is decided for the whole order, whatever the window, in
the catalogue's layer coordinates, (layer, count) per string.  opp turns
the stack upside down, keeping counts, and moves a pair's pinned end to
the other side, so whether the other half holds an element's dual
depends only on its layer and the pins, and the catalogue's one
membership rule, NamedCpo.free, decides (1) and (2) once per layer.  From the order's `settle` count on, an element and its dual each
lie in one run whatever the count c, at the key (block, ±(first +
step·(c − start))), so each side of (3) depends only on the layer pair
and on whether c < d, c = d or c > d.  A failing count farther than
settle + 2 from both ends of its layer's window keeps failing when it
(and its partner in (3)) moves one count towards the start of the scan,
so (3) compares the keys at the counts within settle + 2 of a layer's
ends, its corners.  Verdicts and witnesses are an ascending scan's.
Elements are their ends here, and a string is built only to spell a
witness or a report field: a witness in an omega* layer, where the scan
starts at the window's count w, spells w out, as 0^w 11..., and the
boundary report's `boundary` is the order's boundary, spelled once.

The two pair-built orders carry a boundary element where the halves
meet: m = (000..., ...111) is its own dual and has no immediate
neighbors, while m' = (...000, 111...) is its own dual with immediate
neighbors on both sides.  Stack keys rise through each layer's window,
so whether the boundary tops the lower half and bottoms the upper one is
read off the keys (stack index, ±count) of each layer's two end counts
and of the boundary's free end in each half.

The halves, the string ranks, the boundaries and the ambient positions
are all read off the catalogue's table; nothing here restates an order.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import strings as st
from .catalog import (OMEGA_HALF, OMEGA_OPP_HALF, OMEGA_PRIME_HALF,  # the *_HALF names are re-exported
                      OMEGA_PRIME_OPP_HALF, XI_HALF, XI_OPP_HALF, CpoName, Layer, NamedCpo, named_cpo, opp_ends,
                      stack_key)
from .errors import UnknownCpo
from .words import check_window, neighbors


def opp_element(x):
    """Dual of a string or pair element."""
    if isinstance(x, st.PairString):
        return st.opp_pair(x)
    return st.opp(x)


def build_pair_cpo(name: str | CpoName | NamedCpo) -> NamedCpo:
    """A glued order: its lower and upper halves share the boundary."""
    cpo = named_cpo(name)
    if cpo.boundary is None:
        raise UnknownCpo(f"{cpo.name.value} is not built from two glued halves")
    return cpo


BOUNDARY_M = build_pair_cpo(CpoName.LAMBDA_HAT_PRIME).spelled_boundary
BOUNDARY_M_PRIME = build_pair_cpo(CpoName.V).spelled_boundary


class ConditionReport(NamedTuple):
    """One adjunction condition; the fields are the keys of the schema's condition."""

    index: int
    passed: bool
    witness: str | None


class AdjunctionReport(NamedTuple):
    """The three conditions for one order; the fields are adjunction.schema.json's keys."""

    cpo: CpoName
    lower: str
    upper: str
    window: int
    conditions: tuple[ConditionReport, ...]
    passed: bool  # all three conditions hold


def _check_shapes(cpo: NamedCpo) -> None:
    """Reject halves opp cannot exchange: strings under pairs, or pairs pinned at the same end."""
    a_half, b_half = cpo.halves
    (a_side, a_at), (b_side, b_at) = cpo.pins
    if a_at is None and b_at is not None:
        raise UnknownCpo(f"{cpo.name.value}: the lower half {a_half.name} holds strings but the upper "
                         f"half {b_half.name} holds pairs, so no adjunction can compare them")
    if a_at is not None and b_at is not None and a_side == b_side:
        raise UnknownCpo(f"{cpo.name.value}: both halves pin the same end of their pairs, "
                         f"so opp cannot exchange them")


def _first_outside(cpo: NamedCpo, i: int, window: int) -> str | None:
    """The first element of half i's window whose dual the other half does not hold, spelled, per layer."""
    for layer in cpo.halves[i].layers:
        c = layer.corners(window, 0)[0]
        if cpo.free(1 - i, opp_ends(cpo.ends_at(i, layer, c))) is None:
            return str(cpo.halves[i].spelled(layer, c))
    return None


def _corner_keys(cpo: NamedCpo, i: int, window: int) -> Iterator[tuple[Layer, int, tuple, tuple]]:
    """Half i's corners in window order: (layer, count, the element's sort key, its dual's).

    Keys are taken in the order, or for strings in the whole stack.  From `settle` on, an element and its
    dual each lie in one run whatever the count, so a layer's runs are located below it and at its first count.
    """
    settle = cpo.settle
    place, key = (cpo.locate, cpo.key) if cpo.pins[0][1] is not None else ((lambda ends: ends[1]), stack_key)
    for layer in cpo.halves[i].layers:
        runs = None
        for c in layer.corners(window, settle + 2):
            if c < settle or runs is None:
                x = cpo.ends_at(i, layer, c)
                (run, cx), (orun, co) = place(x), place(opp_ends(x))
                runs = (run, orun) if c >= settle else None
            else:
                (run, orun), cx, co = runs, c, c
            yield layer, c, key(run, cx), key(orun, co)


def check_adjunction(which: str | CpoName | NamedCpo, window: int = 20) -> AdjunctionReport:
    """Decide the three adjunction conditions for the order's pair of halves (see the module docstring)."""
    check_window(window)
    cpo = named_cpo(which)
    if len(cpo.halves) != 2 or cpo.bare:
        raise UnknownCpo(f"no half pairing attached to {cpo.name.value}")
    _check_shapes(cpo)
    xs, ys = list(_corner_keys(cpo, 0, window)), list(_corner_keys(cpo, 1, window))
    c3 = next((f"{cpo.halves[0].spelled(lx, cx)}, {cpo.halves[1].spelled(ly, cy)}"
               for lx, cx, x_at, ox_at in xs for ly, cy, y_at, oy_at in ys
               if (x_at <= oy_at) != (y_at <= ox_at)), None)
    conds = tuple(ConditionReport(k, c is None, c)
                  for k, c in enumerate((_first_outside(cpo, 0, window), _first_outside(cpo, 1, window), c3), 1))
    return AdjunctionReport(cpo.name, cpo.halves[0].name, cpo.halves[1].name, window, conds,
                            all(c.passed for c in conds))


class BoundaryReport(NamedTuple):
    """The boundary of a glued order; the fields are boundary.schema.json's keys."""

    cpo: CpoName
    boundary: st.PairString
    label: str
    self_dual: bool
    predecessor: str | None
    successor: str | None
    in_lower: bool
    in_upper: bool
    join_of_lower: bool   # boundary is the top of the lower half
    meet_of_upper: bool   # and the bottom of the upper half
    window: int


def boundary_report(which: str | CpoName | NamedCpo, window: int = 20) -> BoundaryReport:
    check_window(window)
    cpo = build_pair_cpo(which)
    ends = cpo.boundary
    belem = cpo.element(ends)
    pred, succ = neighbors(cpo.word, belem)
    # stack keys rise through a layer's window, so those of its end counts bound them
    low, up = ([stack_key(layer, c) for layer in h.layers for c in layer.corners(window, 0)] for h in cpo.halves)
    in_low, in_up = (cpo.free(i, ends) for i in (0, 1))
    return BoundaryReport(cpo.name, cpo.spelled_boundary, cpo.to_label(belem), opp_ends(ends) == ends,
                          cpo.to_label(pred) if pred is not None else None,
                          cpo.to_label(succ) if succ is not None else None, in_low is not None, in_up is not None,
                          in_low is not None and low[-1] == stack_key(*in_low) >= max(low),
                          in_up is not None and up[0] == stack_key(*in_up) <= min(up), window)
