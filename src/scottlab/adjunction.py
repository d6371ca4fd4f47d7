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

Each verdict is decided for the whole order, whatever the window.  A
half is one or two catalogue layers, a layer holds one string per
count c, and opp sends a layer to a layer, keeping c.  From the order's
`settle` count on, an element sits at (block, ±(first + step·(c − start))) in
one run, and the elements of one infinite block share its run.  So past
`settle`, (1) and (2) do not depend on c, and each side of (3) depends
only on whether c < d, c = d or c > d.  A failing count farther than
settle + 2 from both ends of its layer's window keeps failing when it
(and its partner in (3)) moves one count towards the start of the scan.
So the first failure of an ascending scan over the window lies on the
counts within settle + 2 of a layer's ends, its corners, and only those
are examined: the verdict and the witness are the scan's, and the
window's size does not matter.  In an omega* layer the scan starts at
the window's count w, so a witness there, 0^w 11..., spells w out.

The two pair-built orders carry a boundary element where the halves
meet: m = (000..., ...111) is its own dual and has no immediate
neighbors, while m' = (...000, 111...) is its own dual with immediate
neighbors on both sides.  Ranks rise through each layer's window, so
whether the boundary tops the lower half and bottoms the upper one is
read off each layer's two ends.

The halves, the string ranks, the boundaries and the ambient positions
are all read off the catalogue's table; nothing here restates an order.
"""

from __future__ import annotations

from typing import NamedTuple

from . import strings as st
from .catalog import (  # the *_HALF names are re-exported for callers
    OMEGA_HALF,
    OMEGA_OPP_HALF,
    OMEGA_PRIME_HALF,
    OMEGA_PRIME_OPP_HALF,
    XI_HALF,
    XI_OPP_HALF,
    CpoName,
    NamedCpo,
    named_cpo,
    stack_position,
)
from .errors import UnknownCpo
from .words import check_window, neighbors


def opp_element(x):
    """Dual of a string or pair element."""
    if isinstance(x, st.PairString):
        return st.opp_pair(x)
    return st.opp(x)


def build_pair_cpo(name: str | CpoName) -> NamedCpo:
    """A glued order: its lower and upper halves share the boundary."""
    cpo = named_cpo(name)
    if cpo.boundary is None:
        raise UnknownCpo(f"{cpo.name.value} is not built from two glued halves")
    return cpo


BOUNDARY_M = build_pair_cpo(CpoName.LAMBDA_HAT_PRIME).boundary
BOUNDARY_M_PRIME = build_pair_cpo(CpoName.V).boundary


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
    """Reject a pairing whose lower half holds strings and whose upper half holds pairs.

    Condition (3) compares such a lower half in the stack of strings,
    which holds no pairs, so the upper half's elements have no place there.
    """
    a_half, b_half = cpo.halves
    if not a_half.pinned and b_half.pinned:
        raise UnknownCpo(f"{cpo.name.value}: the lower half {a_half.name} holds strings but the upper "
                         f"half {b_half.name} holds pairs, so no adjunction can compare them")


def check_adjunction(which: str | CpoName | NamedCpo, window: int = 20) -> AdjunctionReport:
    """Decide the three adjunction conditions for the order's pair of halves.

    The witnesses are the first failures of an ascending scan over the
    window, found on the layers' corners (see the module docstring).
    """
    check_window(window)
    cpo = which if isinstance(which, NamedCpo) else named_cpo(which)
    if len(cpo.halves) != 2 or cpo.bare:
        raise UnknownCpo(f"no half pairing attached to {cpo.name.value}")
    a_half, b_half = cpo.halves
    _check_shapes(cpo)
    reach = cpo.settle + 2
    xs = a_half.corners(window, reach)
    ys = b_half.corners(window, reach)
    oxs = [opp_element(x) for x in xs]
    oys = [opp_element(y) for y in ys]

    c1 = next((x for x, ox in zip(xs, oxs) if not b_half.contains(ox)), None)
    c2 = next((y for y, oy in zip(ys, oys) if not a_half.contains(oy)), None)
    # compared in the order itself, or for strings in the whole stack,
    # which also holds the duals that fall outside lambda
    position = cpo.position if a_half.pinned else stack_position
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


def boundary_report(which: str | CpoName, window: int = 20) -> BoundaryReport:
    check_window(window)
    cpo = build_pair_cpo(which)
    lower, upper = cpo.halves
    b = cpo.boundary
    belem = cpo.element(b)
    pred, succ = neighbors(cpo.word, belem)
    # ranks rise through a layer's window, so its two ends bound them
    lower_ends = lower.corners(window, 0)
    upper_ends = upper.corners(window, 0)
    b_low, b_up = lower.rank(b), upper.rank(b)
    join = lower_ends[-1] == b and all(lower.rank(x) <= b_low for x in lower_ends)
    meet = upper_ends[0] == b and all(b_up <= upper.rank(y) for y in upper_ends)
    return BoundaryReport(
        cpo.name, b, cpo.to_label(belem), opp_element(b) == b,
        cpo.to_label(pred) if pred is not None else None,
        cpo.to_label(succ) if succ is not None else None,
        lower.contains(b), upper.contains(b), join, meet, window,
    )
