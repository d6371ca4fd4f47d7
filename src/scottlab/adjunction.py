"""Dual halves, the adjunction conditions, and boundary elements.

The four composite orders each split into a lower and an upper half
exchanged by the dual map opp.  A pairing of halves (A, B) satisfies
the adjunction when

  (1) opp sends A into B,
  (2) opp sends B into A,
  (3) for x in A and y in B:  x <= opp(y)  iff  opp(x) >= y,

all checked on finite windows that include the infinite-count extreme
strings.  The checks run in the ambient composite order, so a failure
of (1) or (2) does not prevent (3) from being evaluated.

The two pair-built orders carry a boundary element where the halves
meet: m = (000..., ...111) is its own dual and has no immediate
neighbors, while m' = (...000, 111...) is its own dual with immediate
neighbors on both sides.

The halves, the string ranks, the boundaries and the ambient positions
are all read off the catalogue's table; nothing here restates an order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import strings as st
from .catalog import (  # the *_HALF names are re-exported for callers
    OMEGA_HALF,
    OMEGA_OPP_HALF,
    OMEGA_PRIME_HALF,
    OMEGA_PRIME_OPP_HALF,
    XI_HALF,
    XI_OPP_HALF,
    CpoName,
    Half,
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


global_string_rank = stack_position  # position in the whole stack of four families


# Canonical pairing of halves for each composite order: its two halves.
PAIRINGS: dict[CpoName, tuple[Half, Half]] = {
    c.name: c.halves for c in map(named_cpo, CpoName) if len(c.halves) == 2 and not c.bare
}


def build_pair_cpo(name: str | CpoName) -> NamedCpo:
    """A glued order: its lower and upper halves share the boundary."""
    cpo = named_cpo(name)
    if cpo.boundary is None:
        raise UnknownCpo(f"{cpo.name.value} is not built from two glued halves")
    return cpo


BOUNDARY_M = build_pair_cpo(CpoName.LAMBDA_HAT_PRIME).boundary
BOUNDARY_M_PRIME = build_pair_cpo(CpoName.V).boundary


@dataclass(frozen=True)
class ConditionReport:
    """One adjunction condition; the fields are the keys of the schema's condition."""

    index: int
    passed: bool
    witness: str | None


@dataclass(frozen=True)
class AdjunctionReport:
    """The three conditions for one order; the fields are adjunction.schema.json's keys."""

    cpo: CpoName
    lower: str
    upper: str
    window: int
    conditions: tuple[ConditionReport, ...]
    passed: bool  # all three conditions hold


def check_adjunction(which: str | CpoName, window: int = 20) -> AdjunctionReport:
    """Run the three adjunction conditions for the order's half pairing."""
    check_window(window)
    cpo = named_cpo(which)
    if cpo.name not in PAIRINGS:
        raise UnknownCpo(f"no half pairing attached to {cpo.name.value}")
    a_half, b_half = PAIRINGS[cpo.name]
    xs = a_half.window(window)
    ys = b_half.window(window)
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


@dataclass(frozen=True)
class BoundaryReport:
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
    lower_win = lower.window(window)
    upper_win = upper.window(window)
    b_low, b_up = lower.rank(b), upper.rank(b)
    join = lower_win[-1] == b and all(lower.rank(x) <= b_low for x in lower_win)
    meet = upper_win[0] == b and all(b_up <= upper.rank(y) for y in upper_win)
    return BoundaryReport(
        cpo.name, b, cpo.to_label(belem), opp_element(b) == b,
        cpo.to_label(pred) if pred is not None else None,
        cpo.to_label(succ) if succ is not None else None,
        lower.contains(b), upper.contains(b), join, meet, window,
    )
