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
membership rule, NamedCpo.free, decides (1) and (2) once per layer, at
its first count in window order.

Condition (3) compares sort keys: positions in the order, or, where the
halves hold strings, in the whole stack.  Let s be the order's `settle`
count and w the window.  From s on, an element and its dual each lie in
one run whatever the count c, so each key is affine in c: (block, a +
k·c) with k = ±1 for all c >= s, and the keys at s and s + 1 stand for
every count from s on (NamedCpo.duals, built once per order, reads the
keys at each count up to s + 1).  Each half's window splits
into classes: a count below s, or of a finite layer, is a class of its
own (the finite part), and the counts s..w of an omega or omega* layer
are one class.  For x at count c in half A and y at count d in half B,
each side of (3), x <= opp(y) and y <= opp(x), is the same across a
pair of classes once the relation between c and d is fixed:

- Both counts in classes of many counts (the relation part).  Take the
  side x <= opp(y).  If x's run and opp(y)'s run lie in different
  blocks, the side is the blocks' order.  Both are runs of omega or
  omega* layers, and a block holds at most one such run, so in the same
  block they are one run, with one form (block, a, k), and the side is
  k·c <= k·d: it depends only on whether c < d, c = d or c > d.  The
  same holds for y <= opp(x).  Both windows allow c = d once w >= s,
  and c < d and c > d once w > s, and each relation is decided at one
  pair of counts in it: (s, s), (s, s + 1) or (s + 1, s).  For c != d
  the two elements of a side have free ends at different counts, so
  they differ and their keys never tie: there <= and < agree.
- One count alone (the finite part, and the mixed pairs).  Say c is a
  class of its own and d ranges over a class of many counts.  If the
  two runs lie in different blocks, or in one block as two runs, whose
  offsets are disjoint ranges, the side is their order, whatever d.  If
  they are one run, then c < s <= d for every d of the class, so the
  side is the run's direction.  Either way the side is the same for
  every d of the class, so d = s decides it, and likewise with x and y
  exchanged.  Two counts alone are compared as they are.

Verdicts and witnesses are an ascending scan's, over x in half A's
window order and, for each x, y in half B's.  Its first failure lies in
the first class of x that fails with some class of y.  Each pair of
classes is stood for by the first pair, in scan order, of each relation
it allows (of its one pair if a class is a single count), so the
witness is the least x position among the failing representatives,
then the least y position.  An omega* layer's window order runs from
w down, so its class of many counts starts at w, and a witness there
spells w out, as 0^w 11....  Where the order does not hold an element
or its dual, the decision raises BadElement, as locating the first such
element in window order does.  Elements are their ends here, and a
string is built only to spell a witness (`catalog.spell` of its ends).

The two pair-built orders carry a boundary element where the halves
meet: m = (000..., ...111) is its own dual and has no immediate
neighbors, while m' = (...000, 111...) is its own dual with immediate
neighbors on both sides.  Stack keys rise through each layer's window,
so whether the boundary tops the lower half and bottoms the upper one is
read off the keys (stack index, ±count) of each layer's two window-end
counts and of the boundary's free end in each half.  The rest of the
report is a fact of the order, read off its `NamedCpo.boundary`.

The halves, the string ranks, the boundaries and the ambient positions
are all read off the catalogue's table; nothing here restates an order.
"""

from typing import NamedTuple

from . import strings as st
from .catalog import CpoName, NamedCpo, named_cpo, opp_ends, spell, stack_key, window_end_keys
from .errors import UnknownCpo
from .words import AtomKind, check_window


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


BOUNDARY_M = build_pair_cpo(CpoName.LAMBDA_HAT_PRIME).boundary.pair


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
    s = cpo.settle
    for layer, entries in zip(cpo.layers[i], cpo.duals[i]):
        c = window if layer.atom.kind is AtomKind.OMEGA_STAR else 0
        if not entries[min(c, s)].holders[1 - i]:
            return str(spell(cpo.ends_at(i, layer, c)))
    return None


def _classes(cpo: NamedCpo, i: int, s: int, w: int) -> list[tuple]:
    """Half i's window in window order, a class of counts at a time: (layer index, down, first count, step, keys).

    A count of a finite layer or below settle s is a class of its own, with step 0 and its keys, the
    element's and its dual's, at that count.  The counts from s to w of an omega layer are one class from s
    up (step 1), and of an omega* layer one from w down (step -1), with the keys at counts s and s + 1;
    `down` marks a layer whose window runs from w down.  Where the order does not hold a class's element or
    its dual, locating the first such one raises BadElement.
    """
    out = []
    for j, (layer, entries) in enumerate(zip(cpo.layers[i], cpo.duals[i])):
        down, infinite = layer.atom.kind is AtomKind.OMEGA_STAR, layer.atom.kind is not AtomKind.FIN
        few = [(j, down, c, 0, e.keys and (e.keys,))
               for c, e in enumerate(entries[:min(s, w + 1)] if infinite else entries)]
        many = []
        if infinite and w >= s:
            e, e1 = entries[s:]  # the entries at s and s + 1
            many = [(j, down, w if down else s, -1 if down else 1, e.keys and (e.keys, e1.keys))]
        out += many + few[::-1] if down else few + many
    for j, _, c, _, keys in out:
        if keys is None:
            x = cpo.ends_at(i, cpo.layers[i][j], c)
            cpo.locate(x), cpo.locate(opp_ends(x))
    return out


def _relations(c0: int, dy: int, s: int, w: int) -> tuple[tuple[tuple[int, int], int, int], ...]:
    """Each relation between c and d that a class of many x counts from c0 and one of many y counts stepping
    dy allow, both over counts s..w: its first pair (c, d) in scan order, and the pair of counts, s + its
    two indices, that decides it."""
    c_lt = c0 if c0 < w else c0 - 1
    c_gt = c0 if c0 > s else c0 + 1
    return (((c0, c0), 0, 0),                                          # c = d
            ((c_lt, c_lt + 1 if dy > 0 else w), 0, 1),                 # c < d
            ((c_gt, s if dy > 0 else c_gt - 1), 1, 0))[:1 if w == s else 3]  # c > d


def _third_condition(cpo: NamedCpo, w: int) -> str | None:
    """The ascending scan's first failure of (3), spelled, or None (see the module docstring)."""
    s = cpo.settle
    xs, ys = _classes(cpo, 0, s, w), _classes(cpo, 1, s, w)
    for jx, down_x, c0, dx, x_keys in xs:
        failing = []  # (x position, y layer, y position, c, d)
        for jy, down_y, d0, dy, y_keys in ys:
            # with a single count on either side, every pair of the two classes is alike
            for (c, d), i, j in _relations(c0, dy, s, w) if dx and dy else (((c0, d0), 0, 0),):
                (kx, kox), (ky, koy) = x_keys[i], y_keys[j]
                if (kx <= koy) != (ky <= kox):
                    failing.append((w - c if down_x else c, jy, w - d if down_y else d, c, d))
        if failing:
            _, jy, _, c, d = min(failing)
            return f"{spell(cpo.ends_at(0, cpo.layers[0][jx], c))}, {spell(cpo.ends_at(1, cpo.layers[1][jy], d))}"
    return None


def check_adjunction(which: str | CpoName | NamedCpo, window: int = 20) -> AdjunctionReport:
    """Decide the three adjunction conditions for the order's pair of halves (see the module docstring)."""
    check_window(window)
    cpo = named_cpo(which)
    if len(cpo.halves) != 2 or cpo.bare:
        raise UnknownCpo(f"no half pairing attached to {cpo.name.value}")
    _check_shapes(cpo)
    c3 = _third_condition(cpo, window)
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
    b = cpo.boundary
    in_low, in_up = cpo.free(0, b.ends), cpo.free(1, b.ends)
    # stack keys rise through a layer's window, so its last count's key is its greatest there and its first's its least
    lasts = [window_end_keys(layer, window)[1] for layer in cpo.layers[0]]
    firsts = [window_end_keys(layer, window)[0] for layer in cpo.layers[1]]
    return BoundaryReport(cpo.name, b.pair, b.label, opp_ends(b.ends) == b.ends, *b.neighbors,
                          in_low is not None, in_up is not None,
                          in_low is not None and lasts[-1] == stack_key(*in_low) >= max(lasts),
                          in_up is not None and firsts[0] == stack_key(*in_up) <= min(firsts), window)
