"""Decompositions, the two-to-one folding map, and the summary pipeline.

decompositions() splits each composite order into string families.  The
hat order admits two natural splittings, differing only in which family
absorbs the boundary m.  The valley order has the right order type for
a four-family sum, but the family pairings both claim the boundary m',
so no natural splitting exists; the collision witness records the two
claimants.

lcr_forward folds the four string families into the valley order: the
lower families keep their string on the right against a pinned left
end, the upper families keep it on the left against a pinned right
end; each string goes to the valley half whose layers hold it.  The
fold is injective except exactly at m', hit by both ...000 and 111....
lcr_backward inverts it, taking an endpoint choice (which
end of the pair to read) to break the tie at the boundary.

replicate() splits the self-dual boundary m into an adjacent intent /
extent pair, turning the hat order's single middle element into the
two-element middle of the primed order.

pipeline() chains these constructions and tabulates, per composite
order, the adjunction verdict, fixed point applicability, boundary
element, and order type.  Every verdict holds for the whole order, so
the window changes nothing but the `window` that table8 echoes: the
adjunctions are decided as adjunction.py describes, and the fold's
round trip and collisions per lambda_prime layer, at its counts up to
the two orders' `settle` count (every count of a finite layer), in the
catalogue's layer coordinates, off the v runs holding the images.  Each
verdict is decided once per process and held: the adjunctions per order
and capped window (`adjunction_holds`), the fold per pair of orders.

Elements are their ends here, as in the catalogue: a string is read in
only where it comes from outside the package (the string lcr_forward
folds or the pair lcr_backward unfolds), and built only to spell a label
or a report field.
"""

from functools import cache
from typing import NamedTuple

from . import strings as st
from .adjunction import BOUNDARY_M, adjunction_holds
from .catalog import CpoName, Layer, NamedCpo, ends_of, named_cpo, spell
from .errors import BadElement, NotBoundary, UnknownCpo
from .words import AtomKind, check_window, neighbors


class CollisionWitness(NamedTuple):
    """The boundary and the two strings that claim it; the keys of decompose's `witness`."""

    element: st.PairString
    lower_claim: st.MonotypicString  # the string the boundary holds in the upper half
    upper_claim: st.MonotypicString  # and in the lower half


class Decomposition(NamedTuple):
    """One splitting into string families; the keys of a decompose.schema.json item."""

    parts: tuple[st.SpecKind, ...]
    natural: bool
    name: str | None                          # which natural pairing, if any
    boundary_image: st.MonotypicString | None
    witness: CollisionWitness | None


def decompositions(which: str | CpoName) -> tuple[Decomposition, ...]:
    """Split a glued order into the families of its halves' layers.

    A finite top of the lower half holds the boundary alone, so the seam
    is one family: either half's, a natural splitting each.  Otherwise
    both halves claim the boundary and no splitting is natural.
    """
    cpo = named_cpo(which)
    if cpo.boundary is None:
        raise UnknownCpo(f"{cpo.name.value} has no catalogued decomposition")
    b = cpo.boundary.pair
    in_lower, in_upper = (b[1 - side] for side, _ in cpo.pins)  # the string each half frees: the end it does not pin
    low, up = ([layer.family for layer in h.layers] for h in cpo.halves)
    if cpo.halves[0].layers[-1].atom.kind is not AtomKind.FIN:
        return (Decomposition(tuple(low + up), False, None, None, CollisionWitness(b, in_upper, in_lower)),)
    return (Decomposition(tuple(low[:-1] + up), True, "phi1", in_upper, None),
            Decomposition(tuple(low + up[1:]), True, "phi2", in_lower, None))


class LcrImage(NamedTuple):
    """A string and its fold; the fields are lcr_forward.schema.json's keys."""

    source: st.MonotypicString
    source_label: str           # label in the primed composite order
    image: st.PairString
    half: str                   # "xi" or "xi_opp"
    label: str                  # label in the valley order
    collision: bool


def _fold_half(v: NamedCpo, layer: Layer) -> int:
    """The v half lcr folds a stack layer into: the one whose layers hold it; BadElement if neither does."""
    for i in (0, 1):
        if v.free(i, v.ends_at(i, layer, 0)):
            return i
    raise BadElement(f"no half of {v.name.value} holds lambda_prime's layer {layer.family.name} ({layer.atom})")


def lcr_forward(x: st.MonotypicString) -> LcrImage:
    """Fold a string into the valley order."""
    lam_prime = named_cpo(CpoName.LAMBDA_PRIME)
    v = named_cpo(CpoName.V)
    ends = ends_of(x)
    layer, c = ends[1]
    i = _fold_half(v, layer)
    image = v.ends_at(i, layer, c)
    return LcrImage(x, lam_prime.to_label(lam_prime.element(ends)), spell(image), v.halves[i].name,
                    v.to_label(v.element(image)), image == v.boundary.ends)


def lcr_backward(p: st.PairString, endpoint: st.Orientation | None = None) -> st.MonotypicString:
    """Unfold a valley pair back to its string.

    At the boundary both preimages exist: the halves pin opposite ends,
    so each frees one of its two strings.  endpoint picks the one of
    that orientation: R reads the right-indexed ...000, L the
    left-indexed 111....  Away from the boundary the preimage is unique
    and endpoint is ignored.
    """
    v = named_cpo(CpoName.V)
    if p == v.boundary.pair:
        if endpoint is None:
            raise BadElement("the boundary has two preimages; pick endpoint L or R")
        return next(s for s in p if s.orientation is endpoint)
    return v.held(ends_of(p))


class ReplicationResult(NamedTuple):
    """The split of m; the fields are the keys of replicate.schema.json's positive verdict."""

    source: st.PairString
    intent: st.MonotypicString
    intent_label: str
    extent: st.MonotypicString
    extent_label: str
    mutual_neighbors: bool


def replicate(p: st.PairString) -> ReplicationResult:
    """Split the self-dual boundary m into the adjacent middle pair."""
    if p != BOUNDARY_M:
        raise NotBoundary(f"replication applies only to {BOUNDARY_M}, got {p}")
    lam_prime = named_cpo(CpoName.LAMBDA_PRIME)
    ie, ee = (lam_prime.element((None, end)) for end in named_cpo(CpoName.LAMBDA_HAT_PRIME).boundary.ends)
    mutual = neighbors(lam_prime.word, ee)[1] == ie and neighbors(lam_prime.word, ie)[0] == ee
    return ReplicationResult(p, p.left, lam_prime.to_label(ie), p.right, lam_prime.to_label(ee), mutual)


class Table8Row(NamedTuple):
    """One row of Table 8; the fields are its columns, in order."""

    cpo: str
    adjunction: str    # "yes" / "no"
    fixed_point: str   # "applicable" / "not applicable"
    boundary: str      # boundary label or "n/a"
    order_type: str


def table8(window: int = 20) -> tuple[Table8Row, ...]:
    """Summary matrix: each cell is a fact of its order, decided once per process and held, so the window
    changes no cell."""
    check_window(window)
    rows = []
    for name in (CpoName.LAMBDA, CpoName.LAMBDA_PRIME, CpoName.LAMBDA_HAT_PRIME, CpoName.V):
        cpo = named_cpo(name)
        adj = "yes" if adjunction_holds(name, window) else "no"
        fp = "applicable" if cpo.self_iso.is_iso else "not applicable"
        boundary = "n/a" if cpo.boundary is None else cpo.boundary.label
        rows.append(Table8Row(name.value, adj, fp, boundary, str(cpo.display_word)))
    return tuple(rows)


class DualizationEdge(NamedTuple):
    source: str
    target: str
    isomorphic: bool
    order_type: str


class ReplicationEdge(NamedTuple):
    source: str
    target: str
    intent_label: str
    extent_label: str
    source_type: str
    target_type: str
    mutual_neighbors: bool


class LcrEdge(NamedTuple):
    source: str
    target: str
    round_trip_ok: bool
    collision_label: str
    collision_preimages: tuple[str, str]
    isomorphic: bool


class PipelineReport(NamedTuple):
    """The three edges and Table 8; the fields are pipeline.schema.json's keys."""

    dualization: DualizationEdge
    replication: ReplicationEdge
    lcr: LcrEdge
    table8: tuple[Table8Row, ...]


@cache
def _fold(lam_prime: NamedCpo, v: NamedCpo) -> tuple[bool, tuple[str, ...]]:
    """Whether lambda_prime folds into v and back with exactly two strings on v's boundary, and those strings,
    spelled: decided once per pair of orders and held.

    The fold carries each lambda_prime layer into the v half whose layers hold it, and unfolds an image off
    the v run that holds it; from count `settle` on both orders treat a layer's strings alike, so the counts
    up to it decide the round trip and the strings folded onto m'.
    """
    settle, m = max(lam_prime.settle, v.settle), v.boundary
    ok, collisions = True, []
    for layer in (layer for half in lam_prime.halves for layer in half.layers):
        i = _fold_half(v, layer)
        for c in range(layer.atom.size if layer.atom.kind is AtomKind.FIN else settle + 1):
            image = v.ends_at(i, layer, c)
            if image == m.ends:
                x = layer.string(c)
                collisions.append(x)
                ok = ok and lcr_backward(m.pair, x.orientation) == x
            else:
                run, held = v.locate(image)
                ok = ok and (run.layer, held) == (layer, c)
    return ok and len(collisions) == 2, tuple(str(x) for x in collisions)


def pipeline(window: int = 20) -> PipelineReport:
    check_window(window)
    lam = named_cpo(CpoName.LAMBDA)
    hat = named_cpo(CpoName.LAMBDA_HAT_PRIME)
    lam_prime = named_cpo(CpoName.LAMBDA_PRIME)
    v = named_cpo(CpoName.V)

    dual = DualizationEdge(lam.name.value, hat.name.value, lam.isomorphic_to(hat), str(hat.display_word))

    rep = replicate(BOUNDARY_M)
    rep_edge = ReplicationEdge(hat.name.value, lam_prime.name.value, rep.intent_label, rep.extent_label,
                               str(hat.display_word), str(lam_prime.display_word), rep.mutual_neighbors)

    round_trip_ok, collisions = _fold(lam_prime, v)
    lcr_edge = LcrEdge(lam_prime.name.value, v.name.value, round_trip_ok, v.boundary.label, collisions,
                       lam_prime.isomorphic_to(v))

    return PipelineReport(dual, rep_edge, lcr_edge, table8(window))
