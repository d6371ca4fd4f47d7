"""Monotone maps into the two-point chain, as open final segments.

A monotone map from a chain D into 0 <= 1 is the indicator of a final
segment of D; chain-completeness forces the segment to be open, which
for these words means one of

  EMPTY          the constant-0 map
  UP_FROM(x)     everything from x up, needing x to be the global
                 bottom or to have an immediate predecessor
  BLOCK_TAIL(j)  every block from j on, needing block j to be a
                 descending (omega*) block, whose tail has no least
                 element

scott_opens() enumerates these segments in inclusion order and returns
the resulting word together with the segment sitting at each position,
so the space supports the same coordinate algebra as its base.  It
takes the base blocks from the top down, as high cuts give small
segments, and each contributes pieces, atoms of the space word before
normalization: the EMPTY segment, each BLOCK_TAIL, and a run of UP_FROM
cuts whose shape is dual to the block's own.  One normal_layout() call
gives the space word and where each piece lands in it, so the segment
at each position of a piece is one formula, UP_FROM((base, first +
step * i)), that position_of() inverts.

A normal word has no two finite blocks in a row, no finite block right
after an omega* block and none right before an omega block.  So, in the
space's ascending order, a finite cut run comes right after the EMPTY
or a BLOCK_TAIL and right before an omega* cut run or the end; an omega
cut run comes right after one of those two 1s or an omega* cut run; and
no finite run comes right after an omega* cut run.  Normalizing merges
a finite cut run with the 1 below it, lets an omega cut run absorb the
1 below it, and leaves an omega* cut run alone.  Hence, for every
normal w, in [w -> 2]:

  (1) each piece starts at offset 0 or 1 of its block;
  (2) every omega* block is exactly one piece;
  (3) every finite cut run lands in a finite block.

FuncSpace.rows() gives the cut of each segment of the space's window,
the first column of the base's window that it holds, so a `funcspace
--table` row is one slice of 0...01...1, and the segments' texts, written
a piece at a time and only where a row prints its segment: an UP_FROM
piece's text at each offset is its formula's, up(base,first + step * i),
and an EMPTY or BLOCK_TAIL piece holds one segment, so one text.  It
validates a piece on its first and last segment in the window only.
The segments of an UP_FROM piece cut one base block at offsets first +
step * i, one run of consecutive offsets, and what validate_segment
checks of a cut is a bound on its offset: at least 0 and at least the
block's least open cut (_least_cut), and below the size of a finite
block.  A run of offsets meets every such bound if its two ends do, so
the two ends decide every row.

fpt() runs the classical fixed-point construction: when the base is
isomorphic to its own function space via the positional isomorphism,
the diagonal d(x) = "is x in the segment at x's own position" is a
monotone map, and composing with a continuous mu: 2 -> 2 yields the
map g whose canonical preimage is the fixed point.  diagonal_map()
decides g on the window of depth 1.  An infinite piece cuts one base
block and lands in a block of the other kind, so its positions and its
cuts lie in different blocks of the one word, and d is constant on it.
A finite piece in an infinite block sits below that block's one
infinite piece, so by (1) the window holds every finite piece whole and
a point of every infinite piece.  By (2) a first 1 of g in an omega*
block takes in the whole block.
"""

import bisect
import itertools
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import BadLiteral, InvalidSegment, NotIsomorphic
from .words import (OMEGA, OMEGA_STAR, AtomKind, Elem, Ordering, OrderWord, compare, extremes, fin, neighbors,
                    normal_layout, normalize, validate_elem, window_elems, window_offsets, window_runs)

if TYPE_CHECKING:  # only annotations name the catalogue, so funcspace never runs it
    from .catalog import NamedCpo


class SegmentKind(Enum):
    EMPTY = "empty"
    UP_FROM = "up_from"
    BLOCK_TAIL = "block_tail"


class OpenSegment(NamedTuple):
    kind: SegmentKind
    at: Elem | None = None   # UP_FROM only
    block: int = -1          # BLOCK_TAIL only

    def __str__(self) -> str:
        if self.kind is SegmentKind.EMPTY:
            return "empty"
        if self.kind is SegmentKind.UP_FROM:
            return f"up{self.at}"
        return f"tail({self.block})"


EMPTY_SEGMENT = OpenSegment(SegmentKind.EMPTY)


def up_from(x: Elem) -> OpenSegment:
    return OpenSegment(SegmentKind.UP_FROM, at=x)


def block_tail(j: int) -> OpenSegment:
    return OpenSegment(SegmentKind.BLOCK_TAIL, block=j)


def _least_cut(w: OrderWord, j: int) -> int:
    """The least offset of block j from which on every UP_FROM cut is open.

    A cut is open when its point is the global bottom or has an immediate
    predecessor.  Only the bottom of a block other than omega* can lack
    one, and it sees one across the seam unless the block below is omega.
    """
    return int(j > 0 and w.atoms[j - 1].kind is AtomKind.OMEGA
               and w.atoms[j].kind is not AtomKind.OMEGA_STAR)


def validate_segment(w: OrderWord, s: OpenSegment) -> None:
    """Openness: an UP_FROM cut needs a bottom or an immediate predecessor."""
    if s.kind is SegmentKind.EMPTY:
        return
    if s.kind is SegmentKind.BLOCK_TAIL:
        if not 0 <= s.block < len(w.atoms):
            raise InvalidSegment(f"no block {s.block} in {w}")
        if w.atoms[s.block].kind is not AtomKind.OMEGA_STAR:
            raise InvalidSegment(f"block {s.block} of {w} has a least element; use up_from")
        return
    assert s.at is not None
    validate_elem(w, s.at)
    if s.at.offset < _least_cut(w, s.at.block):
        raise InvalidSegment(f"cut at {s.at} is not open in {w}")


def eval_segment(w: OrderWord, s: OpenSegment, x: Elem) -> int:
    """The indicator map of s applied to x."""
    validate_segment(w, s)
    validate_elem(w, x)
    if s.kind is SegmentKind.EMPTY:
        return 0
    if s.kind is SegmentKind.BLOCK_TAIL:
        return 1 if x.block >= s.block else 0
    assert s.at is not None
    return 1 if compare(w, x, s.at) is not Ordering.LT else 0


# -- positional enumeration ------------------------------------------------


class _Piece(NamedTuple):
    """A run of consecutive segments: one atom of the space word before normalization.

    role is the kind of its segments.  An EMPTY or BLOCK_TAIL piece holds
    the single segment EMPTY or BLOCK_TAIL(base); the i-th segment of an
    UP_FROM piece cuts base block `base` at offset first + step * i.  The
    piece lands in space block `block`, where its i-th segment sits at
    offset start + i, counted in that block's direction.
    """

    role: SegmentKind
    base: int   # the base block, -1 for EMPTY
    block: int
    start: int
    first: int
    step: int   # -1 for a finite cut run, which lands in a finite block (3)

    def seg(self, offset: int) -> OpenSegment:
        if self.role is SegmentKind.UP_FROM:
            return up_from(Elem(self.base, self.first + self.step * (offset - self.start)))
        return OpenSegment(self.role, block=self.base)

    def cuts(self, offsets: range) -> range:
        """The base offsets that the UP_FROM segments at these offsets of the piece cut at."""
        return range(self.first + self.step * (offsets.start - self.start),
                     self.first + self.step * (offsets.stop - self.start), self.step * offsets.step)

    def texts(self, offsets: range) -> list[str]:
        """`str` of the segment at each of these offsets: an EMPTY or BLOCK_TAIL piece has one text."""
        if self.role is SegmentKind.UP_FROM:
            return [f"up({self.base},{cut})" for cut in self.cuts(offsets)]
        return [str(self.seg(self.start))] * len(offsets)


class FuncSpace(NamedTuple):
    base: OrderWord  # normalized
    word: OrderWord  # normalized order type of the space
    pieces: tuple[_Piece, ...]  # sorted by (block, start)
    keys: tuple[tuple[int, int], ...]  # each piece's (block, start)

    def segment_at(self, x: Elem) -> OpenSegment:
        validate_elem(self.word, x)
        return self.pieces[bisect.bisect_right(self.keys, (x.block, x.offset)) - 1].seg(x.offset)

    def rows(self, window: int) -> tuple[list[int], Iterator[str]]:
        """The cut of each segment of the space's window, in the order of `window_elems(self.word, window)`,
        and an iterator over those segments' texts (`str` of each), which writes a piece's texts only as
        they are read, and builds no segment.

        The cut is the index of the first column of the base's window (`window_elems(self.base, window)`)
        that the segment holds: the column count for EMPTY, the start of block j's columns for
        BLOCK_TAIL(j), and for UP_FROM((j, off)) block j's start plus off, or plus window - off in an
        omega* block, clamped into the block.  A piece is validated on its first and last segment in
        the window (module docstring).
        """
        base = self.base.atoms
        starts = list(itertools.accumulate((len(window_offsets(atom, window)) for atom in base), initial=0))
        runs: list[tuple[_Piece, range]] = []
        cuts: list[int] = []
        for i, offsets in window_runs(self.word, window, self.keys):
            if not offsets:
                continue
            p = self.pieces[i]
            for s in dict.fromkeys((p.seg(offsets[0]), p.seg(offsets[-1]))):
                validate_segment(self.base, s)
            runs.append((p, offsets))
            if p.role is SegmentKind.UP_FROM:
                lo, hi = starts[p.base], starts[p.base + 1]
                at = p.cuts(offsets)
                if base[p.base].kind is AtomKind.OMEGA_STAR:  # whose columns run down from offset `window`
                    at = range(window - at.start, window - at.stop, -at.step)
                # an omega cut run from offset 1 reaches offset window + 1, one past its block's columns
                cuts += [cut if cut < hi else hi for cut in range(lo + at.start, lo + at.stop, at.step)]
            else:
                cuts += [starts[-1] if p.role is SegmentKind.EMPTY else starts[p.base]] * len(offsets)
        return cuts, itertools.chain.from_iterable(p.texts(offsets) for p, offsets in runs)

    def position_of(self, s: OpenSegment) -> Elem:
        validate_segment(self.base, s)
        base = s.block if s.at is None else s.at.block
        piece = next(p for p in self.pieces if p.role is s.kind and p.base == base)
        i = 0 if s.at is None else (s.at.offset - piece.first) * piece.step
        return Elem(piece.block, piece.start + i)


def scott_opens(w: OrderWord) -> FuncSpace:
    """Enumerate the open final segments of w in inclusion order."""
    base = normalize(w)
    atoms = base.atoms
    # the space's runs, ascending: (atom, role, base block, least valid cut)
    runs = [(fin(1), SegmentKind.EMPTY, -1, 0)]
    for j in range(len(atoms) - 1, -1, -1):
        atom = atoms[j]
        lo = _least_cut(base, j)
        if atom.kind is AtomKind.OMEGA_STAR:
            runs += [(OMEGA, SegmentKind.UP_FROM, j, 0), (fin(1), SegmentKind.BLOCK_TAIL, j, 0)]
        elif atom.kind is AtomKind.OMEGA:
            runs.append((OMEGA_STAR, SegmentKind.UP_FROM, j, lo))
        elif atom.size > lo:
            runs.append((fin(atom.size - lo), SegmentKind.UP_FROM, j, lo))
    word, layout = normal_layout([atom for atom, _, _, _ in runs])
    # ascending runs land at ascending (block, start): only an omega* block, read
    # from its top, could reverse two, and it holds one piece (2)
    pieces = []
    for (atom, role, j, lo), (block, start) in zip(runs, layout):
        # a finite cut run lands in a finite block (3), which it fills from its highest cut
        down = role is SegmentKind.UP_FROM and atom.kind is AtomKind.FIN
        pieces.append(_Piece(role, j, block, start, lo + atom.size - 1 if down else lo, -1 if down else 1))
    return FuncSpace(base, word, tuple(pieces), tuple((p.block, p.start) for p in pieces))


# -- self-isomorphism and the fixed point construction ---------------------


class SelfIsoReport(NamedTuple):
    space: FuncSpace  # its base is the normalized input, its word the space's order type
    is_iso: bool
    reason: str | None
    notes: tuple[str, ...]


def _top_pred_note(base: OrderWord, space: OrderWord) -> str | None:
    bt = extremes(base)[1]
    st_ = extremes(space)[1]
    if bt is None or st_ is None:
        return None
    base_has = neighbors(base, bt)[0] is not None
    space_has = neighbors(space, st_)[0] is not None
    if base_has == space_has:
        return None
    side = "function space" if space_has else "base"
    other = "base" if space_has else "function space"
    return (f"the top of the {side} has an immediate predecessor "
            f"but the top of the {other} does not")


def self_iso(w: OrderWord) -> SelfIsoReport:
    """Is w order-isomorphic to its own space of monotone maps into 2?"""
    space = scott_opens(w)
    base, word = space.base, space.word
    if base == word:
        return SelfIsoReport(space, True, None, ())
    notes = tuple(n for n in (_top_pred_note(base, word),) if n)
    return SelfIsoReport(space, False, f"{base} vs {word}", notes)


class Mu(Enum):
    CONST0 = "const0"
    CONST1 = "const1"
    ID = "id"


def mu_apply(mu: Mu, bit: int) -> int:
    if mu is Mu.CONST0:
        return 0
    if mu is Mu.CONST1:
        return 1
    return bit


def mu_continuous(candidate: tuple[int, int]) -> bool:
    """Monotone (hence continuous) maps 2 -> 2 exclude only the swap."""
    f0, f1 = candidate
    if {f0, f1} - {0, 1}:
        raise BadLiteral(f"not a map into the two-point chain: {candidate}")
    return not (f0 == 1 and f1 == 0)


class FixedPointReport(NamedTuple):
    g: OpenSegment
    g_label: str        # "psi_<label of preimage>"
    preimage_label: str
    value: int


def diagonal_map(space: FuncSpace, mu: Mu) -> OpenSegment:
    """g = mu . d, d(x) = [x in segment_at(x)], for a space whose word is its base.

    The window of depth 1 decides d, and a first 1 of g in an omega*
    block takes in the whole block (module docstring).
    """
    w = space.base
    xs = window_elems(w, 1)
    d = [eval_segment(w, space.segment_at(x), x) for x in xs]
    if any(a > b for a, b in zip(d, d[1:])):
        raise RuntimeError(f"diagonal is not monotone on {w}: {d}")
    g = [mu_apply(mu, bit) for bit in d]
    if 1 not in g:
        return EMPTY_SEGMENT
    x = xs[g.index(1)]
    return block_tail(x.block) if w.atoms[x.block].kind is AtomKind.OMEGA_STAR else up_from(x)


def fpt(cpo: "NamedCpo", mu: Mu) -> FixedPointReport:
    """Fixed point of mu via the diagonal of the positional isomorphism."""
    report = cpo.self_iso
    if not report.is_iso:
        raise NotIsomorphic(f"{cpo.name.value}: {report.reason}")
    g = diagonal_map(report.space, mu)
    x = report.space.position_of(g)
    value = eval_segment(cpo.word, g, x)
    if value != mu_apply(mu, value):
        raise RuntimeError("fixed point equation failed; construction is broken")
    label = cpo.to_label(x)
    return FixedPointReport(g, f"psi_{label}", label, value)
