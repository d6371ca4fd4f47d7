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
so the space supports the same coordinate algebra as its base.  The
construction scans the base right to left: high cuts give small
segments.  Each base block contributes a run whose shape is dual to the
block's own (an ascending block is cut in descending order and vice
versa), and runs are merged by the same rewrite rules that normalize
words.

fpt() runs the classical fixed-point construction: when the base is
isomorphic to its own function space via the positional isomorphism,
the diagonal d(x) = "is x in the segment at x's own position" is a
monotone map, and composing with a continuous mu: 2 -> 2 yields the
map g whose canonical preimage is the fixed point.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .catalog import NamedCpo
from .errors import BadElement, BadLiteral, InvalidSegment, NotIsomorphic
from .words import (
    OMEGA,
    OMEGA_STAR,
    AtomKind,
    Elem,
    Ordering,
    OrderWord,
    compare,
    extremes,
    fin,
    neighbors,
    normalize,
    validate_elem,
)


class SegmentKind(Enum):
    EMPTY = "empty"
    UP_FROM = "up_from"
    BLOCK_TAIL = "block_tail"


@dataclass(frozen=True)
class OpenSegment:
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
    bottom, _ = extremes(w)
    if s.at == bottom:
        return
    if neighbors(w, s.at)[0] is None:
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


def _rank_key(w: OrderWord, x: Elem) -> tuple[int, int]:
    """A tuple that sorts like x in w: omega* offsets count downward."""
    return (x.block, -x.offset if w.atoms[x.block].kind is AtomKind.OMEGA_STAR else x.offset)


def indicator_rows(w: OrderWord, segs: Sequence[OpenSegment], xs: Sequence[Elem]) -> list[str]:
    """The indicator maps of segs on the ascending elements xs, as bit strings.

    An open segment is a final segment (a Scott-open set is an up-set),
    so over ascending xs a row reads 0...01...1 and the position of its
    first 1 decides it.  Each column is validated once and mapped to a
    rank key; the keys must not descend.  Each segment is validated once
    and its cut found by one bisection of the keys: UP_FROM(x) cuts at
    x's key, BLOCK_TAIL(j) at the start of block j, EMPTY after the last
    column.  A row costs O(log len(xs)) tuple comparisons.
    """
    for x in xs:
        validate_elem(w, x)
    keys = [_rank_key(w, x) for x in xs]
    for i in range(1, len(keys)):
        if keys[i - 1] > keys[i]:
            raise BadElement(f"columns must ascend in {w}: {xs[i]} follows {xs[i - 1]}")
    n = len(keys)
    rows = []
    for s in segs:
        validate_segment(w, s)
        if s.kind is SegmentKind.EMPTY:
            k = n
        elif s.kind is SegmentKind.BLOCK_TAIL:
            k = bisect.bisect_left(keys, (s.block,))  # (j,) sorts before every (j, offset)
        else:
            k = bisect.bisect_left(keys, _rank_key(w, s.at))
        rows.append("0" * k + "1" * (n - k))
    return rows


def indicator_row(w: OrderWord, s: OpenSegment, xs: Sequence[Elem]) -> str:
    """The indicator map of s on the ascending elements xs, as a bit string."""
    return indicator_rows(w, (s,), xs)[0]


# -- positional enumeration ------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    """A run of consecutive segments contributed by one base block.

    shape FIN runs ascending through indices 0..size-1; shape OMEGA
    ascends without end; shape OMEGA_STAR descends from the run's top,
    indexed 0, 1, ... downward.  role says what the indices mean:
    "empty" and "tail" are single segments, "cuts" are UP_FROM cuts in
    the base block, where lo is the least valid cut offset.
    """

    shape: AtomKind
    role: str                # "empty" | "tail" | "cuts"
    size: int = 1            # FIN shapes only
    base_block: int = -1
    lo: int = 0

    def seg(self, i: int) -> OpenSegment:
        if self.role == "empty":
            return EMPTY_SEGMENT
        if self.role == "tail":
            return block_tail(self.base_block)
        if self.shape is AtomKind.FIN:
            # ascending run over offsets hi down to lo
            return up_from(Elem(self.base_block, self.lo + self.size - 1 - i))
        if self.shape is AtomKind.OMEGA:
            # cuts in an omega* block: offset i from that block's top
            return up_from(Elem(self.base_block, i))
        # cuts in an omega block, descending: index i from the run's top
        return up_from(Elem(self.base_block, self.lo + i))


@dataclass(frozen=True)
class _SegBlock:
    atom: object  # OrderAtom of the space word
    pieces: tuple[_Piece, ...]  # in ascending segment order

    def seg_at(self, offset: int) -> OpenSegment:
        kind = self.atom.kind
        if kind is AtomKind.OMEGA_STAR:
            # offset counts down from the block top; finite pieces sit on top
            rest = offset
            for piece in reversed(self.pieces):
                if piece.shape is AtomKind.OMEGA_STAR:
                    return piece.seg(rest)
                if rest < piece.size:
                    return piece.seg(piece.size - 1 - rest)
                rest -= piece.size
            raise AssertionError("omega* block must end in an infinite piece")
        rest = offset
        for piece in self.pieces:
            if piece.shape is AtomKind.OMEGA:
                return piece.seg(rest)
            if rest < piece.size:
                return piece.seg(rest)
            rest -= piece.size
        raise InvalidSegment(f"offset {offset} beyond finite block")


@dataclass(frozen=True)
class FuncSpace:
    base: OrderWord  # normalized
    word: OrderWord  # normalized order type of the space
    blocks: tuple[_SegBlock, ...]

    def segment_at(self, x: Elem) -> OpenSegment:
        validate_elem(self.word, x)
        return self.blocks[x.block].seg_at(x.offset)

    def position_of(self, s: OpenSegment) -> Elem:
        validate_segment(self.base, s)
        for b, blk in enumerate(self.blocks):
            offset = _find_in_block(blk, s)
            if offset is not None:
                return Elem(b, offset)
        raise InvalidSegment(f"segment {s} not positioned in {self.word}")


def _piece_index(piece: _Piece, s: OpenSegment) -> int | None:
    """Index of s inside the run, or None."""
    if piece.role == "empty":
        return 0 if s.kind is SegmentKind.EMPTY else None
    if piece.role == "tail":
        return 0 if s.kind is SegmentKind.BLOCK_TAIL and s.block == piece.base_block else None
    if s.kind is not SegmentKind.UP_FROM or s.at is None or s.at.block != piece.base_block:
        return None
    o = s.at.offset
    if piece.shape is AtomKind.FIN:
        i = piece.lo + piece.size - 1 - o
        return i if 0 <= i < piece.size else None
    if piece.shape is AtomKind.OMEGA:
        return o
    return o - piece.lo if o >= piece.lo else None


def _find_in_block(blk: _SegBlock, s: OpenSegment) -> int | None:
    kind = blk.atom.kind
    if kind is AtomKind.OMEGA_STAR:
        skipped = 0
        for piece in reversed(blk.pieces):
            i = _piece_index(piece, s)
            if i is not None:
                if piece.shape is AtomKind.OMEGA_STAR:
                    return skipped + i
                return skipped + piece.size - 1 - i
            skipped += piece.size if piece.shape is AtomKind.FIN else 0
        return None
    skipped = 0
    for piece in blk.pieces:
        i = _piece_index(piece, s)
        if i is not None:
            return skipped + i
        skipped += piece.size if piece.shape is AtomKind.FIN else 0
    return None


def scott_opens(w: OrderWord) -> FuncSpace:
    """Enumerate the open final segments of w in inclusion order."""
    base = normalize(w)
    atoms = base.atoms
    pieces: list[_Piece] = [_Piece(AtomKind.FIN, "empty")]
    for j in range(len(atoms) - 1, -1, -1):
        atom = atoms[j]
        # least valid cut offset: the block bottom works only when it is
        # the global bottom or sees a predecessor across the seam
        bottom_ok = j == 0 or atoms[j - 1].kind in (AtomKind.FIN, AtomKind.OMEGA_STAR)
        if atom.kind is AtomKind.OMEGA_STAR:
            pieces.append(_Piece(AtomKind.OMEGA, "cuts", base_block=j))
            pieces.append(_Piece(AtomKind.FIN, "tail", base_block=j))
        elif atom.kind is AtomKind.OMEGA:
            pieces.append(_Piece(AtomKind.OMEGA_STAR, "cuts", base_block=j, lo=0 if bottom_ok else 1))
        else:
            size = atom.size if bottom_ok else atom.size - 1
            if size > 0:
                pieces.append(_Piece(AtomKind.FIN, "cuts", size=size, base_block=j, lo=atom.size - size))

    # merge runs exactly like word normalization, but keep the pieces
    blocks: list[list[_Piece]] = []
    for piece in pieces:
        if blocks:
            top_kind = _run_kind(blocks[-1])
            mergeable = (
                (piece.shape is AtomKind.FIN and top_kind in (AtomKind.FIN, AtomKind.OMEGA_STAR))
                or (piece.shape is AtomKind.OMEGA and top_kind is AtomKind.FIN)
            )
            if mergeable:
                blocks[-1].append(piece)
                continue
        blocks.append([piece])

    out_blocks = []
    out_atoms = []
    for run in blocks:
        kind = _run_kind(run)
        if kind is AtomKind.FIN:
            atom = fin(sum(p.size for p in run))
        else:
            atom = OMEGA if kind is AtomKind.OMEGA else OMEGA_STAR
        out_atoms.append(atom)
        out_blocks.append(_SegBlock(atom, tuple(run)))
    word = OrderWord(tuple(out_atoms))
    assert normalize(word) == word
    return FuncSpace(base, word, tuple(out_blocks))


def _run_kind(run: list[_Piece]) -> AtomKind:
    if run[0].shape is AtomKind.OMEGA_STAR:
        return AtomKind.OMEGA_STAR
    if run[-1].shape is AtomKind.OMEGA:
        return AtomKind.OMEGA
    return AtomKind.FIN


# -- self-isomorphism and the fixed point construction ---------------------


@dataclass(frozen=True)
class SelfIsoReport:
    base_word: OrderWord
    space_word: OrderWord
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
    base = normalize(w)
    space = scott_opens(base).word
    if base == space:
        return SelfIsoReport(base, space, True, None, ())
    notes = tuple(n for n in (_top_pred_note(base, space),) if n)
    return SelfIsoReport(base, space, False, f"{base} vs {space}", notes)


@dataclass(frozen=True)
class CanonicalIso:
    cpo: NamedCpo
    space: FuncSpace

    def to_segment(self, x: Elem) -> OpenSegment:
        return self.space.segment_at(x)

    def to_elem(self, s: OpenSegment) -> Elem:
        return self.space.position_of(s)


def canonical_iso(cpo: NamedCpo) -> CanonicalIso:
    """Positional isomorphism between a named order and its map space."""
    space = scott_opens(cpo.word)
    if space.word != cpo.word:
        raise NotIsomorphic(f"{cpo.name.value}: {cpo.word} vs {space.word}")
    return CanonicalIso(cpo, space)


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


@dataclass(frozen=True)
class FixedPointReport:
    cpo: NamedCpo
    mu: Mu
    g: OpenSegment
    g_label: str        # "psi_<label of preimage>"
    preimage_label: str
    value: int


def _diagonal_bits(cpo: NamedCpo, space: FuncSpace) -> dict[tuple[int, int], int]:
    """d(x) = [x in segment_at(x)] per (block, offset class).

    Classes: offset 0 and offset >= 1.  The construction only needs the
    class value to be constant, which is asserted on probe offsets.
    """
    w = cpo.word
    bits: dict[tuple[int, int], int] = {}
    for b, atom in enumerate(w.atoms):
        limit = atom.size if atom.kind is AtomKind.FIN else 4
        probes: dict[int, int] = {}
        for o in range(limit):
            x = Elem(b, o)
            probes[o] = eval_segment(w, space.segment_at(x), x)
        bits[(b, 0)] = probes[0]
        tail = {v for o, v in probes.items() if o >= 1}
        if len(tail) > 1:
            raise RuntimeError(f"diagonal not class-constant on block {b} of {w}")
        bits[(b, 1)] = tail.pop() if tail else probes[0]
    return bits


def _segment_of_bits(w: OrderWord, bits: dict[tuple[int, int], int]) -> OpenSegment:
    """Reassemble the monotone map given per-class bits."""
    flat: list[tuple[tuple[int, int], int]] = []
    for b, atom in enumerate(w.atoms):
        first, rest = bits[(b, 0)], bits[(b, 1)]
        if atom.kind is AtomKind.OMEGA_STAR:
            flat.extend([((b, 1), rest), ((b, 0), first)])
        elif atom.kind is AtomKind.FIN and atom.size == 1:
            flat.append(((b, 0), first))
        else:
            flat.extend([((b, 0), first), ((b, 1), rest)])
    values = [v for _, v in flat]
    if any(a > b for a, b in zip(values, values[1:])):
        raise RuntimeError(f"diagonal is not monotone on {w}: {flat}")
    ones = [key for key, v in flat if v == 1]
    if not ones:
        return EMPTY_SEGMENT
    (b, cls) = ones[0]
    atom = w.atoms[b]
    if atom.kind is AtomKind.OMEGA_STAR and cls == 1:
        return block_tail(b)
    return up_from(Elem(b, cls))


def fpt(cpo: NamedCpo, mu: Mu) -> FixedPointReport:
    """Fixed point of mu via the diagonal of the positional isomorphism."""
    iso = canonical_iso(cpo)  # raises NotIsomorphic when inapplicable
    space = iso.space
    if mu is Mu.CONST0:
        g = EMPTY_SEGMENT
    elif mu is Mu.CONST1:
        bottom = extremes(cpo.word)[0]
        assert bottom is not None
        g = up_from(bottom)
    else:
        g = _segment_of_bits(cpo.word, _diagonal_bits(cpo, space))
    x = space.position_of(g)
    value = eval_segment(cpo.word, g, x)
    if value != mu_apply(mu, value):
        raise RuntimeError("fixed point equation failed; construction is broken")
    label = cpo.to_label(x)
    return FixedPointReport(cpo, mu, g, f"psi_{label}", label, value)
