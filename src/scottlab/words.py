"""Order-type words: countable linear orders written as finite sums.

A word is a nonempty sequence of atoms, each atom one of

  * a finite chain of size k >= 1,
  * an ascending copy of the naturals (omega),
  * a descending copy of the naturals (omega*, every element has
    infinitely many elements below it within the block).

Concatenation is ordered sum: every element of an earlier block sits
below every element of a later block.  Elements are addressed by
(block, offset); offsets in a finite or omega block count up from the
block's least element, offsets in an omega* block count down from the
block's greatest element.

Words admit a confluent rewrite system

    k + j  -> (k + j)      (adjacent finite chains merge)
    k + omega -> omega     (a finite prefix of omega is absorbed)
    omega* + k -> omega*   (a finite suffix of omega* is absorbed)

whose normal forms classify these orders up to isomorphism.
normal_layout() applies them once and says where each input atom lands:
its normal-form block, and the offset in that block's direction where
its elements begin; normalize() is its first half.  rank_key() is a
tuple that sorts like an element, the order compare() decides.  iso()
additionally compares an invariant signature read off the order itself
(extremes and seam adjacency), so a rewrite bug cannot silently
misreport a verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import BadDepth, BadElement, BadLiteral


class AtomKind(Enum):
    FIN = "fin"
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"


# the kinds as module names: each AtomKind.X lookup costs about 0.2 µs, and
# normal_layout runs under every normalize
_FIN, _OMEGA, _STAR = AtomKind.FIN, AtomKind.OMEGA, AtomKind.OMEGA_STAR


@dataclass(frozen=True)
class OrderAtom:
    kind: AtomKind
    size: int = 0  # meaningful only for FIN, where it must be >= 1

    def __post_init__(self) -> None:
        if self.kind is AtomKind.FIN:
            if self.size < 1:
                raise ValueError("finite atom needs size >= 1")
        elif self.size != 0:
            raise ValueError("only finite atoms carry a size")

    def __str__(self) -> str:
        if self.kind is AtomKind.FIN:
            return str(self.size)
        return "ω" if self.kind is AtomKind.OMEGA else "ω*"


def fin(size: int) -> OrderAtom:
    return OrderAtom(AtomKind.FIN, size)


OMEGA = OrderAtom(AtomKind.OMEGA)
OMEGA_STAR = OrderAtom(AtomKind.OMEGA_STAR)


@dataclass(frozen=True)
class OrderWord:
    atoms: tuple[OrderAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a word needs at least one atom")

    def __str__(self) -> str:
        return "+".join(str(a) for a in self.atoms)


def word_of(*atoms: OrderAtom) -> OrderWord:
    return OrderWord(tuple(atoms))


def parse_word(text: str) -> OrderWord:
    """Parse "w+1+w*" (ASCII) or the same with the Greek letter."""
    atoms: list[OrderAtom] = []
    for raw in text.split("+"):
        tok = raw.strip().replace("ω", "w")
        if tok == "w":
            atoms.append(OMEGA)
        elif tok == "w*":
            atoms.append(OMEGA_STAR)
        elif tok.isdecimal() and tok != "0" and int(tok) > 0:
            atoms.append(fin(int(tok)))
        else:
            raise BadLiteral(f"bad order-word atom: {raw!r}")
    return OrderWord(tuple(atoms))


@dataclass(frozen=True)
class Elem:
    block: int
    offset: int

    def __str__(self) -> str:
        return f"({self.block},{self.offset})"


class Ordering(Enum):
    LT = "<"
    EQ = "="
    GT = ">"


def validate_elem(w: OrderWord, x: Elem) -> None:
    if not 0 <= x.block < len(w.atoms):
        raise BadElement(f"block {x.block} out of range for {w}")
    if x.offset < 0:
        raise BadElement(f"negative offset in {x}")
    atom = w.atoms[x.block]
    if atom.kind is AtomKind.FIN and x.offset >= atom.size:
        raise BadElement(f"offset {x.offset} exceeds finite block of size {atom.size}")


def _block_least(w: OrderWord, j: int) -> Elem | None:
    atom = w.atoms[j]
    if atom.kind is AtomKind.OMEGA_STAR:
        return None
    return Elem(j, 0)


def _block_greatest(w: OrderWord, j: int) -> Elem | None:
    atom = w.atoms[j]
    if atom.kind is AtomKind.FIN:
        return Elem(j, atom.size - 1)
    if atom.kind is AtomKind.OMEGA_STAR:
        return Elem(j, 0)
    return None


def rank_key(w: OrderWord, x: Elem) -> tuple[int, int]:
    """A tuple that sorts like x in w: omega* offsets count downward."""
    return (x.block, -x.offset if w.atoms[x.block].kind is _STAR else x.offset)


def compare(w: OrderWord, a: Elem, b: Elem) -> Ordering:
    """Total order: blocks left to right, offsets by block convention."""
    validate_elem(w, a)
    validate_elem(w, b)
    ka, kb = rank_key(w, a), rank_key(w, b)
    if ka == kb:
        return Ordering.EQ
    return Ordering.LT if ka < kb else Ordering.GT


def neighbors(w: OrderWord, x: Elem) -> tuple[Elem | None, Elem | None]:
    """Immediate predecessor and successor, either possibly absent."""
    validate_elem(w, x)
    atom = w.atoms[x.block]

    if atom.kind is AtomKind.OMEGA_STAR:
        pred: Elem | None = Elem(x.block, x.offset + 1)
    elif x.offset > 0:
        pred = Elem(x.block, x.offset - 1)
    elif x.block > 0:
        pred = _block_greatest(w, x.block - 1)
    else:
        pred = None

    at_block_top = (
        atom.kind is AtomKind.FIN and x.offset == atom.size - 1
    ) or (atom.kind is AtomKind.OMEGA_STAR and x.offset == 0)
    if atom.kind is AtomKind.OMEGA or not at_block_top:
        succ: Elem | None = Elem(
            x.block, x.offset + 1 if atom.kind is not AtomKind.OMEGA_STAR else x.offset - 1
        )
    elif x.block + 1 < len(w.atoms):
        succ = _block_least(w, x.block + 1)
    else:
        succ = None
    return pred, succ


def extremes(w: OrderWord) -> tuple[Elem | None, Elem | None]:
    """(least, greatest), either possibly absent."""
    return _block_least(w, 0), _block_greatest(w, len(w.atoms) - 1)


def normal_layout(atoms: Sequence[OrderAtom]) -> tuple[OrderWord, tuple[tuple[int, int], ...]]:
    """The normal form of a sum of atoms, and where each atom lands in it.

    For each input atom, (block, start): the normal-form block that holds
    its elements, and the offset, counted in that block's direction, at
    which they begin.  A finite atom absorbed by an omega* block is read
    from its top: its greatest element sits at offset start.
    """
    out: list[OrderAtom] = []
    filled: list[int] = []  # finite elements placed in each block so far
    layout: list[tuple[int, int]] = []  # (block, elements placed before the atom)
    from_top: list[int] = []  # the atoms that land in omega* blocks
    for atom in atoms:
        kind = atom.kind
        if out:
            b = len(out) - 1
            top = out[b].kind
            if kind is _FIN and top is not _OMEGA:
                # a finite atom merges into a finite block or is absorbed by an omega* one
                layout.append((b, filled[b]))
                filled[b] += atom.size
                if top is _FIN:
                    out[b] = fin(filled[b])
                else:
                    from_top.append(len(layout) - 1)
                continue
            if kind is _OMEGA and top is _FIN:
                # finite runs were already merged, so one block is absorbed
                layout.append((b, filled[b]))
                out[b] = atom
                continue
        if kind is _STAR:
            from_top.append(len(layout))
        layout.append((len(out), 0))
        out.append(atom)
        filled.append(atom.size)
    # an omega* block counts down from its top, where its last atom sits
    for i in from_top:
        b, below = layout[i]
        layout[i] = (b, filled[b] - below - atoms[i].size)
    return OrderWord(tuple(out)), tuple(layout)


def normalize(w: OrderWord) -> OrderWord:
    return normal_layout(w.atoms)[0]


def signature(w: OrderWord) -> tuple:
    """Isomorphism invariants read off the order, not the word.

    Records existence of global extremes, each block's kind and size,
    and at every seam whether the adjacent block ends are attained and
    immediately linked.  Used as a cross-check on normalize().
    """
    bot, top = extremes(w)
    feats: list = [bot is not None, top is not None]
    for j, atom in enumerate(w.atoms):
        entry: list = [atom.kind.value, atom.size]
        if j > 0:
            left_top = _block_greatest(w, j - 1)
            right_bot = _block_least(w, j)
            entry.append(left_top is not None and neighbors(w, left_top)[1] is not None)
            entry.append(right_bot is not None and neighbors(w, right_bot)[0] is not None)
        feats.append(tuple(entry))
    return tuple(feats)


def iso(a: OrderWord, b: OrderWord) -> bool:
    """Isomorphism of the denoted orders, with an independent cross-check."""
    na, nb = normalize(a), normalize(b)
    verdict = na == nb
    if (signature(na) == signature(nb)) != verdict:
        raise RuntimeError(f"normal forms and signatures disagree on {a} vs {b}")
    return verdict


def check_range(what: str, value: int, low: int, high: int) -> None:
    """Reject a size outside [low, high], the range in which its operation is defined and cheap."""
    if value < low:
        raise BadDepth(f"{what} must be >= {low}, got {value}")
    if value > high:
        raise BadDepth(f"{what} must be <= {high}, got {value}")


def check_window(depth: int) -> None:
    """Reject a negative window: it would drop whole blocks and make scans vacuous."""
    if depth < 0:
        raise BadDepth(f"window must be >= 0, got {depth}")


def window_offsets(atom: OrderAtom, depth: int) -> range:
    """An atom's offsets in ascending order, up to depth within an infinite atom."""
    if atom.kind is AtomKind.FIN:
        return range(atom.size)
    if atom.kind is AtomKind.OMEGA:
        return range(depth + 1)
    return range(depth, -1, -1)


def window_elems(w: OrderWord, depth: int) -> list[Elem]:
    """Ascending finite window: offsets up to depth within infinite blocks."""
    check_window(depth)
    return [Elem(j, o) for j, atom in enumerate(w.atoms) for o in window_offsets(atom, depth)]
