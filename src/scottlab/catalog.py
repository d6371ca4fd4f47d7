"""Catalogue of the named countable orders and their element labels.

The string-populated orders are slices of one stack of four monotypic
string families, listed from the bottom up:

  R_STRINGS   ...0 1^v    an omega layer, ascending with v
  ALL_ONES    ...111      a single element
  ALL_ZEROS   000...      a single element
  L_STRINGS   0^u 11...   an omega* layer, descending with u

The whole stack is lambda_prime.  A Half is a run of consecutive
layers, each block carrying a numeral label style; a pair half pins
one end of every pair and lets the other end range over its layers.
Pins and membership are in layer coordinates, (layer, count) per
string: NamedCpo.free is the one rule for whether a half holds an
element.  Elements are their ends inside the package: `element`, `held`
and `locate` take ends, and a string is built only to parse an input
literal (`to_elem`) or to spell a witness or a report field; a label's
literal is cut from its run's one text (`strings.render_literals`), with
no string built.
The table at the end of this module gives each order once, as one half
or as a lower half stacked under an upper half.  In a glued order the
top of the lower half is the bottom of the upper half (the boundary)
and is counted once.  The orders two, phi and theta borrow a shape and
its numerals but carry no strings.

Everything else is derived from the table: the word, the display word,
the label parser and renderer, and the element at each pair of ends.
Label styles, with c a string's finite letter count:

  n     numerals c            n'    primed numerals c'
  +n    +c, or c; 0 reads m'  -n    -c; 0 reads m'
  any other style names the block's single element: inf, inf', m, -inf, +inf

Parsers accept every alias that unambiguously names an element (also
string literals such as "...0011" and pair literals such as
"(000..., ...111)"); renderers give one canonical label per element,
the literal itself in orders that print literals.
"""

import bisect
import itertools
import re
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from . import strings as st
from .errors import BadElement, UnknownCpo
from .words import (OMEGA, OMEGA_STAR, AtomKind, Elem, OrderAtom, OrderWord, check_range, fin, iso, neighbors,
                    normal_layout, rank_key, read_decimal, window_offsets, window_runs, word_of)

if TYPE_CHECKING:  # only annotations name the map space, so the catalogue never runs funcspace
    from .funcspace import SelfIsoReport


class CpoName(Enum):
    TWO = "two"
    PHI = "phi"
    THETA = "theta"
    OMEGA_SET = "omega"
    OMEGA_OPP = "omega_opp"
    OMEGA_PRIME = "omega_prime"
    OMEGA_PRIME_OPP = "omega_prime_opp"
    LAMBDA = "lambda"
    LAMBDA_PRIME = "lambda_prime"
    LAMBDA_HAT_PRIME = "lambda_hat_prime"
    XI = "xi"
    XI_OPP = "xi_opp"
    V = "v"


_NUMERALS = {
    "n": re.compile(r"^(\d+)$"),
    "n'": re.compile(r"^(\d+)'$"),
    "+n": re.compile(r"^\+?(\d+)$"),
    "-n": re.compile(r"^-(\d+)$"),
}


def canonical_label_text(label: str) -> str:
    """Fold unicode variants into the ASCII forms labelers understand."""
    t = label.strip()
    for a, b in (("⋯", "..."), ("…", "..."), ("′", "'"), ("∞", "inf"), ("ω", "w")):
        t = t.replace(a, b)
    return t


def _parse_count(style: str, t: str) -> int | None:
    """The count a label names in a block of this style, if any."""
    if style not in _NUMERALS:
        return 0 if t == style else None
    if style in ("+n", "-n") and t in ("m'", "0"):
        return 0
    m = _NUMERALS[style].match(t)
    if m is None:
        return None
    c = read_decimal(m.group(1))
    return c if style in ("n", "n'") or c >= 1 else None  # a signed 0 is spelled m' or 0


# the text around the count in each numeral style's labels
_AFFIXES = {style: tuple(style.split("n")) for style in _NUMERALS}


def _render_counts(style: str, counts) -> list[str]:
    """The label of each count of a run in a block of this style; the counts ascend or descend."""
    if style not in _AFFIXES:
        return [style] * len(counts)
    head, tail = _AFFIXES[style]
    labels = [f"{head}{c}{tail}" for c in counts]
    if head and 0 in counts:  # a signed 0 is spelled m'
        labels[counts.index(0)] = "m'"
    return labels


class Layer(NamedTuple):
    """One block of the string stack: its atom and the family of its strings (None off the stack)."""

    atom: OrderAtom
    family: st.SpecKind | None

    def __hash__(self) -> int:
        # the family alone: a tuple's hash would go through two Enum.__hash__ calls, and layers key `locate`'s runs
        return hash(self.family and self.family._name_)

    def string(self, c: int) -> st.MonotypicString:
        """The layer's string at count c: its family's recipe c + 1."""
        return st.realize(st.SpecifiedString(self.family, c + 1))


R_STRINGS = Layer(OMEGA, st.SpecKind.III)
ALL_ONES = Layer(fin(1), st.SpecKind.IV)
ALL_ZEROS = Layer(fin(1), st.SpecKind.I)
L_STRINGS = Layer(OMEGA_STAR, st.SpecKind.II)
CHAIN_2 = Layer(fin(2), None)  # the two-point chain, outside the stack


def _layer_count(s: st.MonotypicString) -> tuple[Layer, int]:
    c = st.classify(s)
    return _LAYER_OF[c.family], (0 if c.index is None else c.index - 1)


# Layer coordinates: a string sits at (layer, count) in the stack, and an
# element at its ends, the coordinates of its pair's left and right strings,
# or None and the coordinates of its string.  `ends_of` reads them off a
# string or pair that comes from outside the package.

def ends_of(x) -> tuple:
    if isinstance(x, st.PairString):
        return _layer_count(x.left), _layer_count(x.right)
    return None, (_layer_count(x) if isinstance(x, st.MonotypicString) else None)


def spell(ends: tuple):
    """The string or pair at these ends."""
    left, (layer, c) = ends
    return layer.string(c) if left is None else st.PairString(left[0].string(left[1]), layer.string(c))


def opp_ends(ends: tuple) -> tuple:
    """The ends of the dual element: opp turns the stack upside down, keeping counts, and swaps a pair's ends."""
    left, right = (end and (STACK[-1 - STACK.index(end[0])], end[1]) for end in ends)
    return (None, right) if left is None else (right, left)


def stack_key(layer: Layer, c: int) -> tuple[int, int]:
    """Sort key of the string at (layer, c) in the whole stack, which is the order lambda_prime."""
    return STACK.index(layer), (-c if layer.atom.kind is AtomKind.OMEGA_STAR else c)


def window_end_keys(layer: Layer, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """`stack_key` of the layer's first and last count in its window up to n, its least and greatest keys there."""
    i = STACK.index(layer)
    if layer.atom.kind is AtomKind.OMEGA_STAR:
        return (i, -n), (i, 0)
    return (i, 0), (i, n if layer.atom.kind is AtomKind.OMEGA else layer.atom.size - 1)


class Half(NamedTuple):
    """Consecutive stack layers; a pair half pins the left or right end."""

    name: str
    blocks: tuple[tuple[Layer, str], ...]  # (layer, label style), bottom to top
    left: st.MonotypicString | None = None
    right: st.MonotypicString | None = None

    @property
    def pin(self) -> tuple[int, tuple[Layer, int] | None]:
        """(i, end): each of the half's elements has `end` at index i of its ends; a half of strings has None at 0."""
        pinned = self.left if self.right is None else self.right
        return int(self.right is not None), pinned and _layer_count(pinned)

    @property
    def layers(self) -> tuple[Layer, ...]:
        return tuple(layer for layer, _ in self.blocks)


class _Run(NamedTuple):
    """A block of a catalogue order, read off one half's layer."""

    half: int
    layer: Layer
    style: str
    start: int   # least count present; 1 where gluing took the top away
    block: int   # block of the normalized word
    base: int    # least offset of the run within that block, in the block's direction
    first: int   # offset of count `start`
    step: int    # count c sits at offset first + step * (c - start)


class Dual(NamedTuple):
    """An element of a half and its dual: where they sort, and which halves hold the dual (`NamedCpo.duals`).

    `keys` are the two sort keys, in the order or, where the halves hold strings, in the whole stack; None
    where the order does not hold both elements.  `holders` tells, per half, whether it holds the dual.
    """

    keys: tuple[tuple[int, int], tuple[int, int]] | None
    holders: tuple[bool, ...]


class Boundary(NamedTuple):
    """The element where a glued order's halves meet, and its facts, which no window changes."""

    ends: tuple
    pair: st.PairString       # the pair at its ends
    run: _Run                 # the run that holds it, at count `count`
    count: int
    label: str                # named, not spelled, in a literal order too
    neighbors: tuple[str | None, str | None]  # the labels of its predecessor and successor, if any


class NamedCpo:
    """A catalogued order: one half, or a lower half under an upper half."""

    def __init__(self, name: CpoName, halves: tuple[Half, ...], *,
                 glued: bool = False, literal: bool = False, bare: bool = False):
        self.name = name
        self.halves = halves
        self.literal = literal  # elements print as string or pair literals
        self.bare = bare        # elements are numerals only, not strings
        self._isos: dict[OrderWord, bool] = {}  # isomorphic_to's verdicts, by the other order's word
        # each half's layers, as `free` reads them beside `pins`: tuples, whose `in` finds the same Layer object
        # without hashing it
        self.layers = tuple(h.layers for h in halves)
        blocks = [(i, layer, style, 0) for i, h in enumerate(halves) for layer, style in h.blocks]
        self.boundary: Boundary | None = None  # a glued order's, set below once its runs can label it
        if glued:
            # the lower half gives up its top; the upper half's bottom is the boundary
            top = len(halves[0].blocks) - 1
            i, layer, style, _ = blocks[top]
            if layer.atom.kind is AtomKind.FIN:
                del blocks[top]
            else:
                blocks[top] = (i, layer, style, 1)
        self.display_word = word_of(*(layer.atom for _, layer, _, _ in blocks))
        self.word, layout = normal_layout(self.display_word.atoms)
        runs = []
        for (i, layer, style, start), (block, base) in zip(blocks, layout):
            # an omega* block reads an absorbed finite layer from its top, so its counts descend
            down = layer.atom.kind is AtomKind.FIN and self.word.atoms[block].kind is AtomKind.OMEGA_STAR
            runs.append(_Run(i, layer, style, start, block, base,
                             base + layer.atom.size - 1 if down else base, -1 if down else 1))
        # in order of place, so the last run placed at or below an offset holds it
        self._runs = sorted(runs, key=lambda r: (r.block, r.base))
        self._places = [(r.block, r.base) for r in self._runs]  # with one at offset 0 of every block
        self._run_of = {(r.half, r.layer): r for r in self._runs}
        # for the labels of a literal order: the text around each pair half's free end's literal, its pinned
        # end spelled once
        self._wraps = tuple(("(", f", {h.right})") if h.right is not None else None if h.left is None
                            else (f"({h.left}, ", ")") for h in halves)
        if glued:  # the upper half's bottom; its neighbors are labelled before the record that names it is set
            ends = self.ends_at(1, halves[1].layers[0], 0)
            run, c = self.locate(ends)
            labels = tuple(None if y is None else self.to_label(y) for y in neighbors(self.word, self._elem(run, c)))
            self.boundary = Boundary(ends, spell(ends), run, c, _render_counts(run.style, (c,))[0], labels)

    @cached_property
    def pins(self) -> tuple[tuple[int, tuple[Layer, int] | None], ...]:
        """Each half's `Half.pin`."""
        return tuple(h.pin for h in self.halves)

    def free(self, i: int, ends: tuple) -> tuple[Layer, int] | None:
        """Half i's free end of the element at these ends, or None if half i does not hold it.

        The half holds it if its pin is the other end and its layers hold this one.  This is the one
        membership rule; `locate` adds the glued start of the run.
        """
        side, at = self.pins[i]
        end = ends[1 - side]
        return end if ends[side] == at and end and end[0] in self.layers[i] else None

    @cached_property
    def settle(self) -> int:
        """The least count from which on every layer is uniform.

        Below it lie every glued start and the count of every pinned end,
        so a count below it may name an element held by another layer's
        run (the boundary, say).  From it on, the element at count c is
        held by one run for all c, at position (block, ±(first + step·(c − start))).
        """
        return 1 + max([r.start for r in self._runs] + [at[1] for _, at in self.pins if at is not None])

    @cached_property
    def self_iso(self) -> "SelfIsoReport":
        """`funcspace.self_iso` of the order's word: is the order isomorphic to its own map space [w -> 2]?"""
        from . import funcspace  # built on first use: most verbs never read the map space
        return funcspace.self_iso(self.word)

    def isomorphic_to(self, other: "NamedCpo") -> bool:
        """`words.iso` of the two orders' words, decided once per word of `other` and held, as `self_iso` is."""
        if (verdict := self._isos.get(other.word)) is None:
            verdict = self._isos[other.word] = iso(self.word, other.word)
        return verdict

    @cached_property
    def duals(self) -> tuple[tuple[tuple[Dual, ...], ...], ...]:
        """Per half, per layer: where the element at each count and its dual lie, whatever the window.

        Entry c of a layer is the `Dual` of the element at count c: for every count of a finite layer, and for
        an omega or omega* layer for the counts up to settle + 1; the entries at settle and settle + 1 stand
        for every count from settle on.
        """
        return tuple(tuple(tuple(self._dual(self.ends_at(i, layer, c)) for c in range(
            layer.atom.size if layer.atom.kind is AtomKind.FIN else self.settle + 2)) for layer in h.layers)
            for i, h in enumerate(self.halves))

    def _dual(self, ends: tuple) -> Dual:
        dual = opp_ends(ends)
        holders = tuple(self.free(i, dual) is not None for i in range(len(self.halves)))
        try:
            return Dual((self._key(ends), self._key(dual)), holders)
        except BadElement:
            return Dual(None, holders)

    def _key(self, ends: tuple) -> tuple[int, int]:
        """The sort key of the element at these ends: in the whole stack for strings, else in the order."""
        if self.pins[0][1] is None:
            return stack_key(*ends[1])
        return rank_key(self.word, self.element(ends))

    def _elem(self, run: _Run, c: int) -> Elem:
        return Elem(run.block, run.first + run.step * (c - run.start))

    def ends_at(self, half: int, layer: Layer, c: int) -> tuple:
        """The ends of the element that half `half` holds at (layer, c): its pin (i, at) puts `at` at index i."""
        side, at = self.pins[half]
        return (at, (layer, c)) if side == 0 else ((layer, c), at)

    def locate(self, ends: tuple) -> tuple[_Run, int]:
        """The run holding the element at these ends, and its free end's count; BadElement if none.

        The run is that of the free end's layer in a half that holds the element (`free`), if it reaches that count.
        """
        for i in () if self.bare else range(len(self.halves)):
            free = self.free(i, ends)
            run = free and self._run_of.get((i, free[0]))
            if run and free[1] >= run.start:
                return run, free[1]
        raise BadElement(f"{spell(ends)} is not an element of {self.name.value}")

    def element(self, ends: tuple) -> Elem:
        """The element at these ends."""
        return self._elem(*self.locate(ends))

    def held(self, ends: tuple) -> st.MonotypicString:
        """The string the element at these ends holds, read off the run that holds it."""
        run, c = self.locate(ends)
        return run.layer.string(c)

    def to_elem(self, label: str) -> Elem:
        t = canonical_label_text(label)
        for run in self._runs:
            c = _parse_count(run.style, t)
            if c is not None and c >= run.start:
                if self.literal:  # its label is a literal of about c letters
                    check_range("label count", c, 0, st.MAX_RECIPE_INDEX)
                return self._elem(run, c)
        if not self.bare:
            if self.pins[0][1] is not None and t.startswith("("):
                return self.element(ends_of(st.parse_pair_literal(t)))
            if self.pins[0][1] is None and "..." in t:
                return self.element(ends_of(st.parse_literal(t)))
        raise BadElement(f"no element labelled {label!r} here")

    def _labels(self, run: _Run, counts) -> list[str]:
        """The labels of the elements at these counts of a run, which ascend or descend: numerals, or in a
        literal order literals cut a run at a time (`strings.render_literals`), and the boundary's name."""
        if not self.literal:
            return _render_counts(run.style, counts)
        labels = st.render_literals(run.layer.family, counts)
        if self._wraps[run.half] is not None:
            head, tail = self._wraps[run.half]
            labels = [head + text + tail for text in labels]
        b = self.boundary
        if b is not None and b.run is run and b.count in counts:
            labels[counts.index(b.count)] = b.label
        return labels

    def to_label(self, x: Elem) -> str:
        run = self._runs[bisect.bisect_right(self._places, x) - 1]  # the last run placed at or below x
        return self._labels(run, (run.start + run.step * (x.offset - run.first),))[0]

    def window_labels(self, depth: int) -> list[str]:
        """`to_label` of each element of `window_elems(self.word, depth)`, in order, a run at a time.

        The window's offsets in a run are one range (`window_runs`), so its counts are one range
        too, the run's formula at the range's ends, and no run is searched.
        """
        labels: list[str] = []
        for i, offsets in window_runs(self.word, depth, self._places):
            r = self._runs[i]
            labels += self._labels(r, range(r.start + r.step * (offsets.start - r.first),
                                            r.start + r.step * (offsets.stop - r.first), r.step * offsets.step))
        return labels


OMEGA_HALF = Half("omega", ((R_STRINGS, "n"),))
OMEGA_OPP_HALF = Half("omega_opp", ((L_STRINGS, "n'"),))
OMEGA_PRIME_HALF = Half("omega_prime", ((R_STRINGS, "n"), (ALL_ONES, "inf")))
OMEGA_PRIME_OPP_HALF = Half("omega_prime_opp", ((ALL_ZEROS, "inf'"), (L_STRINGS, "n'")))
OMEGA_HAT_PRIME_HALF = Half("omega_hat_prime", ((R_STRINGS, "n"), (ALL_ONES, "m")),
                            left=st.ALL_ZEROS_L)
OMEGA_HAT_PRIME_OPP_HALF = Half("omega_hat_prime_opp", ((ALL_ZEROS, "m"), (L_STRINGS, "n'")),
                                right=st.ALL_ONES_R)
XI_HALF = Half("xi", ((ALL_ZEROS, "-inf"), (L_STRINGS, "-n")), left=st.ALL_ZEROS_R)
XI_OPP_HALF = Half("xi_opp", ((R_STRINGS, "+n"), (ALL_ONES, "+inf")), right=st.ALL_ONES_L)

# the whole stack, bottom to top: the layers of lambda_prime's two halves
STACK = tuple(layer for h in (OMEGA_PRIME_HALF, OMEGA_PRIME_OPP_HALF) for layer, _ in h.blocks)
_LAYER_OF = {layer.family: layer for layer in STACK}

_CATALOG: dict[CpoName, NamedCpo] = {c.name: c for c in (
    NamedCpo(CpoName.TWO, (Half("two", ((CHAIN_2, "n"),)),), bare=True),
    NamedCpo(CpoName.PHI, (OMEGA_PRIME_HALF, OMEGA_OPP_HALF), bare=True),
    NamedCpo(CpoName.THETA, (OMEGA_PRIME_HALF,), bare=True),
    NamedCpo(CpoName.OMEGA_SET, (OMEGA_HALF,), literal=True),
    NamedCpo(CpoName.OMEGA_OPP, (OMEGA_OPP_HALF,), literal=True),
    NamedCpo(CpoName.OMEGA_PRIME, (OMEGA_PRIME_HALF,), literal=True),
    NamedCpo(CpoName.OMEGA_PRIME_OPP, (OMEGA_PRIME_OPP_HALF,), literal=True),
    NamedCpo(CpoName.LAMBDA, (OMEGA_PRIME_HALF, OMEGA_OPP_HALF)),
    NamedCpo(CpoName.LAMBDA_PRIME, (OMEGA_PRIME_HALF, OMEGA_PRIME_OPP_HALF)),
    NamedCpo(CpoName.LAMBDA_HAT_PRIME, (OMEGA_HAT_PRIME_HALF, OMEGA_HAT_PRIME_OPP_HALF),
             glued=True, literal=True),
    NamedCpo(CpoName.XI, (XI_HALF,)),
    NamedCpo(CpoName.XI_OPP, (XI_OPP_HALF,)),
    NamedCpo(CpoName.V, (XI_HALF, XI_OPP_HALF), glued=True),
)}

_ALIASES = {"omega_set": CpoName.OMEGA_SET, "lam": CpoName.LAMBDA}


def named_cpo(name: str | CpoName | NamedCpo) -> NamedCpo:
    """The catalogued order of this name; an order passes through unchanged."""
    if isinstance(name, NamedCpo):
        return name
    if isinstance(name, CpoName):
        return _CATALOG[name]
    key = name.strip().lower()
    try:
        return _CATALOG[_ALIASES.get(key) or CpoName(key)]
    except ValueError:
        raise UnknownCpo(f"no catalogued order named {name!r}") from None


# the chain's text grows linearly with the window: about 1.7 MB in 0.5 s
# at 100000, while 1000000 takes 5 s and prints 18 MB
MAX_CHAIN_WINDOW = 100_000
# a chain of literals grows as the window squared: lambda_hat_prime prints
# about 4.1 MB at 2000, and would build about 10 GB at 100000
MAX_LITERAL_WINDOW = 2000


def chain_display(cpo: NamedCpo, depth: int) -> str:
    """Ascending window rendered as a chain with ellipses inside infinite blocks."""
    check_range("window", depth, 0, MAX_LITERAL_WINDOW if cpo.literal else MAX_CHAIN_WINDOW)
    labels = iter(cpo.window_labels(depth))
    parts: list[str] = []
    for atom in cpo.word.atoms:
        if atom.kind is AtomKind.OMEGA_STAR:
            parts.append("...")
        parts.extend(itertools.islice(labels, len(window_offsets(atom, depth))))
        if atom.kind is AtomKind.OMEGA:
            parts.append("...")
    return " \u2286 ".join(parts)
