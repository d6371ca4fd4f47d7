"""Finite stages, embedding/projection pairs, and limit paths.

Stage n is the chain of n monotone words: the strings with n-1 letters,
k ones preceded by zeros, ordered by pointwise 0 <= 1.  Two ways of
linking consecutive stages are provided:

  STANDARD     embeds around a middle threshold t = (n-1)//2: labels up
               to t keep their index, the rest shift up by one, and the
               projection collapses the two labels adjacent to the
               threshold.
  ALTERNATIVE  embeds by keeping the index (prepend a zero) and projects
               by truncating the top.

A limit path is a label per stage consistent under projection.  Paths
are classified by where they sit against the scheme's growth diagonal
at the final stage: strictly below means the labels went constant,
strictly above means the path tracks "top minus n", and riding the
diagonal is the alternating growth pattern.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from enum import Enum
from typing import NamedTuple

from .words import OMEGA, OMEGA_STAR, OrderWord, check_range, fin, word_of

# enumerate_monotone walks all 2^m assignments: about 2 s at m = 20,
# doubling with each step
MAX_MONOTONE_CHAIN = 20
# diagram_dot's text grows as depth^3 bytes: about 38 MB in 0.2 s and a
# 165 MB peak at depth 300 (2-vCPU Xeon, Python 3.11), while depth 1100
# would be 1.36 GB held in memory before it is written
MAX_DIAGRAM_DEPTH = 300
# a stage's text grows as n^2 bytes: about 25 MB at n = 5000, while
# n = 100000 would be about 10 GB held in memory before it is written
MAX_STAGE = 5000
# an ep pair and its law check are linear in n: at n = 100000 the
# checked pair prints about 2.6 MB of text in about 0.2 s
MAX_EP_STAGE = 100_000
# limit_paths holds depth^2 labels: at depth 3000 it builds them in
# 0.2 s with an 86 MB peak, and `paths` prints about 38 MB of text in
# about 1 s with a 160 MB peak
MAX_PATHS_DEPTH = 3000
# limit_cpo classifies one label, about 5 µs at any depth (2-vCPU Xeon,
# Python 3.11); the bound stays part of the verb's documented input range
MAX_LIMIT_DEPTH = 1_000_000


class Stage(NamedTuple):
    n: int
    elements: tuple[str, ...]


def stage(n: int) -> Stage:
    """Word k is the window of n-1 letters at offset k of 0^(n-1) 1^(n-1)."""
    check_range("stage", n, 1, MAX_STAGE)
    letters = "0" * (n - 1) + "1" * (n - 1)
    return Stage(n, tuple([letters[k:k + n - 1] for k in range(n)]))


def enumerate_monotone(m: int) -> tuple[str, ...]:
    """All monotone maps from an m-chain into the two-point chain.

    Brute force over all 2^m assignments; serves as the oracle that the
    direct stage construction must match.  Its time doubles with each
    step of m, so m is bounded by MAX_MONOTONE_CHAIN.
    """
    check_range("chain length", m, 1, MAX_MONOTONE_CHAIN)
    out = []
    for bits in itertools.product("01", repeat=m):
        if all(a <= b for a, b in zip(bits, bits[1:])):
            out.append("".join(bits))
    return tuple(sorted(out))


class Scheme(Enum):
    STANDARD = "standard"
    ALTERNATIVE = "alternative"


class LabelMap(NamedTuple):
    from_stage: int
    to_stage: int
    mapping: tuple[int, ...]

    def __call__(self, k: int) -> int:
        return self.mapping[k]


class EpPair(NamedTuple):
    scheme: Scheme
    n: int
    e: LabelMap  # stage n -> stage n+1
    p: LabelMap  # stage n+1 -> stage n


def _diagonal(scheme: Scheme, n: int) -> int:
    """The scheme's threshold at stage n: the last label that e and p both fix."""
    return (n - 1) // 2 if scheme is Scheme.STANDARD else n - 1


def ep_pair(scheme: Scheme, n: int) -> EpPair:
    """e keeps labels up to the diagonal t and shifts the rest up; p undoes it, sending t+1 to t too."""
    check_range("stage", n, 1, MAX_EP_STAGE)
    t = _diagonal(scheme, n)
    e = (*range(t + 1), *range(t + 2, n + 1))
    p = (*range(t + 1), *range(t, n))
    return EpPair(scheme, n, LabelMap(n, n + 1, e), LabelMap(n + 1, n, p))


class EpLawReport(NamedTuple):
    """The section/retraction laws; the fields are the keys of ep.schema.json's `laws`."""

    p_after_e_is_id: bool
    e_after_p_below_id: bool
    e_monotone: bool
    p_monotone: bool
    ok: bool  # all four laws hold
    witness: str | None  # first failing label, described


def check_ep_laws(pair: EpPair) -> EpLawReport:
    """Check the section/retraction laws on an explicit pair of maps, each law one scan of their tuples."""
    n, e, p = pair.n, pair.e.mapping.__getitem__, pair.p.mapping.__getitem__
    below, upto = range(n), range(n + 1)
    # the first label that breaks each of the first two laws
    pe = next(itertools.compress(below, map(operator.ne, map(p, map(e, below)), below)), None)
    ep = next(itertools.compress(upto, map(operator.gt, map(e, map(p, upto)), upto)), None)
    witness = (f"p(e({pe})) = {p(e(pe))}" if pe is not None  # p∘e's failure comes first
               else None if ep is None else f"e(p({ep})) = {e(p(ep))}")
    e_mono = all(map(operator.le, map(e, range(n - 1)), map(e, range(1, n))))
    p_mono = all(map(operator.le, map(p, below), map(p, range(1, n + 1))))
    return EpLawReport(pe is None, ep is None, e_mono, p_mono,
                       pe is None and ep is None and e_mono and p_mono, witness)


class PathClass(Enum):
    FINITE = "finite"
    INFINITY = "infinity"
    PRIMED = "primed"


class LimitPath(NamedTuple):
    entries: tuple[int, ...]  # label at stage 1, 2, ..., depth
    kind: PathClass
    index: int | None  # the n of a finite or primed path

    @property
    def label(self) -> str:
        if self.kind is PathClass.INFINITY:
            return "inf"
        return f"{self.index}'" if self.kind is PathClass.PRIMED else str(self.index)


def _classify(scheme: Scheme, depth: int, last: int) -> tuple[PathClass, int | None]:
    """Kind and index of the path that ends at label `last` of stage `depth`."""
    diagonal = _diagonal(scheme, depth)
    if last == diagonal:
        return PathClass.INFINITY, None
    if last < diagonal:
        return PathClass.FINITE, last
    return PathClass.PRIMED, depth - 1 - last


def limit_paths(scheme: Scheme, depth: int) -> tuple[LimitPath, ...]:
    """Every projection-consistent label path through stages 1..depth.

    Every projection is onto, so a path is the chain of projections of
    its final label L: there is exactly one path per label of stage
    `depth`.  The p into stage n fixes the labels up to the diagonal t_n
    and moves the rest down by one, so the path's label at stage n is
    max(min(L, t_n), L - (depth - n)) in closed form.  A row is thus a
    prefix of the diagonal sequence followed by a tail: the constant L
    for a finite path or inf (L <= t_depth), labels rising by one to L
    for a primed path.  Bisection finds the cut, and each row is two
    tuple slices.  The p maps are monotone, so rows from increasing
    final labels are pointwise increasing and come out already sorted.
    The labels number depth^2, so depth is bounded by MAX_PATHS_DEPTH.
    """
    check_range("depth", depth, 2, MAX_PATHS_DEPTH)
    identity = tuple(range(depth))
    diagonal = tuple(_diagonal(scheme, n) for n in range(1, depth + 1))  # t_1, ..., t_depth
    rise = tuple(map(operator.sub, identity, diagonal))  # n - 1 - t_n, non-decreasing
    paths = []
    for last in identity:
        if last <= diagonal[-1]:
            cut = bisect.bisect_left(diagonal, last)
            entries = diagonal[:cut] + (last,) * (depth - cut)
        else:  # the tail L - (depth - n) wins once n - 1 - t_n exceeds depth - 1 - L
            slack = depth - 1 - last
            cut = bisect.bisect_right(rise, slack)
            entries = diagonal[:cut] + identity[cut - slack:last + 1]
        paths.append(LimitPath(entries, *_classify(scheme, depth, last)))
    return tuple(paths)


def limit_cpo(scheme: Scheme, depth: int = 12) -> OrderWord:
    """Order type of the limit: omega + 1, then omega* if any path is primed.

    A path's kind rises with its final label (finite below the scheme's
    diagonal, infinity on it, primed above), and the diagonal is a final
    label, so the kind of the top label decides.
    """
    check_range("depth", depth, 2, MAX_LIMIT_DEPTH)
    if _classify(scheme, depth, depth - 1)[0] is PathClass.PRIMED:
        return word_of(OMEGA, fin(1), OMEGA_STAR)
    return word_of(OMEGA, fin(1))


def diagram_dot(scheme: Scheme, depth: int) -> str:
    """Stage diagram in dot form: columns of stages, e/p arrows between.

    A label fixed by both maps gets a single two-headed edge; a shifted
    embedding or collapsing projection gets its own labelled arrow.
    Following the p arrows down from a label of the last stage traces
    that label's limit path, the chain of its projections.  From stage n
    to stage n+1 the edges come in three runs around the diagonal t_n:
    a two-headed edge for each label j <= t_n, one lone p arrow from
    t_n+1, and an e/p pair for each label j > t_n+1.  Each run is one
    `%` on a repeated template, over node names built once per stage.
    The text grows as depth^3 bytes, so depth is bounded by
    MAX_DIAGRAM_DEPTH.
    """
    check_range("depth", depth, 2, MAX_DIAGRAM_DEPTH)
    # one join and one split name a whole stage's nodes; only stage 1's word is empty
    nodes = [['"s1_λ"']] + [(f'"s{n}_' + f'"\n"s{n}_'.join(stage(n).elements) + '"').split("\n")
                            for n in range(2, depth + 1)]
    out = [f"digraph stages_{scheme.value} {{\n  rankdir=LR;\n  node [shape=plaintext];\n"]
    out += [f"  {{ rank=same; {' '.join(members)} }}\n" for members in nodes]
    chain = itertools.chain.from_iterable
    for n in range(1, depth):
        t = _diagonal(scheme, n)
        lower, upper = nodes[n - 1], nodes[n]
        out.append("  %s -> %s [dir=both];\n" * (t + 1) % tuple(chain(zip(lower, upper[:t + 1]))))
        out.append(f'  {upper[t + 1]} -> {lower[t]} [label="p"];\n')
        pairs = n - 1 - t  # the labels j = t+2, ..., n
        out.append('  %s -> %s [label="e"];\n  %s -> %s [label="p"];\n' * pairs
                   % tuple(chain(zip(lower[t + 1:], upper[t + 2:], upper[t + 2:], lower[t + 1:]))))
    out.append("}\n")
    return "".join(out)
