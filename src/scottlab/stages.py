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

import itertools
from enum import Enum
from typing import NamedTuple

from .words import OMEGA, OMEGA_STAR, OrderWord, check_range, fin, word_of

# enumerate_monotone walks all 2^m assignments: about 2 s at m = 20,
# doubling with each step
MAX_MONOTONE_CHAIN = 20
# diagram_dot's text grows as depth^3 bytes: about 38 MB at depth 300,
# while depth 1100 would be 1.36 GB held in memory before it is written
MAX_DIAGRAM_DEPTH = 300
# a stage's text grows as n^2 bytes: about 25 MB at n = 5000, while
# n = 100000 would be about 10 GB held in memory before it is written
MAX_STAGE = 5000
# an ep pair and its law check are linear in n: at n = 100000 the
# checked pair prints about 2.6 MB of text in 0.2-0.5 s
MAX_EP_STAGE = 100_000
# limit_paths holds depth^2 labels: about 38 MB of text, 340 MB of
# memory and 4 s at depth 3000
MAX_PATHS_DEPTH = 3000
# limit_cpo classifies one label, about 5 µs at any depth (2-vCPU Xeon,
# Python 3.11); the bound stays part of the verb's documented input range
MAX_LIMIT_DEPTH = 1_000_000


class Stage(NamedTuple):
    n: int
    elements: tuple[str, ...]


def stage(n: int) -> Stage:
    check_range("stage", n, 1, MAX_STAGE)
    return Stage(n, tuple("0" * (n - 1 - k) + "1" * k for k in range(n)))


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


def ep_pair(scheme: Scheme, n: int) -> EpPair:
    check_range("stage", n, 1, MAX_EP_STAGE)
    if scheme is Scheme.STANDARD:
        t = (n - 1) // 2
        e = tuple(k if k <= t else k + 1 for k in range(n))
        p = tuple(k if k <= t else k - 1 for k in range(n + 1))
    else:
        e = tuple(range(n))
        p = tuple(min(k, n - 1) for k in range(n + 1))
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
    """Check the section/retraction laws on an explicit pair of maps."""
    n, e, p = pair.n, pair.e, pair.p
    # the first label that breaks each of the first two laws
    pe = next((k for k in range(n) if p(e(k)) != k), None)
    ep = next((k for k in range(n + 1) if e(p(k)) > k), None)
    witness = (f"p(e({pe})) = {p(e(pe))}" if pe is not None  # p∘e's failure comes first
               else None if ep is None else f"e(p({ep})) = {e(p(ep))}")
    e_mono = all(e(k) <= e(k + 1) for k in range(n - 1))
    p_mono = all(p(k) <= p(k + 1) for k in range(n))
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
    diagonal = (depth - 1) // 2 if scheme is Scheme.STANDARD else depth - 1
    if last == diagonal:
        return PathClass.INFINITY, None
    if last < diagonal:
        return PathClass.FINITE, last
    return PathClass.PRIMED, depth - 1 - last


def limit_paths(scheme: Scheme, depth: int) -> tuple[LimitPath, ...]:
    """Every projection-consistent label path through stages 1..depth.

    Every projection is onto, so a path is the chain of projections of
    its final label: there is exactly one path per label of stage
    `depth`, and walking each of them down costs O(depth^2) in all.
    The p maps are monotone, so walks from increasing final labels are
    pointwise increasing and come out already sorted.  The labels
    number depth^2, so depth is bounded by MAX_PATHS_DEPTH.
    """
    check_range("depth", depth, 2, MAX_PATHS_DEPTH)
    labels = list(range(depth))
    columns = [labels]  # labels of stage depth, depth-1, ..., 1
    for n in range(depth - 1, 0, -1):
        p = ep_pair(scheme, n).p.mapping
        labels = [p[k] for k in labels]
        columns.append(labels)
    return tuple(LimitPath(e, *_classify(scheme, depth, e[-1])) for e in zip(*reversed(columns)))


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


def _gvquote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def diagram_dot(scheme: Scheme, depth: int) -> str:
    """Stage diagram in dot form: columns of stages, e/p arrows between.

    A label fixed by both maps gets a single two-headed edge; a shifted
    embedding or collapsing projection gets its own labelled arrow.
    Following the p arrows down from a label of the last stage traces
    that label's limit path, the chain of its projections.  Each stage's
    node names are built once, so the O(depth^2) nodes and edges cost
    one `stage` call per stage.  The text itself grows as depth^3 bytes,
    so depth is bounded by MAX_DIAGRAM_DEPTH.
    """
    check_range("depth", depth, 2, MAX_DIAGRAM_DEPTH)
    lines = [f"digraph stages_{scheme.value} {{", "  rankdir=LR;", "  node [shape=plaintext];"]
    nodes = [[_gvquote(f"s{n}_{text or 'λ'}") for text in stage(n).elements]
             for n in range(1, depth + 1)]
    for members in nodes:
        lines.append(f"  {{ rank=same; {' '.join(members)} }}")
    for n in range(1, depth):
        pair = ep_pair(scheme, n)
        e, p = pair.e.mapping, pair.p.mapping
        lower, upper = nodes[n - 1], nodes[n]
        for j in range(n + 1):
            k = p[j]
            if e[k] == j:
                if k == j:
                    lines.append(f"  {lower[k]} -> {upper[j]} [dir=both];")
                else:
                    lines.append(f"  {lower[k]} -> {upper[j]} [label=\"e\"];")
                    lines.append(f"  {upper[j]} -> {lower[k]} [label=\"p\"];")
            else:
                lines.append(f"  {upper[j]} -> {lower[k]} [label=\"p\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
