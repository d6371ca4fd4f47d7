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

A limit path is a label per stage consistent under projection.  Its
label is decided where its row is cut, by where its final label sits
against the scheme's diagonal at the final stage: strictly below, the
labels went constant (a numeral k); on it, the path rides the diagonal
(inf); strictly above, the path tracks "top minus n" (a primed k').
The limits are catalogue orders, tied to them by tests only: the
STANDARD tower's paths are the elements of phi (omega + 1 + omega*,
isomorphic to lambda_hat_prime, whose boundary m is the inf path), and
the ALTERNATIVE tower's those of theta (omega + 1, isomorphic to
omega_prime).
"""

import bisect
import itertools
import operator
from enum import Enum
from typing import NamedTuple

from .words import OMEGA, OMEGA_STAR, OrderWord, check_range, fin, word_of

# enumerate_monotone walks all 2^m assignments: about 2 s at m = 20,
# doubling with each step
MAX_MONOTONE_CHAIN = 20
# diagram_dot's text grows as depth^3 bytes: at depth 300 `diagram` prints
# about 38 MB in 0.18-0.25 s with a 128 MB peak as text, 129 MB as JSON,
# from a fresh process (2-vCPU Xeon, Python 3.11), while depth 1100 would
# be 1.36 GB held in memory before it is written
MAX_DIAGRAM_DEPTH = 300
# a stage's text grows as n^2 bytes: about 25 MB at n = 5000, while
# n = 100000 would be about 10 GB held in memory before it is written
MAX_STAGE = 5000
# an ep pair and its law check are linear in n: at n = 100000 the
# checked pair prints about 2.6 MB of text in about 0.2 s
MAX_EP_STAGE = 100_000
# a path holds depth labels and there are depth paths: at depth 3000
# limit_paths builds them in 0.16-0.20 s with an 88 MB peak, and `paths`,
# which cuts each row's text from two strings instead, prints about 38 MB
# in 0.17-0.29 s with a 124 MB peak, as text or JSON, from a fresh process
MAX_PATHS_DEPTH = 3000
# limit_cpo compares one label with the diagonal, about 5 µs at any depth
# (2-vCPU Xeon, Python 3.11); the bound stays part of the verb's documented
# input range
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
    """Check the section/retraction laws on an explicit pair of maps, each law one scan of their tuples.

    e must map stage n's n labels and p stage n+1's n+1: a map of any other
    length is no map between the two stages, and raises ValueError.
    """
    n = pair.n
    if (len(pair.e.mapping), len(pair.p.mapping)) != (n, n + 1):
        raise ValueError(f"e and p must map {n} and {n + 1} labels, "
                         f"got {len(pair.e.mapping)} and {len(pair.p.mapping)}")
    e, p = pair.e.mapping.__getitem__, pair.p.mapping.__getitem__
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


class LimitPath(NamedTuple):
    entries: tuple[int, ...]  # label at stage 1, 2, ..., depth
    label: str  # its element of the limit: a numeral k, inf, or a primed k'


def _path_cuts(scheme: Scheme, depth: int) -> tuple[tuple[int, ...], list[tuple[int, int, bool, str]]]:
    """The diagonal t_1, ..., t_depth and, per final label L ascending, (cut, L, rises, label).

    A path's row is the diagonal's first `cut` labels, then a tail of
    depth - cut labels ending at L: all L when L <= t_depth, rising by
    one when L lies above.  For L up to the diagonal the cut is where the
    diagonal reaches L; above it, where n - 1 - t_n first exceeds the
    slack depth - 1 - L.  Either tail holds at least one label.
    """
    check_range("depth", depth, 2, MAX_PATHS_DEPTH)
    diagonal = tuple(_diagonal(scheme, n) for n in range(1, depth + 1))
    top = diagonal[-1]
    rise = [n - t for n, t in enumerate(diagonal)]  # n - 1 - t_n at stage n, non-decreasing
    rows = [(bisect.bisect_left(diagonal, last), last, False, str(last)) for last in range(top)]
    rows.append((bisect.bisect_left(diagonal, top), top, False, "inf"))
    rows += [(bisect.bisect_right(rise, depth - 1 - last), last, True, f"{depth - 1 - last}'")
             for last in range(top + 1, depth)]
    return diagonal, rows


def limit_paths(scheme: Scheme, depth: int) -> tuple[LimitPath, ...]:
    """Every projection-consistent label path through stages 1..depth.

    Every projection is onto, so a path is the chain of projections of
    its final label L: there is exactly one path per label of stage
    `depth`.  The p into stage n fixes the labels up to the diagonal t_n
    and moves the rest down by one, so the path's label at stage n is
    max(min(L, t_n), L - (depth - n)) in closed form.  A row is thus a
    prefix of the diagonal sequence followed by a tail: the constant L
    for a finite path or inf (L <= t_depth), labels rising by one to L
    for a primed path.  `_path_cuts` bisects for each row's cut and
    names the path in the same branch: L below t_depth, inf at it, and
    (depth - 1 - L)' above; each row here is then two tuple slices, and
    `limit_path_texts` cuts the same rows from two strings.  The p maps
    are monotone, so rows from increasing final labels are pointwise
    increasing and come out already sorted.
    The labels number depth^2, so depth is bounded by MAX_PATHS_DEPTH.
    """
    diagonal, rows = _path_cuts(scheme, depth)
    identity = tuple(range(depth))
    return tuple([LimitPath(diagonal[:cut] + (identity[cut + last + 1 - depth:last + 1] if rises
                                              else (last,) * (depth - cut)), label)
                  for cut, last, rises, label in rows])


def limit_path_texts(scheme: Scheme, depth: int) -> list[tuple[str, str]]:
    """Each path of limit_paths as the text of its entries, joined by commas, and its label.

    Two strings are built once: the diagonal's labels and 0, ..., depth-1,
    each joined by commas and ended by one, with where each label starts
    in each.  A row's text is then a slice of the first, the diagonal up
    to its cut, and its tail: a slice of the second for a rising one, L's
    text repeated for a constant one.  So no row reads its labels one by
    one, and no tuple of a path is built.
    """
    diagonal, rows = _path_cuts(scheme, depth)
    texts = list(map(str, range(depth)))
    diagonal_texts = list(map(texts.__getitem__, diagonal))
    along, upto = ",".join(diagonal_texts) + ",", ",".join(texts) + ","
    along_at = list(itertools.accumulate([len(s) + 1 for s in diagonal_texts], initial=0))
    upto_at = list(itertools.accumulate([len(s) + 1 for s in texts], initial=0))
    return [(along[:along_at[cut]] + (upto[upto_at[cut + last + 1 - depth]:upto_at[last + 1] - 1] if rises
                                      else ",".join([texts[last]] * (depth - cut))), label)
            for cut, last, rises, label in rows]


def limit_cpo(scheme: Scheme, depth: int = 12) -> OrderWord:
    """Order type of the limit: omega + 1, then omega* if any path is primed.

    A path is primed when its final label lies above the scheme's
    diagonal, and the diagonal is itself a final label (the inf path),
    so some path is primed exactly when the diagonal lies below the top
    label depth - 1.
    """
    check_range("depth", depth, 2, MAX_LIMIT_DEPTH)
    if _diagonal(scheme, depth) < depth - 1:
        return word_of(OMEGA, fin(1), OMEGA_STAR)
    return word_of(OMEGA, fin(1))


def diagram_dot(scheme: Scheme, depth: int, quote: str = '"', newline: str = "\n", head: str = "",
                tail: str = "") -> str:
    r"""Stage diagram in dot form: columns of stages, e/p arrows between.

    A label fixed by both maps gets a single two-headed edge; a shifted
    embedding or collapsing projection gets its own labelled arrow.
    Following the p arrows down from a label of the last stage traces
    that label's limit path, the chain of its projections.  From stage n
    to stage n+1 the edges come in three runs around the diagonal t_n:
    a two-headed edge for each label j <= t_n, one lone p arrow from
    t_n+1, and an e/p pair for each label j > t_n+1.  A run is a list
    of its edges' constant pieces, an arrow and an ending, repeated once
    per edge, whose node slots are filled by slice assignment from the
    two stages' lists of names: no Python code runs per edge, and the
    one final join copies each piece once.  Stage n+1's first n words are
    stage n's with a zero in front and its last is n ones, so one replace
    and one split name a stage's nodes from the stage before.
    Every quote and line end of the text is the token `quote` or
    `newline`, and the text holds no other backslash or control
    character, so with the tokens `\"` and `\n` it comes out already
    escaped as the body of a JSON string.  `head` and `tail` go before
    and after it in the same join, so a writer that wraps the text, as
    the CLI's JSON writer does, copies it no second time.
    The text grows as depth^3 bytes, so depth is bounded by
    MAX_DIAGRAM_DEPTH.
    """
    check_range("depth", depth, 2, MAX_DIAGRAM_DEPTH)
    q, nl = quote, newline
    # stage 1's one word is empty, drawn as λ; a word holds only 0s and 1s, so the replace matches where a name starts
    names, nodes = f"{q}s1_{q}", [[f"{q}s1_λ{q}"]]
    for n in range(2, depth + 1):
        names = names.replace(f"{q}s{n - 1}_", f"{q}s{n}_0") + f"\n{q}s{n}_{'1' * (n - 1)}{q}"
        nodes.append(names.split("\n"))
    out = [f"{head}digraph stages_{scheme.value} {{{nl}  rankdir=LR;{nl}  node [shape=plaintext];{nl}"]
    out += [f"  {{ rank=same; {' '.join(members)} }}{nl}" for members in nodes]
    both = [None, " -> ", None, f" [dir=both];{nl}  "]
    pair = [None, " -> ", None, f" [label={q}e{q}];{nl}  ", None, " -> ", None, f" [label={q}p{q}];{nl}  "]
    p_end = f" [label={q}p{q}];{nl}"
    for n in range(1, depth):
        t = _diagonal(scheme, n)
        lower, upper = nodes[n - 1], nodes[n]
        run = both * (t + 1)
        run[0::4], run[2::4] = lower[:t + 1], upper[:t + 1]
        out.append("  ")
        out += run
        out += (upper[t + 1], " -> ", lower[t], p_end)
        if t + 1 < n:  # the labels j = t+2, ..., n: an e arrow up, then a p arrow down
            lo, up = lower[t + 1:], upper[t + 2:]
            run = pair * len(lo)
            run[0::8], run[2::8], run[4::8], run[6::8] = lo, up, up, lo
            run[-1] = p_end  # the last edge's line has no edge after it to indent
            out.append("  ")
            out += run
    out.append(f"}}{nl}{tail}")
    return "".join(out)
