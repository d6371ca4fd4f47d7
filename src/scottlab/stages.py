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
label is decided by where its final label sits against the scheme's
diagonal at the final stage: strictly below, the labels went constant
(a numeral k); on it, the path rides the diagonal (inf); strictly
above, the path tracks "top minus n" (a primed k').
The limits are catalogue orders, tied to them by tests only: the
STANDARD tower's paths are the elements of phi (omega + 1 + omega*,
isomorphic to lambda_hat_prime, whose boundary m is the inf path), and
the ALTERNATIVE tower's those of theta (omega + 1, isomorphic to
omega_prime).
"""

import itertools
import operator
from enum import Enum
from typing import NamedTuple

from .words import OMEGA, OMEGA_STAR, OrderWord, check_range, fin, word_of

# enumerate_monotone walks all 2^m assignments: about 2 s at m = 20,
# doubling with each step
MAX_MONOTONE_CHAIN = 20
# diagram_dot's text grows as depth^3 bytes: at depth 300 `diagram` prints
# about 39 MB in 0.07-0.14 s with a 56 MB peak, as text or JSON (46 MB for
# the 29 MB of the alternative scheme), from a fresh process (2-vCPU Xeon,
# Python 3.11), while depth 1100 would be 1.4-1.8 GB held in memory before
# it is written
MAX_DIAGRAM_DEPTH = 300
# a stage's text grows as n^2 bytes: about 25 MB at n = 5000, while
# n = 100000 would be about 10 GB held in memory before it is written
MAX_STAGE = 5000
# an ep pair and its law check are linear in n: at n = 100000 the
# checked pair prints about 2.6 MB of text in 0.16-0.18 s with a 40 MB peak
MAX_EP_STAGE = 100_000
# a path holds depth labels and there are depth paths: at depth 3000
# limit_paths builds them in 0.18-0.23 s with an 83-84 MB peak, and `paths`,
# which joins each row's slices of two strings into one text instead, prints
# about 38 MB in 0.12-0.17 s with a 112-128 MB peak, as text or JSON, from a
# fresh process: its text and the copy that stdout encodes are most of it
MAX_PATHS_DEPTH = 3000
# limit_cpo compares one label with the diagonal, about 5 µs at any depth
# (2-vCPU Xeon, Python 3.11); the bound stays part of the verb's documented
# input range
MAX_LIMIT_DEPTH = 1_000_000


class Stage(NamedTuple):
    n: int
    elements: tuple[str, ...]


def _words(n: int) -> list[str]:
    """Stage n's words, ascending: word k is the window of n-1 letters at offset k of 0^(n-1) 1^(n-1)."""
    letters = "0" * (n - 1) + "1" * (n - 1)
    return [letters[k:k + n - 1] for k in range(n)]


def stage(n: int) -> Stage:
    """Word k is the window of n-1 letters at offset k of 0^(n-1) 1^(n-1)."""
    check_range("stage", n, 1, MAX_STAGE)
    return Stage(n, tuple(_words(n)))


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


def _diagonals(scheme: Scheme, depth: int) -> list[int]:
    """_diagonal at stages 1, ..., depth, built with no call per stage."""
    if scheme is Scheme.STANDARD:
        return list(map(operator.rshift, range(depth), itertools.repeat(1)))  # (n - 1) // 2
    return list(range(depth))


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
    """Check the section/retraction laws on an explicit pair of maps, each law one whole scan of their tuples.

    e must map stage n's n labels to labels 0..n of stage n+1, and p stage
    n+1's n+1 labels to labels 0..n-1 of stage n: a map of any other
    length, or an entry that names no label of its target stage, is no
    map between the two stages, and raises ValueError before any law is
    read.  p∘e = id compares p read at e's entries with 0..n-1, e∘p <= id
    reads e at p's entries against 0..n, and a map is monotone when its
    entries come out sorted.  Only when one of the first two laws fails
    does a first-failure scan name its witness, p∘e's failure first.
    """
    n = pair.n
    e, p = pair.e.mapping, pair.p.mapping
    if (len(e), len(p)) != (n, n + 1):
        raise ValueError(f"e and p must map {n} and {n + 1} labels, got {len(e)} and {len(p)}")
    for name, m, target in (("e", e, n + 1), ("p", p, n)):  # stage `target` has labels 0..target-1
        if min(m, default=0) < 0 or max(m, default=0) >= target:
            k = next(k for k, v in enumerate(m) if not 0 <= v < target)
            raise ValueError(f"{name}({k}) = {m[k]} is no label of stage {target}, 0..{target - 1}")
    pe_ok = list(map(p.__getitem__, e)) == list(range(n))
    ep_ok = all(map(operator.le, map(e.__getitem__, p), range(n + 1)))
    e_mono, p_mono = list(e) == sorted(e), list(p) == sorted(p)
    witness = None
    if not pe_ok:  # p∘e's failure comes first
        k = next(itertools.compress(itertools.count(), map(operator.ne, map(p.__getitem__, e), range(n))))
        witness = f"p(e({k})) = {p[e[k]]}"
    elif not ep_ok:
        k = next(itertools.compress(itertools.count(), map(operator.gt, map(e.__getitem__, p), range(n + 1))))
        witness = f"e(p({k})) = {e[p[k]]}"
    return EpLawReport(pe_ok, ep_ok, e_mono, p_mono, pe_ok and ep_ok and e_mono and p_mono, witness)


class LimitPath(NamedTuple):
    entries: tuple[int, ...]  # label at stage 1, 2, ..., depth
    label: str  # its element of the limit: a numeral k, inf, or a primed k'


def _path_cuts(scheme: Scheme, depth: int) -> tuple[list[int], list[int]]:
    """The diagonal t_1, ..., t_depth and each final label L's cut, L ascending.

    A path's row is the diagonal's first `cut` labels, then a tail of
    depth - cut labels ending at L: all L when L <= t_depth, rising by
    one when L lies above.  For L up to the diagonal the cut is the
    stage where the diagonal reaches L; above it, where the rise
    n - 1 - t_n first exceeds the slack depth - 1 - L.  Both start at 0
    at stage 1 and step by 0 or 1, and their sum n - 1 steps by one, so
    from stage 2 on exactly one of them steps at each stage: the cuts
    are 0 for L = 0, the diagonal's steps in order for L = 1..t_depth,
    and the rise's steps from the last, where it reaches the largest
    slack + 1, to the first, where it reaches 1, for the rest.  A cut
    counts the diagonal's labels kept, so the step onto stage n + 1 is
    cut n.  Either tail holds at least one label.
    """
    check_range("depth", depth, 2, MAX_PATHS_DEPTH)
    diagonal = _diagonals(scheme, depth)
    steps = list(map(operator.ne, diagonal[1:], diagonal))  # onto stages 2..depth: does the diagonal step
    rises = list(itertools.compress(range(1, depth), map(operator.not_, steps)))
    return diagonal, [0, *itertools.compress(range(1, depth), steps), *reversed(rises)]


def _path_labels(texts: list[str], top: int) -> list[str]:
    """Each path's label, final label L ascending, from the texts of 0..depth-1 and t_depth, the top:
    L below it, inf at it, and (depth - 1 - L)' above."""
    return [*texts[:top], "inf", *map(operator.add, reversed(texts[:len(texts) - 1 - top]), itertools.repeat("'"))]


def limit_paths(scheme: Scheme, depth: int) -> tuple[LimitPath, ...]:
    """Every projection-consistent label path through stages 1..depth.

    Every projection is onto, so a path is the chain of projections of
    its final label L: there is exactly one path per label of stage
    `depth`.  The p into stage n fixes the labels up to the diagonal t_n
    and moves the rest down by one, so the path's label at stage n is
    max(min(L, t_n), L - (depth - n)) in closed form.  A row is thus a
    prefix of the diagonal sequence followed by a tail: the constant L
    for a finite path or inf (L <= t_depth), labels rising by one to L
    for a primed path.  `_path_cuts` reads each row's cut off the steps
    of the diagonal and of the rise, and `_path_labels` names the path:
    L below t_depth, inf at it, and (depth - 1 - L)' above.  Each row
    here is then two tuple slices, and `paths_text` cuts the same rows
    from two strings.  The p maps are monotone, so rows from increasing
    final labels are pointwise increasing and come out already sorted.
    The labels number depth^2, so depth is bounded by MAX_PATHS_DEPTH.
    """
    diagonal, cuts = _path_cuts(scheme, depth)
    top, diagonal, identity = diagonal[-1], tuple(diagonal), tuple(range(depth))
    labels = _path_labels(list(map(str, identity)), top)
    return tuple([LimitPath(diagonal[:cut] + (identity[cut + last + 1 - depth:last + 1] if last > top
                                              else (last,) * (depth - cut)), label)
                  for last, cut, label in zip(identity, cuts, labels)])


def paths_text(scheme: Scheme, depth: int, opening: str = "", mid: str = " <-> ", closing: str = "",
               separator: str = "\n", head: str = "", tail: str = "") -> str:
    """The paths of limit_paths as one text: each row `opening`, its entries joined by commas, `mid`, its
    label and `closing`, rows joined by `separator`, between `head` and `tail`.

    Two strings are built once, the diagonal's labels and 0, ..., depth-1, each label followed by a comma,
    with where each label starts in each.  A row with final label L is then four texts between the row
    tokens: the first string up to the row's cut; its body, L's text and comma repeated for a constant
    tail, or for a rising one the second string from the tail's first label, one above the diagonal at the
    tail's first stage, up to L; L's text; and the path's label, which below the top is L's text again.
    So no row reads its labels one by one, no tuple of a path is built, and the answer is one join of
    those texts and the tokens: with JSON's row tokens, and the object's keys before the rows and its
    brackets after them, the JSON object.
    """
    diagonal, cuts = _path_cuts(scheme, depth)
    top = diagonal[-1]
    upto = "%d," * depth % tuple(range(depth))  # one format of every label, not a str() call each
    texts = upto[:-1].split(",")
    commaed = list(map(operator.add, texts, itertools.repeat(",")))
    widths = list(map(len, commaed))
    along = "".join(map(commaed.__getitem__, diagonal))
    along_at = list(itertools.accumulate(map(widths.__getitem__, diagonal), initial=0))
    upto_at = list(itertools.accumulate(widths, initial=0))
    rows = [head + opening] + [None, None, None, mid, None, closing + separator + opening] * depth
    rows[1::6] = [along[:along_at[cut]] for cut in cuts]
    rows[2::6] = [*[commaed[last] * (depth - 1 - cut) for last, cut in zip(range(top + 1), cuts)],
                  *[upto[upto_at[diagonal[cut] + 1]:end] for end, cut in zip(upto_at[top + 1:depth], cuts[top + 1:])]]
    rows[3::6] = texts
    rows[5::6] = _path_labels(texts, top)
    rows[-1] = closing + tail
    return "".join(rows)


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
    """Stage diagram in dot form: the join of diagram_pieces, whose docstring describes it."""
    return "".join(diagram_pieces(scheme, depth, quote, newline, head, tail))


def diagram_pieces(scheme: Scheme, depth: int, quote: str = '"', newline: str = "\n", head: str = "",
                   tail: str = "") -> list[str]:
    r"""Stage diagram in dot form, as a list of texts: columns of stages, e/p arrows between.

    A label fixed by both maps gets a single two-headed edge; a shifted
    embedding or collapsing projection gets its own labelled arrow.
    Following the p arrows down from a label of the last stage traces
    that label's limit path, the chain of its projections.  From stage n
    to stage n+1 the edges come in three runs around the diagonal t_n:
    a two-headed edge for each label j <= t_n, one lone p arrow from
    t_n+1, and an e/p pair for each label j > t_n+1.  Every node name of
    a run is one of stage n's words w between two pieces fixed for the
    stage: stage n+1's word j is 0w for j <= t_n, and w1, with w stage
    n's word j-1, for j > t_n.  So a two-headed edge is w, the arrow into
    "s(n+1)_0, w again and its ending, and an e/p pair is one word four
    times.  A run is a list of its edges' constant pieces repeated once
    per edge, whose word slots slice assignment fills from stage n's
    list of words, the windows of one string (as `stage` builds them),
    which also make the stage's rank line in one join: no Python code
    runs per edge, and each stage's edges are one join.
    Stage 1's one word is empty and drawn as λ, so its rank line and
    its two edges are written out, and they are the only non-ASCII
    characters of the text.  The pieces are the header with stage 1's
    rank line, each other stage's rank line, stage 1's two edges, each
    other stage's edges, and the closing brace: all but the header and
    stage 1's edges are ASCII, stored at 1 byte per character, which a
    UTF-8 writer copies as they are.  A piece per stage, not one join
    of them all, keeps each copy that a writer makes of a piece small.
    Every quote and line end of the text is the token `quote` or
    `newline`, and the text holds no other backslash or control
    character, so with the tokens `\"` and `\n` it comes out already
    escaped as the body of a JSON string.  `head` and `tail` go at the
    start of the first piece and the end of the last, so a writer that
    wraps the text, as the CLI's JSON writer does, copies it no second
    time.
    The text grows as depth^3 bytes, so depth is bounded by
    MAX_DIAGRAM_DEPTH.
    """
    check_range("depth", depth, 2, MAX_DIAGRAM_DEPTH)
    q, nl = quote, newline
    p_end = f"{q} [label={q}p{q}];{nl}"  # a p arrow's line after its lower word
    ranks, edges = [], []
    for n in range(2, depth + 1):
        words, a, b = _words(n), f"{q}s{n}_", f"{q}s{n + 1}_"  # a and b: a node name of stage n, n+1 before its word
        ranks.append(f"  {{ rank=same; {a}" + f"{q} {a}".join(words) + f"{q} }}{nl}")
        if n == depth:
            break
        # j <= t: stage n's word w and stage n+1's 0w; then from stage n+1's label t+1, the word w_t 1
        t = _diagonal(scheme, n)
        run = [f"  {a}"] + [None, f"{q} -> {b}0", None, f"{q} [dir=both];{nl}  {a}"] * (t + 1)
        run[1::4] = run[3::4] = words[:t + 1]
        run[-1] = f"{q} [dir=both];{nl}  {b}"
        run += (words[t], f"1{q} -> {a}", words[t], p_end)
        if t + 1 < n:  # the labels j = t+2, ..., n of stage n+1, each word w 1 over stage n's word w
            lo = words[t + 1:]
            pairs = [f"  {a}"] + [None, f"{q} -> {b}", None, f"1{q} [label={q}e{q}];{nl}  {b}",
                                  None, f"1{q} -> {a}", None, f"{q} [label={q}p{q}];{nl}  {a}"] * len(lo)
            pairs[1::8] = pairs[3::8] = pairs[5::8] = pairs[7::8] = lo
            pairs[-1] = p_end  # the last edge's line has no edge after it to indent
            run += pairs
        edges.append("".join(run))
    # stage 1's one word is empty, drawn as λ: its rank line and its two edges are written out
    return [f"{head}digraph stages_{scheme.value} {{{nl}  rankdir=LR;{nl}  node [shape=plaintext];{nl}"
            f"  {{ rank=same; {q}s1_λ{q} }}{nl}", *ranks,
            f"  {q}s1_λ{q} -> {q}s2_0{q} [dir=both];{nl}  {q}s2_1{q} -> {q}s1_λ{p_end}", *edges,
            f"}}{nl}{tail}"]
