import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import hypothesis.strategies as hs
import pytest
from hypothesis import given

from scottlab import cli, funcspace
from scottlab.catalog import named_cpo
from scottlab.cli import run
from scottlab.errors import InvalidSegment, NotIsomorphic
from scottlab.funcspace import (
    EMPTY_SEGMENT,
    Mu,
    SegmentKind,
    block_tail,
    diagonal_map,
    eval_segment,
    fpt,
    mu_apply,
    mu_continuous,
    scott_opens,
    self_iso,
    up_from,
    validate_segment,
)
from scottlab.stages import enumerate_monotone
from scottlab.words import (
    OMEGA,
    OMEGA_STAR,
    AtomKind,
    Elem,
    Ordering,
    compare,
    extremes,
    fin,
    neighbors,
    normalize,
    parse_word,
    window_elems,
    word_of,
)

from window_scan import all_names, canonical_iso

SPACE_WORDS = {
    "two": "3",
    "phi": "w+1+w*",
    "theta": "1+w*",
    "omega": "1+w*",
    "omega_opp": "w+1",
    "omega_prime": "1+w*",
    "omega_prime_opp": "w+2",
    "lambda": "w+1+w*",
    "lambda_prime": "w+2+w*",
    "lambda_hat_prime": "w+1+w*",
    "xi": "w+2",
    "xi_opp": "1+w*",
    "v": "1+w*+w+2",
}

SELF_ISO = {"phi", "lambda", "lambda_prime", "lambda_hat_prime"}


@pytest.mark.parametrize("name", all_names())
def test_space_words(name):
    assert scott_opens(named_cpo(name).word).word == parse_word(SPACE_WORDS[name])


@pytest.mark.parametrize("name", all_names())
def test_self_iso_verdicts(name):
    report = self_iso(named_cpo(name).word)
    assert report.is_iso == (name in SELF_ISO)
    if report.is_iso:
        assert report.reason is None and report.notes == ()
    else:
        assert report.reason


def test_self_iso_top_predecessor_notes():
    for name in ("theta", "v"):
        notes = self_iso(named_cpo(name).word).notes
        assert len(notes) == 1
        assert "immediate predecessor" in notes[0]
    assert self_iso(parse_word("2")).notes == ()


@pytest.mark.parametrize("k", range(1, 9))
def test_finite_chain_space_matches_brute_force(k):
    w = parse_word(str(k))
    space = scott_opens(w)
    assert space.word == parse_word(str(k + 1))
    xs = window_elems(w, 0)
    rows = []
    for pos in window_elems(space.word, 0):
        seg = space.segment_at(pos)
        rows.append("".join(str(eval_segment(w, seg, x)) for x in xs))
    assert rows == list(enumerate_monotone(k))


def _per_cell_rows(w, space, window):
    """The text of each segment of the space's window and its row, one eval_segment per cell."""
    cols = window_elems(w, window)
    segs = [space.segment_at(pos) for pos in window_elems(space.word, window)]
    return [(str(seg), "".join(str(eval_segment(w, seg, x)) for x in cols)) for seg in segs]


def _cut_rows(rows, n):
    cuts, texts = rows
    return [(text, "0" * k + "1" * (n - k)) for text, k in zip(texts, cuts, strict=True)]


def _segment_of(text):
    """The segment whose `str` is this row text."""
    if text == "empty":
        return EMPTY_SEGMENT
    kind, _, numbers = text.partition("(")
    numbers = [int(n) for n in numbers.removesuffix(")").split(",")]
    seg = up_from(Elem(*numbers)) if kind == "up" else block_tail(*numbers)
    assert str(seg) == text
    return seg


@pytest.mark.parametrize("name", all_names())
def test_table_cuts_match_the_per_cell_rows(name):
    """Each row's text and cut, from its piece, against the brute force: one eval_segment per cell."""
    w = named_cpo(name).word
    space = scott_opens(w)
    for window in range(31):
        n = len(window_elems(w, window))
        assert _cut_rows(space.rows(window), n) == _per_cell_rows(w, space, window), window


small_words = hs.lists(hs.sampled_from([OMEGA, OMEGA_STAR, fin(1), fin(2), fin(3)]),
                       min_size=1, max_size=4).map(lambda atoms: word_of(*atoms))


@given(small_words)
def test_table_cuts_match_the_per_cell_rows_beyond_the_catalogue(word):
    """Every segment of windows 0..12, against one eval_segment per cell."""
    space = scott_opens(word)
    w = space.base
    for window in range(13):
        n = len(window_elems(w, window))
        assert _cut_rows(space.rows(window), n) == _per_cell_rows(w, space, window), window


@given(hs.one_of(small_words, hs.sampled_from(all_names()).map(lambda name: named_cpo(name).word)),
       hs.integers(0, 40))
def test_every_table_row_is_a_valid_segment(word, window):
    space = scott_opens(word)
    cuts, texts = space.rows(window)
    for text, k in zip(texts, cuts, strict=True):
        validate_segment(space.base, _segment_of(text))
        assert 0 <= k <= len(window_elems(space.base, window))


def _row_texts_match_the_segments(space, window):
    """The row texts of the window, written a piece at a time, are `str` of one segment_at per position."""
    texts = list(space.rows(window)[1])
    assert texts == [str(space.segment_at(pos)) for pos in window_elems(space.word, window)], window


@pytest.mark.parametrize("name", all_names())
def test_row_texts_are_the_segments_of_the_window(name):
    space = scott_opens(named_cpo(name).word)
    for window in [*range(31), cli.MAX_TABLE_WINDOW]:
        _row_texts_match_the_segments(space, window)


@given(small_words)
def test_row_texts_are_the_segments_of_the_window_beyond_the_catalogue(word):
    space = scott_opens(word)
    for window in [*range(31), cli.MAX_TABLE_WINDOW]:
        _row_texts_match_the_segments(space, window)


def test_the_table_validates_each_piece_at_its_two_ends_and_evaluates_no_cell(monkeypatch, capsys):
    calls = Counter()
    for name in ("validate_segment", "eval_segment"):
        original = getattr(funcspace, name)
        monkeypatch.setattr(funcspace, name,
                            lambda *a, _name=name, _fn=original: calls.update([_name]) or _fn(*a))
    assert run(["funcspace", "--cpo", "v", "--window", "93", "--table", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 2 * 94 + 3
    assert calls["eval_segment"] == 0
    assert 0 < calls["validate_segment"] <= 2 * len(scott_opens(named_cpo("v").word).pieces)


@pytest.mark.parametrize("name", all_names())
def test_the_table_builds_a_row_segment_only_where_it_prints_it(monkeypatch, capsys, name):
    """A row is written from its piece's formula, not from a segment, so the table builds no segment past
    the two ends of each piece that are validated, also where the rows print their segments, as v's do."""
    calls = Counter()
    monkeypatch.setattr(funcspace, "up_from", lambda x, _fn=funcspace.up_from: calls.update([x]) or _fn(x))
    for fmt in ("text", "json"):
        calls.clear()
        assert run(["funcspace", "--cpo", name, "--window", "93", "--table", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert sum(calls.values()) <= 2 * len(scott_opens(named_cpo(name).word).pieces), fmt


@pytest.mark.parametrize("argv", [["funcspace", "--cpo", "v", "--table"], ["funcspace", "--cpo", "v"]],
                         ids=["table", "verdict"])
def test_the_space_is_built_once(monkeypatch, argv):
    calls = []

    def counting(w):
        calls.append(w)
        return scott_opens(w)

    monkeypatch.setattr(funcspace, "scott_opens", counting)
    # the CLI module would hold a reference of its own if it imported the function
    monkeypatch.setattr(cli, "scott_opens", counting, raising=False)
    # v holds its verdict once it is read: forget it, so that this run builds it
    monkeypatch.delitem(vars(named_cpo("v")), "self_iso", raising=False)
    assert run(argv) == 0
    assert len(calls) == 1
    assert run(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["phi", "lambda_prime", "v", "xi", "theta"])
def test_segments_ascend_by_inclusion(name):
    w = named_cpo(name).word
    space = scott_opens(w)
    xs = window_elems(w, 6)
    rows = [
        [eval_segment(w, space.segment_at(pos), x) for x in xs]
        for pos in window_elems(space.word, 6)
    ]
    # inclusion must be monotone; equality on a truncated window is fine
    # for neighbours that differ only beyond it
    for light, heavy in zip(rows, rows[1:]):
        assert all(a <= b for a, b in zip(light, heavy))


@pytest.mark.parametrize("name", all_names())
def test_position_round_trip(name):
    space = scott_opens(named_cpo(name).word)
    for pos in window_elems(space.word, 8):
        assert space.position_of(space.segment_at(pos)) == pos


# every word of 1-4 atoms over {ω, ω*, 1, 2, 3}: 780 words
CENSUS_WORDS = [word_of(*atoms) for n in range(1, 5)
                for atoms in itertools.product((OMEGA, OMEGA_STAR, fin(1), fin(2), fin(3)), repeat=n)]
CENSUS = json.loads((Path(__file__).parent / "golden" / "funcspace_census.json").read_text())


def census_entry(word):
    """The space word, and the sha256 of the segments on the space's window 6, one a line."""
    space = scott_opens(word)
    text = "\n".join(str(space.segment_at(pos)) for pos in window_elems(space.word, CENSUS["window"]))
    return {"space": str(space.word), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_census_matches_golden():
    assert len(CENSUS_WORDS) == len(CENSUS["words"]) == 780
    for word in CENSUS_WORDS:
        assert census_entry(word) == CENSUS["words"][str(word)], str(word)


def test_segment_round_trip_over_the_census():
    """segment -> position -> segment for every valid segment of the base's window 5."""
    for word in CENSUS_WORDS:
        space = scott_opens(word)
        w = space.base
        segs = [EMPTY_SEGMENT] + [block_tail(j) for j, a in enumerate(w.atoms)
                                  if a.kind is AtomKind.OMEGA_STAR]
        for x in window_elems(w, 5):
            try:
                validate_segment(w, up_from(x))
            except InvalidSegment:
                continue
            segs.append(up_from(x))
        for s in segs:
            assert space.segment_at(space.position_of(s)) == s, (str(word), str(s))


def test_segment_validity_on_theta():
    theta = named_cpo("theta").word  # ω+1
    validate_segment(theta, EMPTY_SEGMENT)
    validate_segment(theta, up_from(Elem(0, 0)))  # global bottom
    validate_segment(theta, up_from(Elem(0, 3)))  # has a predecessor
    with pytest.raises(InvalidSegment):
        validate_segment(theta, up_from(Elem(1, 0)))  # the top sits over ω
    with pytest.raises(InvalidSegment):
        validate_segment(theta, block_tail(0))  # tails cut only ω* blocks


def test_segments_are_up_closed():
    w = named_cpo("v").word
    space = scott_opens(w)
    xs = window_elems(w, 5)
    for pos in window_elems(space.word, 5):
        seg = space.segment_at(pos)
        for i, x in enumerate(xs):
            for y in xs[i + 1 :]:
                assert compare(w, x, y) is Ordering.LT
                assert eval_segment(w, seg, x) <= eval_segment(w, seg, y)


def test_canonical_iso_on_phi_matches_the_table():
    c = named_cpo("phi")
    iso = canonical_iso(c)
    sgm = lambda label: iso.space.segment_at(c.to_elem(label))
    assert sgm("0") == EMPTY_SEGMENT
    assert sgm("1") == up_from(Elem(2, 0))     # just the top
    assert sgm("inf") == block_tail(2)         # all primed elements
    assert sgm("0'") == up_from(Elem(0, 0))    # everything
    assert sgm("2'") == up_from(Elem(0, 2))


def test_canonical_iso_rejects_the_rest():
    with pytest.raises(NotIsomorphic, match=r"theta: ω\+1 vs 1\+ω\*"):
        canonical_iso(named_cpo("theta"))
    with pytest.raises(NotIsomorphic, match=r"v: 1\+ω\*\+ω\+1 vs 1\+ω\*\+ω\+2"):
        canonical_iso(named_cpo("v"))


def test_mu_table():
    assert [mu_apply(Mu.CONST0, b) for b in (0, 1)] == [0, 0]
    assert [mu_apply(Mu.CONST1, b) for b in (0, 1)] == [1, 1]
    assert [mu_apply(Mu.ID, b) for b in (0, 1)] == [0, 1]
    assert mu_continuous((0, 0))
    assert mu_continuous((1, 1))
    assert mu_continuous((0, 1))
    assert not mu_continuous((1, 0))


FPT_EXPECTED = {
    ("phi", Mu.CONST0): ("psi_0", "0", 0),
    ("phi", Mu.CONST1): ("psi_0'", "0'", 1),
    ("phi", Mu.ID): ("psi_inf", "inf", 0),
    ("lambda", Mu.CONST0): ("psi_0", "0", 0),
    ("lambda", Mu.CONST1): ("psi_0'", "0'", 1),
    ("lambda", Mu.ID): ("psi_inf", "inf", 0),
    ("lambda_prime", Mu.CONST0): ("psi_0", "0", 0),
    ("lambda_prime", Mu.CONST1): ("psi_0'", "0'", 1),
    ("lambda_prime", Mu.ID): ("psi_inf'", "inf'", 1),
    ("lambda_hat_prime", Mu.ID): ("psi_m", "m", 0),
}


@pytest.mark.parametrize(("name", "mu"), sorted(FPT_EXPECTED, key=str))
def test_fixed_points(name, mu):
    r = fpt(named_cpo(name), mu)
    assert (r.g_label, r.preimage_label, r.value) == FPT_EXPECTED[(name, mu)]
    # the reported value really is fixed by mu
    assert mu_apply(mu, r.value) == r.value


def test_fixed_point_value_solves_the_equation():
    # value = g(preimage) where the preimage is phi^{-1}(g)
    for name in ("phi", "lambda_prime", "lambda_hat_prime"):
        c = named_cpo(name)
        for mu in Mu:
            r = fpt(c, mu)
            x = c.to_elem(r.preimage_label)
            assert eval_segment(c.word, r.g, x) == r.value


@pytest.mark.parametrize("name", ["theta", "v", "omega", "xi", "two"])
def test_fpt_needs_the_isomorphism(name):
    with pytest.raises(NotIsomorphic):
        fpt(named_cpo(name), Mu.ID)


def assert_g_is_mu_of_the_diagonal(space, mu, g, reach=200):
    """g = mu . d on every element of each finite block and offsets 0..reach of each infinite one."""
    w = space.base
    for b, atom in enumerate(w.atoms):
        for o in range(atom.size) if atom.kind is AtomKind.FIN else range(reach + 1):
            x = Elem(b, o)
            d = eval_segment(w, space.segment_at(x), x)
            assert eval_segment(w, g, x) == mu_apply(mu, d), (str(w), mu, b, o)


@pytest.mark.parametrize("mu", list(Mu))
@pytest.mark.parametrize("name", sorted(SELF_ISO))
def test_diagonal_classes_hold_far_out(name, mu):
    """The fpt map g and mu . d agree out to offset 200."""
    c = named_cpo(name)
    assert_g_is_mu_of_the_diagonal(scott_opens(c.word), mu, fpt(c, mu).g)


# the normal forms of the words of 1-6 atoms over {ω, ω*, 1, 2} that equal
# their own space: ω+n+ω* for n = 1..8, ω+ω+n+ω*+ω* for n = 1..4, and
# ω+n+ω*+ω+n+ω* for n = 1, 2
SELF_ISO_WORDS = list(dict.fromkeys(
    w for n in range(1, 7)
    for w in (normalize(word_of(*atoms))
              for atoms in itertools.product((OMEGA, OMEGA_STAR, fin(1), fin(2)), repeat=n))
    if self_iso(w).is_iso))


def test_self_iso_words_are_the_expected_fourteen():
    assert sorted(map(str, SELF_ISO_WORDS)) == sorted(
        [f"ω+{n}+ω*" for n in range(1, 9)] + [f"ω+ω+{n}+ω*+ω*" for n in range(1, 5)]
        + [f"ω+{n}+ω*+ω+{n}+ω*" for n in (1, 2)])


@pytest.mark.parametrize("mu", list(Mu))
@pytest.mark.parametrize("word", SELF_ISO_WORDS, ids=str)
def test_diagonal_map_is_mu_of_the_diagonal(word, mu):
    """Oracle for the windowed decision: g = mu . d far out, and g's preimage is a fixed point."""
    space = scott_opens(word)
    g = diagonal_map(space, mu)
    assert_g_is_mu_of_the_diagonal(space, mu, g)
    value = eval_segment(word, g, space.position_of(g))
    assert value == mu_apply(mu, value)


def _probed_diagonal_bits(w, space):
    """The earlier decision: d per (block, offset class), probed on offsets 0..3.

    Classes: offset 0 and offset >= 1.  The construction only needs the
    class value to be constant, which is asserted on probe offsets.
    """
    bits = {}
    for b, atom in enumerate(w.atoms):
        limit = atom.size if atom.kind is AtomKind.FIN else 4
        probes = {}
        for o in range(limit):
            x = Elem(b, o)
            probes[o] = eval_segment(w, space.segment_at(x), x)
        bits[(b, 0)] = probes[0]
        tail = {v for o, v in probes.items() if o >= 1}
        if len(tail) > 1:
            raise RuntimeError(f"diagonal not class-constant on block {b} of {w}")
        bits[(b, 1)] = tail.pop() if tail else probes[0]
    return bits


def test_probed_classes_fail_where_the_window_decides():
    """Two classes per block do not hold on ω+3+ω*: the finite block switches inside."""
    w = parse_word("w+3+w*")
    space = scott_opens(w)
    with pytest.raises(RuntimeError, match="not class-constant on block 1"):
        _probed_diagonal_bits(w, space)
    assert diagonal_map(space, Mu.ID) == up_from(Elem(1, 2))


# the normal forms of the words of 1-6 atoms over {ω, ω*, 1, 2, 3}: 981 words
NORMAL_WORDS = list(dict.fromkeys(
    normalize(word_of(*atoms)) for n in range(1, 7)
    for atoms in itertools.product((OMEGA, OMEGA_STAR, fin(1), fin(2), fin(3)), repeat=n)))


def test_the_piece_facts_hold_on_every_small_normal_word():
    """The three facts the funcspace docstring proves, piece by piece."""
    assert len(NORMAL_WORDS) == 981
    greatest = 0
    for w in NORMAL_WORDS:
        space = scott_opens(w)
        kinds = [a.kind for a in space.word.atoms]
        blocks = [p.block for p in space.pieces]
        assert list(space.keys) == sorted(space.keys), str(w)  # so segment_at may bisect them
        for p in space.pieces:
            assert p.start in (0, 1), (str(w), p)  # (1)
            if p.role is SegmentKind.UP_FROM and w.atoms[p.base].kind is AtomKind.FIN:
                assert kinds[p.block] is AtomKind.FIN, (str(w), p)  # (3)
            greatest = max(greatest, p.start)
        for b, kind in enumerate(kinds):
            if kind is AtomKind.OMEGA_STAR:
                assert blocks.count(b) == 1, (str(w), b)  # (2)
    assert greatest == 1


def test_least_cut_matches_the_neighbour_rule():
    """validate_segment's openness rule against the bottom-or-predecessor definition."""
    for word in CENSUS_WORDS:
        w = normalize(word)
        bottom = extremes(w)[0]
        for x in window_elems(w, 4):
            is_open = x == bottom or neighbors(w, x)[0] is not None
            try:
                validate_segment(w, up_from(x))
            except InvalidSegment:
                assert not is_open, (str(w), str(x))
            else:
                assert is_open, (str(w), str(x))
