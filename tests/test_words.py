import itertools

import pytest
from hypothesis import given

from conftest import assert_order_bijection, words
from scottlab.errors import BadElement, BadLiteral
from scottlab.words import (
    OMEGA,
    OMEGA_STAR,
    AtomKind,
    Elem,
    Ordering,
    compare,
    extremes,
    fin,
    iso,
    neighbors,
    normal_layout,
    normalize,
    parse_word,
    signature,
    validate_elem,
    window_elems,
    word_of,
)


def test_parse_and_render_round_trip():
    for text, shown in [
        ("w", "ω"),
        ("w*", "ω*"),
        ("3", "3"),
        ("w+1+w*", "ω+1+ω*"),
        ("ω+2+ω*", "ω+2+ω*"),
        ("1+w*+w+1", "1+ω*+ω+1"),
    ]:
        w = parse_word(text)
        assert str(w) == shown
        assert parse_word(str(w)) == w


@pytest.mark.parametrize("bad", ["", "0", "-1", "w**", "w+", "omega", "2.5"])
def test_parse_rejects_junk(bad):
    with pytest.raises(BadLiteral):
        parse_word(bad)


def test_normalize_merges_finite_runs():
    assert normalize(parse_word("1+2+3")) == parse_word("6")


def test_normalize_absorbs_finite_before_omega():
    assert normalize(parse_word("4+w")) == parse_word("w")
    assert normalize(parse_word("1+1+w")) == parse_word("w")


def test_normalize_absorbs_finite_after_omega_star():
    assert normalize(parse_word("w*+4")) == parse_word("w*")


def test_normalize_mixed_example():
    # the middle finite blocks survive; the leading one is swallowed by ω
    assert normalize(parse_word("1+w+1+1+w*")) == parse_word("w+2+w*")


def test_normalized_example_is_a_real_isomorphism():
    # an explicit order bijection between 1+ω+1+1+ω* and ω+2+ω*,
    # so the rewrite is semantic and not just syntactic
    a = parse_word("1+w+1+1+w*")
    b = parse_word("w+2+w*")

    def f(x: Elem) -> Elem:
        if x.block == 0:
            return Elem(0, 0)
        if x.block == 1:
            return Elem(0, x.offset + 1)
        if x.block == 2:
            return Elem(1, 0)
        if x.block == 3:
            return Elem(1, 1)
        return Elem(2, x.offset)

    assert_order_bijection(a, b, f, depth=50)


@given(words)
def test_normal_layout_is_an_order_bijection(w):
    """Each atom's elements, placed from its (block, start), land in order in the normal word."""
    n, layout = normal_layout(w.atoms)
    assert n == normalize(w)

    def f(x: Elem) -> Elem:
        atom = w.atoms[x.block]
        block, start = layout[x.block]
        if atom.kind is AtomKind.FIN and n.atoms[block].kind is AtomKind.OMEGA_STAR:
            return Elem(block, start + atom.size - 1 - x.offset)  # read from its top
        return Elem(block, start + x.offset)

    assert_order_bijection(w, n, f, depth=8)
    if all(a.kind is AtomKind.FIN for a in w.atoms):
        assert {f(x) for x in window_elems(w, 0)} == set(window_elems(n, 0))


def test_normal_layout_places_every_atom():
    # ω* absorbs 2 and 3 (read from the top), ω absorbs 1+2, the 3 stays
    assert normal_layout(parse_word("1+2+w+3+w*+2+3").atoms) == (
        parse_word("w+3+w*"), ((0, 0), (0, 1), (0, 3), (1, 0), (2, 5), (2, 3), (2, 0)))


def test_normalize_exhaustive_small_words():
    kinds = [fin(1), fin(2), fin(3), OMEGA, OMEGA_STAR]
    for size in range(1, 5):
        for combo in itertools.product(kinds, repeat=size):
            w = word_of(*combo)
            n = normalize(w)
            assert normalize(n) == n
            assert iso(w, n)
            # normal form never keeps a mergeable pair
            for left, right in zip(n.atoms, n.atoms[1:]):
                assert not (left.kind is AtomKind.FIN and right.kind is AtomKind.FIN)
                assert not (left.kind is AtomKind.FIN and right.kind is AtomKind.OMEGA)
                assert not (left.kind is AtomKind.OMEGA_STAR and right.kind is AtomKind.FIN)


def test_compare_is_total_on_window():
    w = parse_word("w+2+w*")
    xs = window_elems(w, 6)
    for i, x in enumerate(xs):
        assert compare(w, x, x) is Ordering.EQ
        for y in xs[i + 1 :]:
            assert compare(w, x, y) is Ordering.LT
            assert compare(w, y, x) is Ordering.GT


def test_omega_star_offsets_count_down_from_the_top():
    w = parse_word("w*")
    assert compare(w, Elem(0, 5), Elem(0, 2)) is Ordering.LT
    assert extremes(w) == (None, Elem(0, 0))


def test_neighbors_inside_blocks():
    w = parse_word("5")
    assert neighbors(w, Elem(0, 2)) == (Elem(0, 1), Elem(0, 3))
    assert neighbors(w, Elem(0, 0)) == (None, Elem(0, 1))
    assert neighbors(w, Elem(0, 4)) == (Elem(0, 3), None)


def test_neighbors_across_seams():
    w = parse_word("2+w*+w+1")
    # finite block end meets the ω* block: no successor attained there
    assert neighbors(w, Elem(0, 1)) == (Elem(0, 0), None)
    # every ω* element has a predecessor, deeper in the same block
    assert neighbors(w, Elem(1, 0))[0] == Elem(1, 1)
    # ω* top touches the following ω bottom? no: ω* attains its top,
    # ω attains its bottom, and they are immediate neighbors
    assert neighbors(w, Elem(1, 0))[1] == Elem(2, 0)
    assert neighbors(w, Elem(2, 0))[0] == Elem(1, 0)
    # ω runs upward forever; the final singleton has no predecessor
    assert neighbors(w, Elem(2, 3)) == (Elem(2, 2), Elem(2, 4))
    assert neighbors(w, Elem(3, 0)) == (None, None)


def test_neighbors_omega_bottom_has_no_predecessor():
    w = parse_word("w+1")
    assert neighbors(w, Elem(0, 0)) == (None, Elem(0, 1))
    assert neighbors(w, Elem(1, 0)) == (None, None)


def test_extremes_by_shape():
    assert extremes(parse_word("w")) == (Elem(0, 0), None)
    assert extremes(parse_word("w+1")) == (Elem(0, 0), Elem(1, 0))
    assert extremes(parse_word("w*+w")) == (None, None)
    assert extremes(parse_word("3")) == (Elem(0, 0), Elem(0, 2))


def test_validate_elem_rejects_out_of_range():
    w = parse_word("3+w")
    with pytest.raises(BadElement):
        validate_elem(w, Elem(0, 3))
    with pytest.raises(BadElement):
        validate_elem(w, Elem(2, 0))
    with pytest.raises(BadElement):
        validate_elem(w, Elem(0, -1))
    validate_elem(w, Elem(1, 10 ** 9))  # infinite block, any offset


def test_iso_verdicts():
    assert iso(parse_word("1+w"), parse_word("w"))
    assert iso(parse_word("w+1+1+w*"), parse_word("w+2+w*"))
    assert not iso(parse_word("w"), parse_word("w*"))
    assert not iso(parse_word("w+1"), parse_word("1+w*"))
    assert not iso(parse_word("w+1+w*"), parse_word("w+2+w*"))


def test_signature_separates_seam_shapes():
    # same block multiset, different seams
    assert signature(parse_word("w+w*")) != signature(parse_word("w*+w"))


def test_window_elems_is_ascending():
    w = parse_word("1+w*+w+1")
    xs = window_elems(w, 4)
    for x, y in zip(xs, xs[1:]):
        assert compare(w, x, y) is Ordering.LT
