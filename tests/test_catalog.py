import hypothesis.strategies as hs
from hypothesis import given

from scottlab import strings as st
from scottlab.adjunction import global_string_rank
from scottlab.catalog import (ALL_ONES, ALL_ZEROS, CHAIN_2, L_STRINGS, CpoName, Half, NamedCpo,
                              all_names, named_cpo)
from scottlab.words import Ordering, compare, rank_key, window_elems

strings = hs.builds(
    lambda kind, i: st.realize(st.SpecifiedString(kind, i)),
    hs.sampled_from(list(st.SpecKind)),
    hs.integers(min_value=1, max_value=100),
)


@given(hs.sampled_from(all_names()), hs.integers(min_value=0, max_value=30))
def test_labels_round_trip_on_windows(name, k):
    c = named_cpo(name)
    for x in window_elems(c.word, k):
        assert c.to_elem(c.to_label(x)) == x


@given(strings, strings)
def test_string_positions_follow_the_stack_order(a, b):
    lp = named_cpo("lambda_prime")
    rel = compare(lp.word, lp.to_elem(str(a)), lp.to_elem(str(b)))
    ra, rb = global_string_rank(a), global_string_rank(b)
    assert rel is (Ordering.LT if ra < rb else Ordering.EQ if ra == rb else Ordering.GT)


@given(hs.sampled_from(all_names()), hs.integers(min_value=0, max_value=40), hs.integers(min_value=0, max_value=6))
def test_corners_are_the_window_ends(name, n, reach):
    c = named_cpo(name)
    for half in c.halves:
        for layer, _ in half.blocks:
            counts = list(layer.counts(n))
            corners = list(layer.corners(n, reach))
            # the window's order, both ends kept, nothing from the middle
            assert corners == [k for k in counts if k in corners]
            assert counts[:reach + 1] + counts[-reach - 1:] == \
                corners[:reach + 1] + corners[-reach - 1:]
            assert len(corners) <= 2 * reach + 2


def test_settle_lies_past_every_glued_start_and_pinned_end():
    settle = {name: named_cpo(name).settle for name in ("lambda", "lambda_prime", "lambda_hat_prime", "v")}
    # v's lower omega* layer starts at count 1, under the boundary m'
    assert settle == {"lambda": 1, "lambda_prime": 1, "lambda_hat_prime": 1, "v": 2}


def test_an_absorbed_finite_layer_counts_up_from_its_bottom():
    """An omega* block reads an absorbed finite layer from its top, so its counts descend in offset."""
    c = NamedCpo(CpoName.TWO, (Half("t", ((L_STRINGS, "n'"), (CHAIN_2, "n"))),), bare=True)
    assert str(c.word) == "ω*"
    assert compare(c.word, c.to_elem("0"), c.to_elem("1")) is Ordering.LT
    assert compare(c.word, c.to_elem("0'"), c.to_elem("0")) is Ordering.LT
    for x in window_elems(c.word, 8):
        assert c.to_elem(c.to_label(x)) == x
    # with strings: position sorts like the element, in the omega* block's direction
    strung = NamedCpo(CpoName.TWO, (Half("t", ((L_STRINGS, "n'"), (ALL_ZEROS, "z"), (ALL_ONES, "o"))),))
    held = [st.ALL_ZEROS_L, st.ALL_ONES_R]
    assert [strung.to_label(strung.element(s)) for s in held] == ["z", "o"]
    assert [strung.position(s) for s in held] == [rank_key(strung.word, strung.element(s)) for s in held]
    assert strung.position(held[0]) < strung.position(held[1])
