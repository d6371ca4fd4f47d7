import hypothesis.strategies as hs
import pytest
from hypothesis import given

from scottlab import strings as st

from scottlab.catalog import (ALL_ONES, ALL_ZEROS, CHAIN_2, L_STRINGS, MAX_CHAIN_WINDOW, MAX_LITERAL_WINDOW, R_STRINGS,
                              CpoName, Half, Layer, NamedCpo, ends_of, named_cpo, stack_key)
from scottlab.errors import BadDepth
from scottlab.words import Ordering, compare, rank_key, window_elems, window_offsets

from window_scan import all_names, corners

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


@pytest.mark.parametrize("name", all_names())
def test_window_labels_are_the_labels_of_the_window(name):
    """A run at a time against one to_label per element: windows 0..60 and the order's `cpo --window` bound."""
    c = named_cpo(name)
    for k in [*range(61), MAX_LITERAL_WINDOW if c.literal else MAX_CHAIN_WINDOW]:
        assert c.window_labels(k) == [c.to_label(x) for x in window_elems(c.word, k)], k
    with pytest.raises(BadDepth):
        c.window_labels(-1)


def test_window_labels_read_an_absorbed_finite_layer_from_the_top():
    """An omega* block that absorbed a finite layer holds two runs, the finite one on top."""
    for layers in (((L_STRINGS, "n'"), (CHAIN_2, "n")), ((L_STRINGS, "n'"), (ALL_ZEROS, "z"), (ALL_ONES, "o"))):
        c = NamedCpo(CpoName.TWO, (Half("t", layers),), bare=layers[-1][0] is CHAIN_2)
        for k in range(6):
            assert c.window_labels(k) == [c.to_label(x) for x in window_elems(c.word, k)], k
        assert c.window_labels(2) == (["0'", "0", "1"] if c.bare else ["0'", "z", "o"])


@given(strings, strings)
def test_string_positions_follow_the_stack_order(a, b):
    lp = named_cpo("lambda_prime")
    rel = compare(lp.word, lp.to_elem(str(a)), lp.to_elem(str(b)))
    ra, rb = stack_key(*ends_of(a)[1]), stack_key(*ends_of(b)[1])
    assert rel is (Ordering.LT if ra < rb else Ordering.EQ if ra == rb else Ordering.GT)


@given(hs.sampled_from(all_names()), hs.integers(min_value=0, max_value=40), hs.integers(min_value=0, max_value=6))
def test_corners_are_the_window_ends(name, n, reach):
    c = named_cpo(name)
    for half in c.halves:
        for layer, _ in half.blocks:
            counts = list(window_offsets(layer.atom, n))
            got = list(corners(layer, n, reach))
            # the window's order, both ends kept, nothing from the middle
            assert got == [k for k in counts if k in got]
            assert counts[:reach + 1] + counts[-reach - 1:] == \
                got[:reach + 1] + got[-reach - 1:]
            assert len(got) <= 2 * reach + 2


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
    # with strings: the key sorts like the element, in the omega* block's direction
    strung = NamedCpo(CpoName.TWO, (Half("t", ((L_STRINGS, "n'"), (ALL_ZEROS, "z"), (ALL_ONES, "o"))),))
    held = [ends_of(st.ALL_ZEROS_L), ends_of(st.ALL_ONES_R)]
    assert [strung.to_label(strung.element(ends)) for ends in held] == ["z", "o"]
    assert [rank_key(strung.word, strung.element(ends)) for ends in held] == [(0, -1), (0, 0)]


# the per-layer string constructors the catalogue wrote out before each layer named its family
OLD_STRING = {
    R_STRINGS: lambda v: st.MonotypicString(st.Orientation.R, st.OMEGA_MANY, v),
    ALL_ONES: lambda _: st.ALL_ONES_R,
    ALL_ZEROS: lambda _: st.ALL_ZEROS_L,
    L_STRINGS: lambda u: st.MonotypicString(st.Orientation.L, u, st.OMEGA_MANY),
}


def test_an_input_literal_is_read_once(work_count):
    """to_elem classifies each string of a literal once, and then locates its ends."""
    for name, literal, strings_read in (("lambda_prime", "...0011", 1), ("omega_opp", "0011...", 1),
                                        ("lambda_hat_prime", "(000..., ...0011)", 2), ("v", "(...000, 0011...)", 2)):
        assert work_count(lambda: named_cpo(name).to_elem(literal)) == {"locate": 1, "classify": strings_read}


def test_a_layer_string_is_its_family_recipe():
    for layer, old in OLD_STRING.items():
        twin = Layer(layer.atom, layer.family)  # layers compare and hash by value
        assert twin == layer and hash(twin) == hash(layer)
        for c in [*range(51), 2**63]:
            assert layer.string(c) == old(c), (layer, c)
            assert ends_of(old(c))[1] == (layer, 0 if layer.atom.size == 1 else c)
