import hypothesis.strategies as hs
from hypothesis import given

from scottlab import strings as st
from scottlab.adjunction import global_string_rank
from scottlab.catalog import all_names, named_cpo
from scottlab.words import Ordering, compare, window_elems

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
