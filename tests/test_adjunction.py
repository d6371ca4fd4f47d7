import pytest

from scottlab import strings as st
from scottlab.adjunction import (
    BOUNDARY_M,
    BOUNDARY_M_PRIME,
    OMEGA_HALF,
    OMEGA_OPP_HALF,
    OMEGA_PRIME_HALF,
    OMEGA_PRIME_OPP_HALF,
    XI_HALF,
    XI_OPP_HALF,
    boundary_report,
    build_pair_cpo,
    check_adjunction,
    global_string_rank,
    opp_element,
)
from scottlab.errors import UnknownCpo


def test_boundary_constants():
    assert BOUNDARY_M == st.parse_pair_literal("(000..., ...111)")
    assert BOUNDARY_M_PRIME == st.parse_pair_literal("(...000, 111...)")


def test_boundaries_are_self_dual():
    assert opp_element(BOUNDARY_M) == BOUNDARY_M
    assert opp_element(BOUNDARY_M_PRIME) == BOUNDARY_M_PRIME


def test_opp_element_dispatches():
    x = st.parse_literal("...001")
    assert opp_element(x) == st.opp(x)
    p = st.parse_pair_literal("(...001, 011...)")
    assert opp_element(p) == st.opp_pair(p)


def test_global_rank_orders_the_four_families():
    iii_2 = st.realize(st.SpecifiedString(st.SpecKind.III, 2))
    iii_9 = st.realize(st.SpecifiedString(st.SpecKind.III, 9))
    ii_9 = st.realize(st.SpecifiedString(st.SpecKind.II, 9))
    ii_2 = st.realize(st.SpecifiedString(st.SpecKind.II, 2))
    chain = [iii_2, iii_9, st.ALL_ONES_R, st.ALL_ZEROS_L, ii_9, ii_2]
    ranks = [global_string_rank(x) for x in chain]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)


@pytest.mark.parametrize(
    "half",
    [OMEGA_HALF, OMEGA_OPP_HALF, OMEGA_PRIME_HALF, OMEGA_PRIME_OPP_HALF, XI_HALF, XI_OPP_HALF],
)
def test_windows_are_ascending_and_inside_the_half(half):
    win = half.window(12)
    assert len(win) >= 13
    ranks = [half.rank(x) for x in win]
    assert ranks == sorted(ranks)
    assert all(half.contains(x) for x in win)


def test_prime_windows_reach_their_extremes():
    assert OMEGA_PRIME_HALF.window(10)[-1] == st.ALL_ONES_R
    assert OMEGA_PRIME_OPP_HALF.window(10)[0] == st.ALL_ZEROS_L
    assert XI_HALF.window(10)[0] == st.PairString(st.ALL_ZEROS_R, st.ALL_ZEROS_L)
    assert XI_OPP_HALF.window(10)[-1] == st.PairString(st.ALL_ONES_R, st.ALL_ONES_L)


def test_lambda_pairing_fails_the_first_condition():
    r = check_adjunction("lambda", window=50)
    assert (r.lower, r.upper) == ("omega_prime", "omega_opp")
    assert not r.passed
    by_index = {c.index: c for c in r.conditions}
    assert not by_index[1].passed
    assert by_index[1].witness == "...111"
    assert by_index[2].passed
    assert by_index[3].passed


@pytest.mark.parametrize("name", ["lambda_prime", "lambda_hat_prime", "v"])
def test_the_other_pairings_pass(name):
    r = check_adjunction(name, window=50)
    assert r.passed
    assert all(c.witness is None for c in r.conditions)


def test_adjunction_needs_a_pairing():
    with pytest.raises(UnknownCpo):
        check_adjunction("phi")


def test_build_pair_cpo_only_for_glued_orders():
    for name in ("lambda", "lambda_prime", "theta"):
        with pytest.raises(UnknownCpo):
            build_pair_cpo(name)


def test_boundary_report_m():
    b = boundary_report("lambda_hat_prime")
    assert b.boundary == BOUNDARY_M
    assert b.label == "m"
    assert b.self_dual
    assert b.predecessor is None and b.successor is None
    assert b.in_lower and b.in_upper
    assert b.join_of_lower and b.meet_of_upper


def test_boundary_report_m_prime():
    b = boundary_report("v")
    assert b.boundary == BOUNDARY_M_PRIME
    assert b.label == "m'"
    assert b.self_dual
    assert (b.predecessor, b.successor) == ("-1", "+1")
    assert b.in_lower and b.in_upper
    assert b.join_of_lower and b.meet_of_upper
