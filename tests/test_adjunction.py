import itertools

import hypothesis.strategies as hs
import pytest
from hypothesis import given

from scottlab import strings as st
from scottlab.adjunction import (
    BOUNDARY_M,
    _relations,
    boundary_report,
    build_pair_cpo,
    check_adjunction,
    opp_element,
)
from scottlab.catalog import (ALL_ONES, ALL_ZEROS, L_STRINGS, OMEGA_PRIME_HALF, OMEGA_PRIME_OPP_HALF, R_STRINGS,
                              XI_HALF, XI_OPP_HALF, CpoName, Half, NamedCpo, ends_of, named_cpo)
from scottlab.cli import run
from scottlab.errors import BadElement, UnknownCpo
from scottlab.words import OMEGA, OMEGA_STAR, AtomKind, OrderWord

# the window scans these verdicts replaced, kept as their oracle
from window_scan import (BOUNDARY_M_PRIME, COMPOSITE, OUTPUTS, all_names, corner_adjunction, golden_at_window,
                         half_window, held_string, holds, scan_adjunction, scan_boundary, stack_rank)


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
    ranks = [stack_rank(x) for x in chain]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)


@pytest.mark.parametrize("name", [n for n in all_names() if not named_cpo(n).bare])
def test_windows_are_ascending_and_inside_the_half(name):
    """free, the one membership rule, agrees with the scan's string rule on each window element and its dual.

    The four composites hold every half's dual; the one-half orders cover omega and omega_opp's halves too.
    """
    cpo = named_cpo(name)
    for half in cpo.halves:
        win = half_window(half, 12)
        assert len(win) >= 13
        ranks = [stack_rank(held_string(half, x)) for x in win]
        assert ranks == sorted(ranks)
        assert all(holds(half, x) for x in win)
        for y in (*win, *map(opp_element, win)):
            for j, other in enumerate(cpo.halves):
                free = cpo.free(j, ends_of(y))
                assert (free is not None) == holds(other, y), (y, j)
                assert free is None or ends_of(held_string(other, y))[1] == free


def test_prime_windows_reach_their_extremes():
    assert half_window(OMEGA_PRIME_HALF, 10)[-1] == st.ALL_ONES_R
    assert half_window(OMEGA_PRIME_OPP_HALF, 10)[0] == st.ALL_ZEROS_L
    assert half_window(XI_HALF, 10)[0] == st.PairString(st.ALL_ZEROS_R, st.ALL_ZEROS_L)
    assert half_window(XI_OPP_HALF, 10)[-1] == st.PairString(st.ALL_ONES_R, st.ALL_ONES_L)


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


# -- the decided verdicts against the window scan ------------------------------

WINDOWS = range(61)


@pytest.mark.parametrize("name", COMPOSITE, ids=[n.value for n in COMPOSITE])
def test_decided_adjunction_equals_the_scan(name):
    cpo = named_cpo(name)
    for w in WINDOWS:
        assert check_adjunction(name, w) == scan_adjunction(cpo, w) == corner_adjunction(cpo, w), w


@pytest.mark.parametrize("name", COMPOSITE, ids=[n.value for n in COMPOSITE])
def test_decided_boundary_equals_the_scan(name):
    if named_cpo(name).boundary is None:
        for report in (boundary_report, scan_boundary):
            with pytest.raises(UnknownCpo):
                report(name, 0)
        return
    for w in WINDOWS:
        assert boundary_report(name, w) == scan_boundary(name, w), w


def test_a_literal_glued_order_reports_its_boundary_as_the_scan_does():
    """v's halves in an order that prints literals: its boundary m' has both neighbors, whose labels are pair
    literals made while the order is built, before its record of the boundary is set."""
    cpo = NamedCpo(CpoName.V, (XI_HALF, XI_OPP_HALF), glued=True, literal=True)
    assert (cpo.boundary.label, *cpo.boundary.neighbors) == \
        ("m'", "(...000, 011...)", "(...001, 111...)")
    for w in range(31):
        assert boundary_report(cpo, w) == scan_boundary(cpo, w), w


def _rebuilt(name, lower=None, upper=None):
    """The order built as the catalogue builds it, from other halves."""
    cpo = named_cpo(name)
    a, b = cpo.halves
    return NamedCpo(cpo.name, (lower or a, upper or b), glued=cpo.boundary is not None, literal=cpo.literal)


def _with_start(cpo, layer, start):
    """The order, with the least count of one of its layers moved."""
    cpo._runs = [r._replace(start=start) if r.layer is layer else r for r in cpo._runs]
    cpo._run_of = {(r.half, r.layer): r for r in cpo._runs}
    return cpo


def _swapped(half):
    return half._replace(blocks=half.blocks[::-1])


def _turned(cpo, block):
    """The order with one infinite block of its word turned around, omega <-> omega*, its runs kept.

    Its elements then run the other way, so opp may keep the direction of two runs it exchanges.
    """
    atoms = list(cpo.word.atoms)
    atoms[block] = OMEGA_STAR if atoms[block].kind is AtomKind.OMEGA else OMEGA
    cpo.word = OrderWord(tuple(atoms))
    return cpo


PRIME_LOW, PRIME_UP = named_cpo("lambda_prime").halves
HAT_LOW, HAT_UP = named_cpo("lambda_hat_prime").halves
V_LOW, V_UP = named_cpo("v").halves

# each order below is built inside its test by a builder of no arguments, so that a fault in building an
# order fails the tests that build it, not the collection of this module
# (mutation, builder, conditions that fail)
MUTATED = [
    ("lambda_hat_prime, upper layers swapped", lambda: _rebuilt("lambda_hat_prime", upper=_swapped(HAT_UP)), {3}),
    ("v, upper layers swapped", lambda: _rebuilt("v", upper=_swapped(V_UP)), {3}),
    ("lambda_prime, lower omega layer swapped for omega*",
     lambda: _rebuilt("lambda_prime", lower=PRIME_LOW._replace(blocks=((L_STRINGS, "n"), (ALL_ONES, "inf")))),
     {1, 2}),
    ("lambda_prime, top ...111 of the lower half dropped",
     lambda: _rebuilt("lambda_prime", lower=PRIME_LOW._replace(blocks=PRIME_LOW.blocks[:1])), {2}),
    ("lambda_prime, bottom 000... of the upper half dropped",
     lambda: _rebuilt("lambda_prime", upper=PRIME_UP._replace(blocks=PRIME_UP.blocks[1:])), {1}),
    ("v, glued start moved down, so the lower half holds m'", lambda: _with_start(_rebuilt("v"), L_STRINGS, 0),
     set()),
]
# mutations that leave an element or a dual outside the order: both raise
BROKEN = [
    ("v, lower layers swapped", lambda: _rebuilt("v", lower=_swapped(V_LOW))),
    ("lambda_hat_prime, pinned end of the upper half dropped",
     lambda: _rebuilt("lambda_hat_prime", upper=HAT_UP._replace(right=None))),
    ("v, glued start moved up", lambda: _with_start(_rebuilt("v"), L_STRINGS, 3)),
]

# orders whose first failure of (3), from window 2 on, is decided by one class of pairs (see the adjunction
# module docstring): (class, builder, witness at window 3); "finite" pairs a count below settle with a class
CLASS_DECIDED = [
    ("finite", lambda: _rebuilt("lambda_hat_prime",
                                lower=HAT_LOW._replace(blocks=((L_STRINGS, "n'"), (ALL_ONES, "m"))),
                                upper=HAT_UP._replace(blocks=((R_STRINGS, "n"), (ALL_ZEROS, "m")))),
     "(000..., 00011...), (000..., ...111)"),
    ("c = d", lambda: _rebuilt("lambda_hat_prime",
                               lower=HAT_LOW._replace(blocks=((L_STRINGS, "n'"), (R_STRINGS, "n"), (ALL_ONES, "m"))),
                               upper=HAT_UP._replace(blocks=((R_STRINGS, "n"), (L_STRINGS, "n'"), (ALL_ZEROS, "m")))),
     "(000..., 00011...), (00011..., ...111)"),
    ("c < d", lambda: _turned(NamedCpo(CpoName.V, (Half("r", ((R_STRINGS, "n"),), left=st.ALL_ONES_L),
                                                   Half("l", ((L_STRINGS, "n'"),), right=st.ALL_ZEROS_R))), 0),
     "(111..., ...001), (00011..., ...000)"),
    ("c > d", lambda: _turned(NamedCpo(CpoName.V, (V_LOW._replace(blocks=V_LOW.blocks[1:]),
                                                   V_UP._replace(blocks=V_UP.blocks[:1]))), 1),
     "(...000, 00011...), (...001, 111...)"),
]


# glued orders whose boundary is not the lower half's join, not the upper half's meet, or not in the lower half:
# (mutation, builder, (in_lower, join_of_lower, meet_of_upper))
BOUNDARY_MUTATED = [
    ("lambda_hat_prime, an omega* layer under the lower half",
     lambda: _rebuilt("lambda_hat_prime", lower=HAT_LOW._replace(blocks=((L_STRINGS, "n'"), *HAT_LOW.blocks))),
     (True, False, True)),
    ("lambda_hat_prime, an omega layer over the upper half",
     lambda: _rebuilt("lambda_hat_prime", upper=HAT_UP._replace(blocks=(*HAT_UP.blocks, (R_STRINGS, "n")))),
     (True, True, False)),
    ("lambda_hat_prime, top ...111 of the lower half dropped",
     lambda: _rebuilt("lambda_hat_prime", lower=HAT_LOW._replace(blocks=HAT_LOW.blocks[:1])),
     (False, False, True)),
    ("lambda_hat_prime, pinned end of the lower half dropped",
     lambda: _rebuilt("lambda_hat_prime", lower=HAT_LOW._replace(left=None)), (False, False, True)),
]


@pytest.mark.parametrize(("mutation", "build", "verdicts"), BOUNDARY_MUTATED, ids=[m[0] for m in BOUNDARY_MUTATED])
def test_mutated_glued_orders_report_the_boundary_as_the_scan_does(mutation, build, verdicts):
    cpo = build()
    for w in range(31):
        report = boundary_report(cpo, w)
        assert report == scan_boundary(cpo, w), w
        assert (report.in_lower, report.join_of_lower, report.meet_of_upper) == verdicts


@pytest.mark.parametrize(("mutation", "build", "failing"), MUTATED, ids=[m[0] for m in MUTATED])
def test_mutated_halves_fail_as_the_scan_does(mutation, build, failing):
    cpo = build()
    for w in range(31):
        report = check_adjunction(cpo, w)
        assert report == scan_adjunction(cpo, w) == corner_adjunction(cpo, w), w
        assert {c.index for c in report.conditions if not c.passed} == failing


def test_every_condition_fails_under_some_mutation():
    assert set().union(*(failing for _, _, failing in MUTATED)) == {1, 2, 3}


@pytest.mark.parametrize("s", [1, 2, 3])
def test_each_relation_is_stood_for_by_its_first_pair_in_scan_order(s):
    """_relations against a scan of two classes of counts s..w, in each pair of directions.

    Each relation between c and d that the two classes allow is given by its first pair in scan order,
    x then y, and is decided at a pair of counts s + i and s + j in the same relation.
    """
    for w in range(s, s + 5):
        for dx, dy in itertools.product((1, -1), repeat=2):
            xs, ys = range(s, w + 1)[::dx], range(s, w + 1)[::dy]
            firsts = {}
            for c, d in itertools.product(xs, ys):
                firsts.setdefault((c > d) - (c < d), (c, d))
            got = {}
            for (c, d), i, j in _relations(xs[0], dy, s, w):
                assert (i > j) - (i < j) == (c > d) - (c < d)
                got[(c > d) - (c < d)] = (c, d)
            assert got == firsts, (w, dx, dy)


@pytest.mark.parametrize(("decider", "build", "witness"), CLASS_DECIDED, ids=[m[0] for m in CLASS_DECIDED])
def test_each_class_decides_a_first_failure_as_the_scans_do(decider, build, witness):
    """Each class of pairs, the finite part and the relations c = d, c < d and c > d, gives some order's witness."""
    cpo = build()
    for w in range(31):
        report = check_adjunction(cpo, w)
        assert report == scan_adjunction(cpo, w) == corner_adjunction(cpo, w), w
        assert [c.passed for c in report.conditions[:2]] == [True, True]
    assert check_adjunction(cpo, 3).conditions[2].witness == witness


def test_an_omega_star_witness_spells_out_the_window():
    _, build, _ = MUTATED[2]
    cpo = build()
    for w in (1, 7, 60, 1000):
        report = check_adjunction(cpo, w)
        assert [c.witness for c in report.conditions[:2]] == ["0" * w + "11..."] * 2


def test_a_pair_half_under_a_string_half_fails_the_first_condition_as_the_scan_does():
    """opp pins no pair at the end a half of strings pins, whatever layers they hold: m's dual is m."""
    cpo = NamedCpo(CpoName.LAMBDA_HAT_PRIME, (Half("m", ((ALL_ONES, "m"),), left=st.ALL_ZEROS_L),
                                               Half("ends", ((ALL_ONES, "inf"), (ALL_ZEROS, "inf'")))))
    for w in (0, 1, 5):
        report = check_adjunction(cpo, w)
        assert report == scan_adjunction(cpo, w), w
        assert [c.witness for c in report.conditions] == ["(000..., ...111)", "...111", "(000..., ...111), ...111"]


@hs.composite
def mutated_orders(draw):
    """A composite order with one half's layers swapped, one layer replaced, its pin dropped, or a start moved."""
    name = draw(hs.sampled_from(COMPOSITE))
    halves = list(named_cpo(name).halves)
    i = draw(hs.integers(0, 1))
    kind = draw(hs.sampled_from(["swap", "layer", "pin", "start", "turn"]))
    if kind == "swap":
        halves[i] = _swapped(halves[i])
    elif kind == "layer":
        blocks = list(halves[i].blocks)
        blocks[draw(hs.integers(0, len(blocks) - 1))] = draw(hs.sampled_from(
            [(R_STRINGS, "n"), (ALL_ONES, "inf"), (ALL_ZEROS, "inf'"), (L_STRINGS, "n'")]))
        halves[i] = halves[i]._replace(blocks=tuple(blocks))
    elif kind == "pin":
        halves[i] = halves[i]._replace(left=None, right=None)
    cpo = _rebuilt(name, *halves)
    if kind == "start":
        cpo = _with_start(cpo, draw(hs.sampled_from([layer for layer, _ in halves[i].blocks])), draw(hs.integers(0, 3)))
    if kind == "turn":
        cpo = _turned(cpo, draw(hs.sampled_from([j for j, a in enumerate(cpo.word.atoms) if a.kind is not AtomKind.FIN])))
    return cpo


def _outcome(check, cpo, w):
    """The report, or the error: a mutated pairing may leave elements or duals outside its order."""
    try:
        return check(cpo, w)
    except (BadElement, UnknownCpo) as e:
        return type(e), str(e)


@given(mutated_orders(), hs.integers(0, 40))
def test_any_mutated_pairing_is_decided_as_the_scan_decides(cpo, w):
    assert _outcome(check_adjunction, cpo, w) == _outcome(scan_adjunction, cpo, w) == _outcome(corner_adjunction, cpo, w)


@pytest.mark.parametrize(("mutation", "build"), BROKEN, ids=[m[0] for m in BROKEN])
def test_broken_mutations_raise_as_the_scan_does(mutation, build):
    cpo = build()
    for w in (1, 5, 30):  # from window 1 on, the scan meets the missing element
        with pytest.raises(BadElement) as scanned:
            scan_adjunction(cpo, w)
        with pytest.raises(BadElement) as cornered:
            corner_adjunction(cpo, w)
        with pytest.raises(BadElement) as decided:
            check_adjunction(cpo, w)
        assert str(decided.value) == str(scanned.value) == str(cornered.value)


@pytest.mark.parametrize("name", ["lambda_hat_prime", "v"])
def test_string_half_under_a_pair_half_is_a_usage_error(name):
    """Positioning the upper half's pairs in the stack of strings raised an AttributeError."""
    lower, _ = named_cpo(name).halves
    cpo = _rebuilt(name, lower=lower._replace(left=None, right=None))
    for w in (0, 1, 5, 30):
        with pytest.raises(UnknownCpo, match="holds strings but the upper half .* holds pairs"):
            check_adjunction(cpo, w)


# `locate` calls per check_adjunction once an order is warm, as the corner scan made them
CORNER_LOCATES = {CpoName.LAMBDA: 0, CpoName.LAMBDA_PRIME: 0, CpoName.LAMBDA_HAT_PRIME: 12, CpoName.V: 16}


def test_the_work_does_not_grow_with_the_window(work_count):
    """The same work at any window, and no string read back: elements are located by their ends.

    check_adjunction locates no more than the corner scan did.
    """
    for call, names in ((check_adjunction, COMPOSITE), (boundary_report, ("lambda_hat_prime", "v"))):
        for name in names:
            counts = work_count(lambda: call(name, 20))
            assert counts == work_count(lambda: call(name, 10**9))
            assert counts["classify"] == 0
            if call is check_adjunction:
                assert counts["locate"] <= CORNER_LOCATES[name]
            else:  # the boundary's facts are read off the order's record of it
                assert counts["locate"] == 0


def _golden(argv, fmt, window):
    """golden_at_window, also for `adjunction --cpo lambda`, whose golden run is at window 30."""
    if argv != ["adjunction", "--cpo", "lambda"]:
        return golden_at_window(argv, fmt, window)
    out = OUTPUTS["adjunction --cpo lambda --window 30"][fmt]
    return out.replace(", window 30\n", f", window {window}\n").replace('"window":30,', f'"window":{window},')


@pytest.mark.parametrize("argv", [["adjunction", "--cpo", "v"], ["adjunction", "--cpo", "lambda"],
                                  ["boundary", "--cpo", "v"], ["boundary", "--cpo", "lambda_hat_prime"],
                                  ["table8"], ["pipeline"]])
def test_a_huge_window_prints_the_window_20_golden(capsys, argv):
    # from 2**63 on, a window's range has no len()
    for window in (1000000, 2**63 - 1, 2**63, 10**30):
        for fmt in ("text", "json"):
            assert run(argv + ["--window", str(window), "--format", fmt]) == 0
            assert capsys.readouterr().out == _golden(argv, fmt, window)
