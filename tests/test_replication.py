import re

import pytest

from scottlab import adjunction, catalog, replication, strings as st
from scottlab.adjunction import BOUNDARY_M, check_adjunction
from scottlab.catalog import ALL_ONES, R_STRINGS, CpoName, NamedCpo, named_cpo
from scottlab.cli import run
from scottlab.errors import BadElement, NotBoundary, UnknownCpo
from scottlab.replication import (
    decompositions,
    lcr_backward,
    lcr_forward,
    pipeline,
    replicate,
    table8,
)

# the window scans these verdicts replaced, kept as their oracle
import window_scan
from window_scan import BOUNDARY_M_PRIME, golden_at_window, project, scan_lcr, scan_pipeline, scan_table8


def _string(kind, i):
    return st.realize(st.SpecifiedString(kind, i))


def test_hat_order_has_two_natural_splittings():
    d1, d2 = decompositions("lambda_hat_prime")
    assert d1.natural and d2.natural
    assert (d1.name, d2.name) == ("phi1", "phi2")
    assert d1.parts == (st.SpecKind.III, st.SpecKind.I, st.SpecKind.II)
    assert d2.parts == (st.SpecKind.III, st.SpecKind.IV, st.SpecKind.II)
    assert d1.boundary_image == st.ALL_ZEROS_L
    assert d2.boundary_image == st.ALL_ONES_R


def test_hat_projection_sends_the_boundary_per_splitting():
    d1, d2 = decompositions("lambda_hat_prime")
    assert project(d1, BOUNDARY_M) == st.parse_literal("000...")
    assert project(d2, BOUNDARY_M) == st.parse_literal("...111")
    off_boundary = st.PairString(st.ALL_ZEROS_L, _string(st.SpecKind.III, 4))
    assert project(d1, off_boundary) == _string(st.SpecKind.III, 4)
    assert project(d2, off_boundary) == _string(st.SpecKind.III, 4)


def test_hat_projection_rejects_pairs_outside_the_hat_order():
    d1, d2 = decompositions("lambda_hat_prime")
    # the pinned end matches the lower half, but 00011... is held by no lower layer
    outside = st.parse_pair_literal("(000..., 00011...)")
    for d in (d1, d2):
        with pytest.raises(BadElement, match="not an element of lambda_hat_prime"):
            project(d, outside)


def test_valley_order_has_no_natural_splitting():
    (d,) = decompositions("v")
    assert not d.natural
    assert d.parts == (st.SpecKind.I, st.SpecKind.II, st.SpecKind.III, st.SpecKind.IV)
    assert d.witness.element == BOUNDARY_M_PRIME
    assert d.witness.lower_claim == st.parse_literal("...000")
    assert d.witness.upper_claim == st.parse_literal("111...")
    with pytest.raises(NotBoundary):
        project(d, BOUNDARY_M_PRIME)


def test_no_decomposition_catalogued_elsewhere():
    with pytest.raises(UnknownCpo):
        decompositions("phi")


def test_lcr_label_map():
    # naturals fold in with a plus sign, primed labels with a minus sign,
    # and both zero ends collide at the valley midpoint
    for i in range(2, 12):
        img = lcr_forward(_string(st.SpecKind.III, i))
        assert (img.source_label, img.label, img.half) == (str(i - 1), f"+{i - 1}", "xi_opp")
        assert not img.collision
        img = lcr_forward(_string(st.SpecKind.II, i))
        assert (img.source_label, img.label, img.half) == (f"{i - 1}'", f"-{i - 1}", "xi")
        assert not img.collision
    top = lcr_forward(st.parse_literal("...111"))
    assert (top.source_label, top.label) == ("inf", "+inf")
    bottom = lcr_forward(st.parse_literal("000..."))
    assert (bottom.source_label, bottom.label) == ("inf'", "-inf")


def test_lcr_is_two_to_one_exactly_at_the_midpoint():
    sources = [_string(st.SpecKind.III, i) for i in range(1, 30)]
    sources += [_string(st.SpecKind.II, i) for i in range(1, 30)]
    sources += [st.ALL_ZEROS_L, st.ALL_ONES_R]
    images = [lcr_forward(x) for x in sources]
    hits: dict[str, list] = {}
    for img in images:
        hits.setdefault(str(img.image), []).append(img)
    doubled = {k: v for k, v in hits.items() if len(v) > 1}
    assert list(doubled) == [str(BOUNDARY_M_PRIME)]
    pair = doubled[str(BOUNDARY_M_PRIME)]
    assert len(pair) == 2
    assert {str(i.source) for i in pair} == {"...000", "111..."}
    assert all(i.collision and i.label == "m'" for i in pair)
    assert all(len(v) == 1 for k, v in hits.items() if k != str(BOUNDARY_M_PRIME))


def test_lcr_round_trip_away_from_the_midpoint():
    for i in range(2, 20):
        for kind in (st.SpecKind.III, st.SpecKind.II):
            x = _string(kind, i)
            assert lcr_backward(lcr_forward(x).image) == x
    assert lcr_backward(lcr_forward(st.ALL_ZEROS_L).image) == st.ALL_ZEROS_L
    assert lcr_backward(lcr_forward(st.ALL_ONES_R).image) == st.ALL_ONES_R


def test_lcr_backward_at_the_midpoint_needs_an_endpoint():
    from scottlab.errors import BadElement

    with pytest.raises(BadElement):
        lcr_backward(BOUNDARY_M_PRIME)
    assert lcr_backward(BOUNDARY_M_PRIME, st.Orientation.R) == st.parse_literal("...000")
    assert lcr_backward(BOUNDARY_M_PRIME, st.Orientation.L) == st.parse_literal("111...")


def test_replicate_splits_m_into_adjacent_middles():
    r = replicate(BOUNDARY_M)
    assert r.intent == st.parse_literal("000...")
    assert r.extent == st.parse_literal("...111")
    assert (r.intent_label, r.extent_label) == ("inf'", "inf")
    assert r.mutual_neighbors


def test_replicate_rejects_other_pairs():
    with pytest.raises(NotBoundary):
        replicate(BOUNDARY_M_PRIME)


def test_table8_matrix():
    rows = {r.cpo: r for r in table8()}
    assert [r.cpo for r in table8()] == ["lambda", "lambda_prime", "lambda_hat_prime", "v"]
    assert (rows["lambda"].adjunction, rows["lambda"].fixed_point,
            rows["lambda"].boundary, rows["lambda"].order_type) == \
        ("no", "applicable", "n/a", "ω+1+ω*")
    assert (rows["lambda_prime"].adjunction, rows["lambda_prime"].fixed_point,
            rows["lambda_prime"].boundary, rows["lambda_prime"].order_type) == \
        ("yes", "applicable", "n/a", "ω+1+1+ω*")
    assert (rows["lambda_hat_prime"].adjunction, rows["lambda_hat_prime"].fixed_point,
            rows["lambda_hat_prime"].boundary, rows["lambda_hat_prime"].order_type) == \
        ("yes", "applicable", "m", "ω+1+ω*")
    assert (rows["v"].adjunction, rows["v"].fixed_point,
            rows["v"].boundary, rows["v"].order_type) == \
        ("yes", "not applicable", "m'", "1+ω*+ω+1")


def test_pipeline_edges():
    p = pipeline()
    assert (p.dualization.source, p.dualization.target) == ("lambda", "lambda_hat_prime")
    assert p.dualization.isomorphic
    assert p.dualization.order_type == "ω+1+ω*"
    assert (p.replication.source, p.replication.target) == ("lambda_hat_prime", "lambda_prime")
    assert (p.replication.intent_label, p.replication.extent_label) == ("inf'", "inf")
    assert (p.replication.source_type, p.replication.target_type) == ("ω+1+ω*", "ω+1+1+ω*")
    assert p.replication.mutual_neighbors
    assert (p.lcr.source, p.lcr.target) == ("lambda_prime", "v")
    assert p.lcr.round_trip_ok
    assert p.lcr.collision_label == "m'"
    assert p.lcr.collision_preimages == ("...000", "111...")
    assert not p.lcr.isomorphic
    assert len(p.table8) == 4


# -- the decided Table 8 and pipeline against the window scan ------------------


def test_decided_table8_and_pipeline_equal_the_scan():
    """Table 8's adjunction column, held per order, is also the uncapped check's at each window."""
    for w in range(61):
        assert table8(w) == scan_table8(w), w
        assert pipeline(w) == scan_pipeline(w), w
        assert [row.adjunction for row in table8(w)] == [
            "yes" if check_adjunction(name, w).passed else "no" for name in window_scan.COMPOSITE], w


def test_the_work_does_not_grow_with_the_window(work_count, monkeypatch):
    """The same work at any window, and no string read back: the boundary and the fold stay in their ends.

    Once warm, neither decides an adjunction or runs the fold: both are held.
    """
    decided = []
    for module, name in ((adjunction, "check_adjunction"), (replication, "_fold_half")):
        monkeypatch.setattr(module, name, lambda *args, _fn=getattr(module, name), _name=name:
                            decided.append(_name) or _fn(*args))
    for call in (table8, pipeline):
        counts = work_count(lambda: call(20))
        assert counts == work_count(lambda: call(10**9))
        assert counts["classify"] == 0
        # Table 8 reads each boundary's label off its record; the pipeline's replication locates the middle pair
        assert counts["locate"] == 0 if call is table8 else counts["locate"] > 0
        decided.clear()
        call(20), call(10**9)
        assert decided == []
    for name in ("lambda_hat_prime", "v"):
        assert work_count(lambda: decompositions(name))["classify"] == 0


def test_a_warm_pipeline_runs_no_words_iso(monkeypatch):
    """Its two isomorphisms are facts of catalogue orders: decided on the first pipeline and held by the orders,
    so a second pipeline, at any window, runs no words.iso."""
    calls = []
    monkeypatch.setattr(catalog, "iso", lambda a, b, _fn=catalog.iso: calls.append((a, b)) or _fn(a, b))
    for name in (CpoName.LAMBDA, CpoName.LAMBDA_PRIME):  # forget what earlier tests decided
        monkeypatch.setattr(named_cpo(name), "_isos", {})
    first = pipeline(56)
    assert len(calls) == 2
    assert (first.dualization.isomorphic, first.lcr.isomorphic) == (True, False)
    assert [pipeline(w) for w in (56, 0, 150)] == [first, scan_pipeline(0), scan_pipeline(150)]
    assert len(calls) == 2
    assert not hasattr(replication, "iso")  # the pipeline reads no isomorphism of its own


@pytest.mark.parametrize("x", ["...000", "...0011", "...111", "000...", "0011...", "111..."])
def test_lcr_forward_reads_its_string_once(work_count, x):
    assert work_count(lambda: lcr_forward(st.parse_literal(x)))["classify"] == 1
    assert work_count(lambda: run(["lcr", "forward", "--x", x]))["classify"] == 1


# -- the fold's round trip on valley orders that break it ----------------------

V_LOW, V_UP = named_cpo("v").halves


def _valley(lower=V_LOW, upper=V_UP):
    return NamedCpo(CpoName.V, (lower, upper), glued=True)


class _RunsTraded(NamedCpo):
    """v, with the runs `locate` finds for the upper half's two layers traded.

    `locate` trades them, not a swap of `_run_of` after the order is built, so the boundary's record, made
    while the order is built, sees the traded runs as every later lookup does.  Both runs start at count 0,
    so trading the run found trades the runs.
    """

    def locate(self, ends):
        run, c = super().locate(ends)
        other = {R_STRINGS: ALL_ONES, ALL_ONES: R_STRINGS}.get(run.layer)
        return (self._run_of[1, other], c) if run.half == 1 and other else (run, c)


# valley orders that fold lambda_prime onto exactly two strings at their boundary but do not round-trip
BROKEN_FOLDS = [
    ("v, the runs of the upper layers traded, so an image unfolds to another layer's string",
     _RunsTraded(CpoName.V, (V_LOW, V_UP), glued=True)),
    ("v, ...111 moved from the top of the upper half to its pin, so both ends of the boundary (...000, ...111) "
     "read from the right and unfold to ...000",
     _valley(V_LOW._replace(blocks=(*V_LOW.blocks, (ALL_ONES, "+inf"))),
             V_UP._replace(blocks=V_UP.blocks[:1], right=st.ALL_ONES_R))),
]


@pytest.mark.parametrize(("mutation", "v"), BROKEN_FOLDS, ids=[m[0] for m in BROKEN_FOLDS])
def test_a_broken_fold_fails_the_round_trip_as_the_scan_does(monkeypatch, mutation, v):
    """The first order breaks only the fold's round trip, the second only the collisions'."""
    def lookup(name):
        return v if name is CpoName.V else named_cpo(name)
    for module in (replication, window_scan):
        monkeypatch.setattr(module, "named_cpo", lookup)
    for w in range(31):
        edge = pipeline(w).lcr
        assert edge == scan_lcr(w), w
        assert not edge.round_trip_ok and len(edge.collision_preimages) == 2


@pytest.mark.parametrize(("mutation", "v"), BROKEN_FOLDS, ids=[m[0] for m in BROKEN_FOLDS])
def test_a_broken_fold_after_a_warm_pipeline_is_decided_on_its_own(monkeypatch, mutation, v):
    """The fold is held per pair of order objects, not per word: each mutant is decided on its own, the one
    that shares v's word too, and v's own verdict is untouched."""
    warm = pipeline(20)
    assert warm.lcr.round_trip_ok
    for module in (replication, window_scan):
        monkeypatch.setattr(module, "named_cpo", lambda name: v if name is CpoName.V else named_cpo(name))
    edge = pipeline(20).lcr
    assert edge == scan_lcr(20) and not edge.round_trip_ok
    monkeypatch.undo()
    assert pipeline(20) == warm


class _MiscountedValley(NamedCpo):
    """v, whose runs read every count from `settle` on one too high: a string folded there unfolds to the next."""

    def locate(self, ends):
        run, c = super().locate(ends)
        return run, c + (c >= self.settle)


def test_a_fold_broken_from_settle_on_fails_as_the_scan_does(monkeypatch):
    """The fold is decided at the counts up to settle: an order that breaks only from there on fails it.

    The scan sees the break once its window reaches settle, and passes below it.
    """
    v = _MiscountedValley(CpoName.V, (V_LOW, V_UP), glued=True)
    for module in (replication, window_scan):
        monkeypatch.setattr(module, "named_cpo", lambda name: v if name is CpoName.V else named_cpo(name))
    settle = max(named_cpo(CpoName.LAMBDA_PRIME).settle, v.settle)
    assert settle == 2
    for w in range(31):
        edge = pipeline(w).lcr
        assert not edge.round_trip_ok and len(edge.collision_preimages) == 2
        assert scan_lcr(w) == (edge if w >= settle else edge._replace(round_trip_ok=True)), w


def test_a_valley_order_without_a_layer_refuses_the_fold(monkeypatch):
    """A lambda_prime layer that no half of v holds is a BadElement that names the order and the layer."""
    v = _valley(upper=V_UP._replace(blocks=V_UP.blocks[1:]))  # xi_opp without its omega layer of family III
    for module in (replication, window_scan):
        monkeypatch.setattr(module, "named_cpo", lambda name: v if name is CpoName.V else named_cpo(name))
    message = re.escape("no half of v holds lambda_prime's layer III (ω)")
    with pytest.raises(BadElement, match=message):
        lcr_forward(R_STRINGS.string(0))
    for w in (0, 1, 20):
        for verdict in (pipeline, scan_lcr):
            with pytest.raises(BadElement, match=message):
                verdict(w)
    assert run(["lcr", "forward", "--x", str(R_STRINGS.string(3))]) == 2


@pytest.mark.parametrize("argv", [["table8"], ["pipeline"]])
def test_a_huge_window_prints_the_window_20_golden(capsys, argv):
    for fmt in ("text", "json"):
        assert run(argv + ["--window", "1000000", "--format", fmt]) == 0
        assert capsys.readouterr().out == golden_at_window(argv, fmt, 1000000)
