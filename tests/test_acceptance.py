"""Acceptance gate: one test per shipped claim, one verdict line each.

Run with -s (or read the captured stdout) to see the verdict lines;
under plain pytest the test names carry the same numbering.
"""

import contextlib

import pytest

from scottlab import strings as st
from scottlab.adjunction import BOUNDARY_M, boundary_report, check_adjunction
from scottlab.catalog import OMEGA_PRIME_HALF, OMEGA_PRIME_OPP_HALF, XI_HALF, XI_OPP_HALF, named_cpo
from scottlab.errors import NotIsomorphic
from scottlab.funcspace import Mu, eval_segment, fpt, scott_opens, self_iso
from scottlab.replication import lcr_backward, lcr_forward, pipeline, replicate
from scottlab.stages import Scheme, check_ep_laws, enumerate_monotone, ep_pair, limit_paths, stage
from scottlab.words import iso, parse_word

from window_scan import BOUNDARY_M_PRIME, all_names, canonical_iso, half_window


@contextlib.contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL  {title}")
        raise
    print(f"criterion {n:2d}: PASS  {title}")


def test_criterion_01_stage_counts():
    with criterion(1, "stage n has n words, matching the brute-force oracle"):
        for n in range(1, 13):
            s = stage(n)
            assert len(s.elements) == n
            if n > 1:
                assert list(s.elements) == list(enumerate_monotone(n - 1))


def test_criterion_02_ep_laws():
    with criterion(2, "p∘e = id and e∘p ⊆ id for both schemes, n ≤ 10"):
        for scheme in Scheme:
            for n in range(1, 11):
                report = check_ep_laws(ep_pair(scheme, n))
                assert report.ok, (scheme, n, report.witness)


def test_criterion_03_path_rows():
    with criterion(3, "consistent label paths reproduce the published rows at depth 10"):
        rows = {p.label: p.entries for p in limit_paths(Scheme.STANDARD, 10)}
        assert rows["0"] == (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert rows["1"] == (0, 0, 1, 1, 1, 1, 1, 1, 1, 1)
        assert rows["2"] == (0, 0, 1, 1, 2, 2, 2, 2, 2, 2)
        assert rows["0'"] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert rows["1'"] == (0, 0, 1, 2, 3, 4, 5, 6, 7, 8)
        assert rows["2'"] == (0, 0, 1, 1, 2, 3, 4, 5, 6, 7)
        assert rows["inf"] == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)

        alt = {p.label: p.entries for p in limit_paths(Scheme.ALTERNATIVE, 10)}
        assert alt["inf"] == tuple(range(10))
        for k in range(9):
            assert alt[str(k)] == tuple(min(d, k) for d in range(10))


PHI_COLUMNS = ["0", "1", "2", "3", "4", "5", "inf", "5'", "4'", "3'", "2'", "1'", "0'"]
PHI_TABLE = [
    ("psi_0",   "0000000000000"),
    ("psi_1",   "0000000000001"),
    ("psi_2",   "0000000000011"),
    ("psi_3",   "0000000000111"),
    ("psi_4",   "0000000001111"),
    ("psi_5",   "0000000011111"),
    ("psi_inf", "0000000111111"),
    ("psi_5'",  "0000011111111"),
    ("psi_4'",  "0000111111111"),
    ("psi_3'",  "0001111111111"),
    ("psi_2'",  "0011111111111"),
    ("psi_1'",  "0111111111111"),
    ("psi_0'",  "1111111111111"),
]

LP_COLUMNS = ["0", "1", "2", "3", "4", "5", "inf", "inf'", "5'", "4'", "3'", "2'", "1'", "0'"]
LP_TABLE = [
    ("psi_0",    "00000000000000"),
    ("psi_1",    "00000000000001"),
    ("psi_2",    "00000000000011"),
    ("psi_3",    "00000000000111"),
    ("psi_4",    "00000000001111"),
    ("psi_5",    "00000000011111"),
    ("psi_inf",  "00000000111111"),
    ("psi_inf'", "00000001111111"),
    ("psi_5'",   "00000111111111"),
    ("psi_4'",   "00001111111111"),
    ("psi_3'",   "00011111111111"),
    ("psi_2'",   "00111111111111"),
    ("psi_1'",   "01111111111111"),
    ("psi_0'",   "11111111111111"),
]


def _canonical_cells(name, columns, table):
    c = named_cpo(name)
    iso_map = canonical_iso(c)
    for row_label, bits in table:
        seg = iso_map.space.segment_at(c.to_elem(row_label.removeprefix("psi_")))
        got = "".join(str(eval_segment(c.word, seg, c.to_elem(col))) for col in columns)
        assert got == bits, (row_label, got, bits)


def test_criterion_04_function_spaces():
    with criterion(4, "map spaces: Φ and Λ′ self-isomorphic cell-for-cell, Θ and V not"):
        assert self_iso(named_cpo("phi").word).is_iso
        _canonical_cells("phi", PHI_COLUMNS, PHI_TABLE)

        theta = self_iso(named_cpo("theta").word)
        assert scott_opens(named_cpo("theta").word).word == parse_word("1+w*")
        assert not theta.is_iso

        assert self_iso(named_cpo("lambda_prime").word).is_iso
        _canonical_cells("lambda_prime", LP_COLUMNS, LP_TABLE)

        v = self_iso(named_cpo("v").word)
        assert not v.is_iso
        assert any("immediate predecessor" in note for note in v.notes)


def test_criterion_05_fixed_points():
    with criterion(5, "fixed points land on the published labels; Θ is rejected"):
        for name in ("phi", "lambda"):
            assert fpt(named_cpo(name), Mu.CONST0).value == 0
            assert fpt(named_cpo(name), Mu.CONST0).g_label == "psi_0"
            assert fpt(named_cpo(name), Mu.CONST1).value == 1
            assert fpt(named_cpo(name), Mu.CONST1).g_label == "psi_0'"
            r = fpt(named_cpo(name), Mu.ID)
            assert (r.g_label, r.preimage_label, r.value) == ("psi_inf", "inf", 0)
        r = fpt(named_cpo("lambda_prime"), Mu.ID)
        assert (r.g_label, r.preimage_label, r.value) == ("psi_inf'", "inf'", 1)
        for mu in Mu:
            with pytest.raises(NotIsomorphic):
                fpt(named_cpo("theta"), mu)


def test_criterion_06_oracle_equivalence():
    with criterion(6, "symbolic space of a finite chain equals the brute-force one, k ≤ 8"):
        from scottlab.words import window_elems

        for k in range(1, 9):
            w = parse_word(str(k))
            space = scott_opens(w)
            assert space.word == parse_word(str(k + 1))
            xs = window_elems(w, 0)
            rows = [
                "".join(str(eval_segment(w, space.segment_at(pos), x)) for x in xs)
                for pos in window_elems(space.word, 0)
            ]
            assert rows == list(enumerate_monotone(k))


def test_criterion_07_transformations():
    with criterion(7, "opp is an involution and lr toggles families, index preserved"):
        for kind in (st.SpecKind.II, st.SpecKind.III):
            for i in range(1, 101):
                x = st.realize(st.SpecifiedString(kind, i))
                assert st.opp(st.opp(x)) == x
        for x in (st.ALL_ZEROS_L, st.ALL_ONES_L, st.ALL_ZEROS_R, st.ALL_ONES_R):
            assert st.opp(st.opp(x)) == x

        assert st.opp(st.parse_literal("...00011")) == st.parse_literal("00111...")

        toggled = {st.SpecKind.I: st.SpecKind.III, st.SpecKind.II: st.SpecKind.IV,
                   st.SpecKind.III: st.SpecKind.I, st.SpecKind.IV: st.SpecKind.II}
        for kind, image in toggled.items():
            for i in range(1, 101):
                out = st.lr(st.SpecifiedString(kind, i))
                assert (out.kind, out.index) == (image, i)

        c = st.classify(st.parse_literal("0111..."))
        realized = st.realize(st.lr(st.SpecifiedString(c.family, c.index)))
        assert realized == st.parse_literal("...111")


def test_criterion_08_adjunction():
    with criterion(8, "adjunction holds for the primed pairings and fails for (Ω′, Ω^opp)"):
        assert st.ALL_ONES_R in half_window(OMEGA_PRIME_HALF, 50)
        assert st.ALL_ZEROS_L in half_window(OMEGA_PRIME_OPP_HALF, 50)
        assert st.PairString(st.ALL_ZEROS_R, st.ALL_ZEROS_L) in half_window(XI_HALF, 50)
        assert st.PairString(st.ALL_ONES_R, st.ALL_ONES_L) in half_window(XI_OPP_HALF, 50)

        assert check_adjunction("lambda_prime", window=50).passed
        assert check_adjunction("v", window=50).passed

        failing = check_adjunction("lambda", window=50)
        assert not failing.passed
        first = next(c for c in failing.conditions if c.index == 1)
        assert not first.passed
        assert first.witness == "...111"
        assert all(c.passed for c in failing.conditions if c.index != 1)


def test_criterion_09_boundaries():
    with criterion(9, "boundary elements are self-dual with the published neighbors"):
        m = boundary_report("lambda_hat_prime")
        assert m.boundary == BOUNDARY_M
        assert m.self_dual
        assert m.predecessor is None and m.successor is None
        assert m.join_of_lower and m.meet_of_upper

        mp = boundary_report("v")
        assert mp.boundary == BOUNDARY_M_PRIME
        assert mp.self_dual
        assert (mp.predecessor, mp.successor) == ("-1", "+1")
        assert mp.join_of_lower and mp.meet_of_upper


ISO_CLASSES = [
    {"two"},
    {"omega"},
    {"omega_opp"},
    {"theta", "omega_prime", "xi_opp"},
    {"omega_prime_opp", "xi"},
    {"phi", "lambda", "lambda_hat_prime"},
    {"lambda_prime"},
    {"v"},
]


def test_criterion_10_isomorphism_matrix():
    with criterion(10, "the catalogue splits into the published isomorphism classes"):
        names = all_names()
        assert sorted(names) == sorted(n for cls in ISO_CLASSES for n in cls)
        for a in names:
            for b in names:
                expected = any(a in cls and b in cls for cls in ISO_CLASSES)
                got = iso(named_cpo(a).word, named_cpo(b).word)
                assert got == expected, (a, b)


def test_criterion_11_replication():
    with criterion(11, "folding is 2-to-1 only at m′ and replication splits m"):
        images = {}
        sources = [st.realize(st.SpecifiedString(k, i))
                   for k in (st.SpecKind.II, st.SpecKind.III) for i in range(1, 40)]
        sources += [st.ALL_ZEROS_L, st.ALL_ONES_R]
        for x in sources:
            images.setdefault(str(lcr_forward(x).image), []).append(x)
        collisions = {k: v for k, v in images.items() if len(v) > 1}
        assert set(collisions) == {str(BOUNDARY_M_PRIME)}
        assert {str(x) for x in collisions[str(BOUNDARY_M_PRIME)]} == {"...000", "111..."}

        for x in sources:
            img = lcr_forward(x).image
            if img == BOUNDARY_M_PRIME:
                continue
            assert lcr_backward(img) == x
        assert lcr_backward(BOUNDARY_M_PRIME, st.Orientation.R) == st.parse_literal("...000")
        assert lcr_backward(BOUNDARY_M_PRIME, st.Orientation.L) == st.parse_literal("111...")

        r = replicate(BOUNDARY_M)
        assert (str(r.intent), str(r.extent)) == ("000...", "...111")
        assert (r.intent_label, r.extent_label) == ("inf'", "inf")
        assert r.mutual_neighbors


TABLE8_EXPECTED = [
    ("lambda", "no", "applicable", "n/a", "ω+1+ω*"),
    ("lambda_prime", "yes", "applicable", "n/a", "ω+1+1+ω*"),
    ("lambda_hat_prime", "yes", "applicable", "m", "ω+1+ω*"),
    ("v", "yes", "not applicable", "m'", "1+ω*+ω+1"),
]


def test_criterion_12_summary_matrix():
    with criterion(12, "the pipeline's summary matrix matches in all 16 cells"):
        got = [
            (r.cpo, r.adjunction, r.fixed_point, r.boundary, r.order_type)
            for r in pipeline().table8
        ]
        assert got == TABLE8_EXPECTED
