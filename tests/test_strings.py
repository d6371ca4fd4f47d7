import pytest

from scottlab import strings as st
from scottlab.errors import BadDepth, BadIndex, BadLiteral


def test_realized_family_shapes():
    assert st.realize(st.SpecifiedString(st.SpecKind.I, 3)) == st.ALL_ZEROS_L
    assert st.realize(st.SpecifiedString(st.SpecKind.IV, 2)) == st.ALL_ONES_R
    two_ones = st.realize(st.SpecifiedString(st.SpecKind.III, 3))
    assert two_ones == st.MonotypicString(st.Orientation.R, st.OMEGA_MANY, 2)
    one_zero = st.realize(st.SpecifiedString(st.SpecKind.II, 2))
    assert one_zero == st.MonotypicString(st.Orientation.L, 1, st.OMEGA_MANY)


def test_classify_inverts_realize_for_indexed_families():
    for kind in (st.SpecKind.II, st.SpecKind.III):
        for i in range(1, 40):
            c = st.classify(st.realize(st.SpecifiedString(kind, i)))
            assert (c.family, c.index) == (kind, i)


def test_classify_extreme_strings_lose_their_index():
    assert st.classify(st.ALL_ZEROS_L) == st.StringClass(st.SpecKind.I, None)
    assert st.classify(st.ALL_ONES_R) == st.StringClass(st.SpecKind.IV, None)
    # reoriented extremes land in the indexed families at index 1
    assert st.classify(st.ALL_ZEROS_R) == st.StringClass(st.SpecKind.III, 1)
    assert st.classify(st.ALL_ONES_L) == st.StringClass(st.SpecKind.II, 1)


def test_bad_index_rejected():
    with pytest.raises(BadIndex):
        st.SpecifiedString(st.SpecKind.I, 0)


def test_finite_approx_stage_words():
    # stage n has words of length n-1; right-open families display reversed
    assert st.finite_approx(st.SpecKind.I, 2, 5) == "0001"
    assert st.finite_approx(st.SpecKind.II, 3, 5) == "0011"
    assert st.finite_approx(st.SpecKind.III, 3, 5) == "0011"
    assert st.finite_approx(st.SpecKind.IV, 2, 5) == "0111"
    assert st.finite_approx(st.SpecKind.II, 1, 2) == "1"


def _native_bits(kind, i, n):
    """The stage-n word of recipe i, letter by letter at native positions 1..n-1."""
    bits = []
    for j in range(1, n):
        if kind is st.SpecKind.I:
            bits.append(0 if j <= n - i else 1)
        elif kind is st.SpecKind.II:
            bits.append(0 if j < i else 1)
        elif kind is st.SpecKind.III:
            bits.append(1 if j < i else 0)
        else:
            bits.append(1 if j <= n - i else 0)
    return bits


def test_stage_words_match_the_letter_by_letter_build():
    """Oracle for the zero count: families III and IV count their native positions from the right."""
    for kind in st.SpecKind:
        for n in range(2, 41):
            for i in range(1, n + 1):
                bits = _native_bits(kind, i, n)
                assert [st.approx_bit(kind, i, n, j) for j in range(1, n)] == bits, (kind, i, n)
                if kind in (st.SpecKind.III, st.SpecKind.IV):
                    bits.reverse()
                assert st.finite_approx(kind, i, n) == "".join(map(str, bits)), (kind, i, n)


def test_approximations_and_limit_checks_are_bounded():
    assert len(st.finite_approx(st.SpecKind.II, 3, 1000)) == 999
    assert st.limit_check(st.SpecKind.II, 3, 2, 1000)
    with pytest.raises(BadDepth, match="must be <= "):
        st.finite_approx(st.SpecKind.II, 3, st.MAX_APPROX_STAGE + 1)
    with pytest.raises(BadDepth, match="must be <= "):
        st.limit_check(st.SpecKind.II, 3, 2, st.MAX_STABILITY_DEPTH + 1)
    with pytest.raises(BadDepth, match="must be <= "):
        st.approx_bit(st.SpecKind.II, 3, st.MAX_APPROX_STAGE + 1, 1)
    # the deepest stage limit_check reads is one approx_bit takes
    assert st.limit_check(st.SpecKind.II, st.MAX_STABILITY_DEPTH - 1, 1, st.MAX_STABILITY_DEPTH)


def _scanned_limit_check(kind, i, j, depth):
    """The stage-by-stage scan limit_check replaced: every stage n with j + i <= n <= depth."""
    want = st.bit_at(st.realize(st.SpecifiedString(kind, i)), j)
    return all(st.approx_bit(kind, i, n, j) == want for n in range(j + i, depth + 1))


def test_limit_check_equals_the_stage_scan():
    for kind in st.SpecKind:
        for i in range(1, 12):
            for j in range(1, 12):
                want = st.bit_at(st.realize(st.SpecifiedString(kind, i)), j)
                stable = True  # the scan's verdict, grown one stage at a time
                for depth in range(j + i, j + i + 41):
                    stable = stable and st.approx_bit(kind, i, depth, j) == want
                    assert st.limit_check(kind, i, j, depth) == stable, (kind, i, j, depth)


def test_limit_check_at_the_depth_bound_equals_the_stage_scan():
    depth = st.MAX_STABILITY_DEPTH
    assert st.limit_check(st.SpecKind.II, 7, 5, depth) == _scanned_limit_check(st.SpecKind.II, 7, 5, depth)


def test_finite_approx_rejects_index_beyond_stage():
    with pytest.raises(BadIndex):
        st.finite_approx(st.SpecKind.II, 7, 5)
    with pytest.raises(BadDepth, match="^stage must be >= 2, got 1$"):
        st.finite_approx(st.SpecKind.I, 1, 1)


def test_approx_bits_converge_to_the_realized_string():
    for kind in st.SpecKind:
        for i in (1, 2, 4):
            x = st.realize(st.SpecifiedString(kind, i))
            for j in range(1, 6):
                assert st.limit_check(kind, i, j, depth=30)
                assert st.approx_bit(kind, i, 30, j) == st.bit_at(x, j)


def test_bit_at_reads_from_the_open_end():
    x = st.parse_literal("...0011")
    assert [st.bit_at(x, j) for j in range(1, 6)] == [1, 1, 0, 0, 0]
    y = st.parse_literal("011...")
    assert [st.bit_at(y, j) for j in range(1, 6)] == [0, 1, 1, 1, 1]


def test_opp_flips_letters_and_orientation():
    assert st.opp(st.parse_literal("...00011")) == st.parse_literal("00111...")
    assert st.opp(st.ALL_ZEROS_L) == st.ALL_ONES_R
    assert st.opp(st.ALL_ONES_L) == st.ALL_ZEROS_R


def test_opp_is_an_involution_on_families():
    for kind in (st.SpecKind.II, st.SpecKind.III):
        for i in range(1, 101):
            x = st.realize(st.SpecifiedString(kind, i))
            assert st.opp(st.opp(x)) == x
    for x in (st.ALL_ZEROS_L, st.ALL_ONES_L, st.ALL_ZEROS_R, st.ALL_ONES_R):
        assert st.opp(st.opp(x)) == x


def test_opp_exchanges_families():
    for i in range(1, 30):
        c = st.classify(st.opp(st.realize(st.SpecifiedString(st.SpecKind.II, i))))
        assert (c.family, c.index) == (st.SpecKind.III, i)
    assert st.classify(st.opp(st.ALL_ZEROS_L)).family is st.SpecKind.IV
    assert st.classify(st.opp(st.ALL_ONES_R)).family is st.SpecKind.I


def test_opp_pair_swaps_and_opps():
    p = st.parse_pair_literal("(...00011, 11111...)")
    q = st.opp_pair(p)
    assert q == st.parse_pair_literal("(...00000, 00111...)")


def test_lr_toggles_families_keeping_the_index():
    cases = {
        st.SpecKind.I: st.SpecKind.III,
        st.SpecKind.II: st.SpecKind.IV,
        st.SpecKind.III: st.SpecKind.I,
        st.SpecKind.IV: st.SpecKind.II,
    }
    for kind, image in cases.items():
        for i in (1, 2, 7):
            s = st.SpecifiedString(kind, i)
            t = st.lr(s)
            assert (t.kind, t.index) == (image, i)
            assert st.lr(t) == s


def test_lr_realized_example():
    # 0111... is the second left recipe; its lr twin realizes to ...111
    s = st.classify(st.parse_literal("0111..."))
    assert (s.family, s.index) == (st.SpecKind.II, 2)
    out = st.realize(st.lr(st.SpecifiedString(s.family, s.index)))
    assert out == st.parse_literal("...111")


def test_lr_pair_acts_componentwise():
    a = st.SpecifiedString(st.SpecKind.III, 1)
    b = st.SpecifiedString(st.SpecKind.II, 5)
    ta, tb = st.lr_pair((a, b))
    assert (ta.kind, ta.index) == (st.SpecKind.I, 1)
    assert (tb.kind, tb.index) == (st.SpecKind.IV, 5)


def test_literal_round_trips():
    for text in ["000...", "...000", "111...", "...111", "...001", "011...",
                 "...0011", "00111...", "0011..."]:
        x = st.parse_literal(text)
        assert st.parse_literal(st.render_literal(x)) == x


def test_render_pads_are_canonical():
    assert st.render_literal(st.ALL_ZEROS_L) == "000..."
    assert st.render_literal(st.ALL_ONES_R) == "...111"
    assert st.render_literal(st.parse_literal("...00011")) == "...0011"
    assert st.render_literal(st.parse_literal("00111...")) == "0011..."


def test_parse_rejects_junk_literals():
    for bad in ["", "01", "0101...", "...", "0...1", "...10", "2...", "..01"]:
        with pytest.raises(BadLiteral):
            st.parse_literal(bad)


def test_parse_rejects_finite_or_doubly_infinite():
    with pytest.raises(BadLiteral):
        st.parse_literal("...0011...")


def test_pair_literal_round_trip():
    p = st.parse_pair_literal("(000..., ...111)")
    assert str(p) == "(000..., ...111)"
    with pytest.raises(BadLiteral):
        st.parse_pair_literal("(000...)")
