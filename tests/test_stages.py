import pytest

from scottlab.errors import BadDepth
from scottlab.stages import (
    MAX_DIAGRAM_DEPTH,
    MAX_EP_STAGE,
    MAX_LIMIT_DEPTH,
    MAX_MONOTONE_CHAIN,
    MAX_PATHS_DEPTH,
    MAX_STAGE,
    EpPair,
    LabelMap,
    PathClass,
    Scheme,
    _classify,
    check_ep_laws,
    diagram_dot,
    enumerate_monotone,
    ep_pair,
    limit_cpo,
    limit_paths,
    stage,
)
from scottlab.words import OMEGA, OMEGA_STAR, fin, parse_word, word_of


def test_stage_words_are_the_monotone_maps():
    for n in range(1, 13):
        s = stage(n)
        assert len(s.elements) == n
        assert list(s.elements) == sorted(s.elements)
        if n > 1:
            assert list(s.elements) == list(enumerate_monotone(n - 1))


def test_stage_one_is_the_empty_word():
    assert stage(1).elements == ("",)


def test_stage_rejects_nonpositive():
    with pytest.raises(BadDepth):
        stage(0)


def test_enumerate_monotone_counts():
    for m in range(1, 9):
        assert len(enumerate_monotone(m)) == m + 1


def test_standard_pair_splits_at_the_midpoint():
    pair = ep_pair(Scheme.STANDARD, 5)
    assert pair.e.mapping == (0, 1, 2, 4, 5)
    assert pair.p.mapping == (0, 1, 2, 2, 3, 4)


def test_alternative_pair_keeps_the_prefix():
    pair = ep_pair(Scheme.ALTERNATIVE, 5)
    assert pair.e.mapping == (0, 1, 2, 3, 4)
    assert pair.p.mapping == (0, 1, 2, 3, 4, 4)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_ep_laws_hold(scheme):
    for n in range(1, 11):
        assert check_ep_laws(ep_pair(scheme, n)).ok


def test_ep_law_checker_catches_a_broken_deflation():
    good = ep_pair(Scheme.STANDARD, 4)
    # send the collapsed label upward; the retraction survives because 2
    # is outside the embedding's image, but e∘p ⊆ id breaks there
    bad_p = list(good.p.mapping)
    assert bad_p[2] == 1
    bad_p[2] = 3
    broken = EpPair(good.scheme, good.n,
                    good.e, LabelMap(good.p.from_stage, good.p.to_stage, tuple(bad_p)))
    report = check_ep_laws(broken)
    assert report.p_after_e_is_id
    assert not report.e_after_p_below_id
    assert not report.ok
    assert report.witness == "e(p(2)) = 4"


def test_ep_law_checker_catches_a_broken_retraction():
    good = ep_pair(Scheme.STANDARD, 4)
    # pull the top label down two: still monotone and still deflating,
    # but p∘e is no longer the identity
    bad_p = list(good.p.mapping)
    bad_p[-1] = 2
    broken = EpPair(good.scheme, good.n,
                    good.e, LabelMap(good.p.from_stage, good.p.to_stage, tuple(bad_p)))
    report = check_ep_laws(broken)
    assert not report.p_after_e_is_id
    assert report.e_after_p_below_id
    assert report.p_monotone
    assert not report.ok
    assert report.witness == "p(e(3)) = 2"


def test_ep_law_checker_catches_a_broken_section():
    good = ep_pair(Scheme.STANDARD, 4)
    bad_e = list(good.e.mapping)
    bad_e[0] = 1
    broken = EpPair(good.scheme, good.n,
                    LabelMap(good.e.from_stage, good.e.to_stage, tuple(bad_e)), good.p)
    assert not check_ep_laws(broken).p_after_e_is_id


def test_standard_paths_at_depth_10():
    rows = {p.label: p.entries for p in limit_paths(Scheme.STANDARD, 10)}
    assert rows["0"] == (0,) * 10
    assert rows["1"] == (0, 0, 1, 1, 1, 1, 1, 1, 1, 1)
    assert rows["2"] == (0, 0, 1, 1, 2, 2, 2, 2, 2, 2)
    assert rows["0'"] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert rows["1'"] == (0, 0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert rows["2'"] == (0, 0, 1, 1, 2, 3, 4, 5, 6, 7)
    assert rows["inf"] == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
    assert rows["4'"] == (0, 0, 1, 1, 2, 2, 3, 3, 4, 5)
    assert set(rows) == {"0", "1", "2", "3", "inf", "0'", "1'", "2'", "3'", "4'"}


def test_alternative_paths_at_depth_10():
    rows = {p.label: p.entries for p in limit_paths(Scheme.ALTERNATIVE, 10)}
    assert rows["inf"] == tuple(range(10))
    for k in range(9):
        assert rows[str(k)] == tuple(min(d, k) for d in range(10))
    assert set(rows) == {str(k) for k in range(9)} | {"inf"}


def test_path_kinds_partition():
    for scheme in Scheme:
        for p in limit_paths(scheme, 8):
            assert p.kind in PathClass
            assert (p.index is None) == (p.kind is PathClass.INFINITY)


def test_limit_order_types():
    assert limit_cpo(Scheme.STANDARD) == parse_word("w+1+w*")
    assert limit_cpo(Scheme.ALTERNATIVE) == parse_word("w+1")


def test_limit_is_stable_in_depth():
    for depth in (6, 9, 15):
        assert limit_cpo(Scheme.STANDARD, depth) == parse_word("w+1+w*")
        assert limit_cpo(Scheme.ALTERNATIVE, depth) == parse_word("w+1")


def test_diagram_shape():
    dot = diagram_dot(Scheme.STANDARD, 3)
    assert dot.startswith("digraph stages_standard {")
    assert dot.rstrip().endswith("}")
    assert '"s1_λ"' in dot
    assert '"s2_1" -> "s3_11" [label="e"]' in dot
    assert '"s3_11" -> "s2_1" [label="p"]' in dot
    assert '"s2_0" -> "s3_00" [dir=both]' in dot
    with pytest.raises(BadDepth):
        diagram_dot(Scheme.STANDARD, 1)


# -- oracles: the recursive path search and the per-node diagram -------------

def grow_paths(scheme, depth):
    """Every projection-consistent path, grown up from stage 1 by search."""
    pairs = [ep_pair(scheme, n) for n in range(1, depth)]
    paths = []

    def grow(prefix):
        n = len(prefix)
        if n == depth:
            paths.append(prefix)
            return
        p = pairs[n - 1].p
        for j in range(n + 1):
            if p(j) == prefix[-1]:
                grow(prefix + (j,))

    grow((0,))
    return sorted(paths)


def per_node_diagram(scheme, depth):
    """The stage diagram with each node name rebuilt from its stage."""
    lines = [f"digraph stages_{scheme.value} {{", "  rankdir=LR;", "  node [shape=plaintext];"]

    def node(n, k):
        text = stage(n).elements[k] or "λ"
        return '"' + f"s{n}_{text}".replace('"', '\\"') + '"'

    for n in range(1, depth + 1):
        members = " ".join(node(n, k) for k in range(n))
        lines.append(f"  {{ rank=same; {members} }}")
    for n in range(1, depth):
        pair = ep_pair(scheme, n)
        for j in range(n + 1):
            k = pair.p(j)
            if pair.e(k) == j:
                if k == j:
                    lines.append(f"  {node(n, k)} -> {node(n + 1, j)} [dir=both];")
                else:
                    lines.append(f"  {node(n, k)} -> {node(n + 1, j)} [label=\"e\"];")
                    lines.append(f"  {node(n + 1, j)} -> {node(n, k)} [label=\"p\"];")
            else:
                lines.append(f"  {node(n + 1, j)} -> {node(n, k)} [label=\"p\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


ORACLE_DEPTHS = range(2, 31)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_paths_match_the_recursive_search(scheme):
    for depth in ORACLE_DEPTHS:
        paths = limit_paths(scheme, depth)
        assert [p.entries for p in paths] == grow_paths(scheme, depth), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_paths_come_out_sorted(scheme):
    for depth in ORACLE_DEPTHS:
        paths = limit_paths(scheme, depth)
        assert paths == tuple(sorted(paths, key=lambda p: p.entries)), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_cpo_matches_the_kinds_of_the_searched_paths(scheme):
    for depth in ORACLE_DEPTHS:
        kinds = {_classify(scheme, depth, e[-1])[0] for e in grow_paths(scheme, depth)}
        atoms = [OMEGA]
        if PathClass.INFINITY in kinds:
            atoms.append(fin(1))
        if PathClass.PRIMED in kinds:
            atoms.append(OMEGA_STAR)
        assert limit_cpo(scheme, depth) == word_of(*atoms), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_diagram_matches_the_per_node_build(scheme):
    for depth in ORACLE_DEPTHS:
        assert diagram_dot(scheme, depth) == per_node_diagram(scheme, depth), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_paths_reject_depth_below_two(scheme):
    for depth in (1, 0, -3):
        with pytest.raises(BadDepth):
            limit_paths(scheme, depth)
        with pytest.raises(BadDepth):
            limit_cpo(scheme, depth)


def test_exponential_oracle_and_diagram_are_bounded():
    with pytest.raises(BadDepth):
        enumerate_monotone(MAX_MONOTONE_CHAIN + 1)
    # perfbench's scaling series draws the diagram at depths up to 200
    assert MAX_DIAGRAM_DEPTH >= 200
    for scheme in Scheme:
        with pytest.raises(BadDepth):
            diagram_dot(scheme, MAX_DIAGRAM_DEPTH + 1)


def test_stage_tower_bounds_admit_the_sizes_in_use():
    # tests/test_cli.py runs paths and limit at depth 1100, past the recursion limit
    assert min(MAX_PATHS_DEPTH, MAX_LIMIT_DEPTH) >= 1100
    # perfbench sends stages, ep pairs and depths of at most 200
    assert min(MAX_STAGE, MAX_EP_STAGE) >= 200
    assert len(stage(MAX_STAGE).elements) == MAX_STAGE
    assert ep_pair(Scheme.STANDARD, MAX_EP_STAGE).n == MAX_EP_STAGE
    # one step past each bound exits 2: see USAGE_ERRORS in tests/test_cli.py
