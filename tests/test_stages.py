import pytest

from scottlab.errors import BadDepth
from scottlab.stages import (
    MAX_DIAGRAM_DEPTH,
    MAX_EP_STAGE,
    MAX_LIMIT_DEPTH,
    MAX_MONOTONE_CHAIN,
    MAX_PATHS_DEPTH,
    MAX_STAGE,
    EpLawReport,
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


def test_ep_law_witness_names_the_retraction_first():
    good = ep_pair(Scheme.STANDARD, 4)
    # p(2) = 3 breaks e∘p ⊆ id at 2 (e(3) = 4), and p(4) = 2 breaks p∘e = id at 3 (e(3) = 4);
    # the witness names the p∘e failure although the e∘p one sits at a lower label
    bad_p = list(good.p.mapping)
    bad_p[2] = 3
    bad_p[-1] = 2
    broken = EpPair(good.scheme, good.n,
                    good.e, LabelMap(good.p.from_stage, good.p.to_stage, tuple(bad_p)))
    report = check_ep_laws(broken)
    assert not report.p_after_e_is_id
    assert not report.e_after_p_below_id
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


# -- oracles: the recursive path search, the column walk, the per-label law
# check, and the per-node and ep-map-driven diagrams --------------------------

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


def ep_map_diagram(scheme, depth):
    """The stage diagram drawn label by label off the explicit ep maps, node names built once per stage."""
    lines = [f"digraph stages_{scheme.value} {{", "  rankdir=LR;", "  node [shape=plaintext];"]
    nodes = [['"' + f"s{n}_{text or 'λ'}".replace('"', '\\"') + '"' for text in stage(n).elements]
             for n in range(1, depth + 1)]
    for members in nodes:
        lines.append(f"  {{ rank=same; {' '.join(members)} }}")
    for n in range(1, depth):
        pair = ep_pair(scheme, n)
        e, p = pair.e.mapping, pair.p.mapping
        lower, upper = nodes[n - 1], nodes[n]
        for j in range(n + 1):
            k = p[j]
            if e[k] == j:
                if k == j:
                    lines.append(f"  {lower[k]} -> {upper[j]} [dir=both];")
                else:
                    lines.append(f"  {lower[k]} -> {upper[j]} [label=\"e\"];")
                    lines.append(f"  {upper[j]} -> {lower[k]} [label=\"p\"];")
            else:
                lines.append(f"  {upper[j]} -> {lower[k]} [label=\"p\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def walk_paths(scheme, depth):
    """Every path, each final label walked down through the explicit p maps one stage at a time."""
    labels = list(range(depth))
    columns = [labels]  # labels of stage depth, depth-1, ..., 1
    for n in range(depth - 1, 0, -1):
        p = ep_pair(scheme, n).p.mapping
        labels = [p[k] for k in labels]
        columns.append(labels)
    return list(zip(*reversed(columns)))


def per_label_laws(pair):
    """The section/retraction laws, each label probed through the LabelMaps one call at a time."""
    n, e, p = pair.n, pair.e, pair.p
    pe = next((k for k in range(n) if p(e(k)) != k), None)
    ep = next((k for k in range(n + 1) if e(p(k)) > k), None)
    witness = (f"p(e({pe})) = {p(e(pe))}" if pe is not None
               else None if ep is None else f"e(p({ep})) = {e(p(ep))}")
    e_mono = all(e(k) <= e(k + 1) for k in range(n - 1))
    p_mono = all(p(k) <= p(k + 1) for k in range(n))
    return EpLawReport(pe is None, ep is None, e_mono, p_mono,
                       pe is None and ep is None and e_mono and p_mono, witness)


def single_entry_mutations(pair):
    """The pair with one entry of e, or of p, moved to each other label of its codomain."""
    e, p = pair.e, pair.p
    for i, old in enumerate(e.mapping):
        for new in range(pair.n + 1):
            if new != old:
                yield pair._replace(e=e._replace(mapping=(*e.mapping[:i], new, *e.mapping[i + 1:])))
    for i, old in enumerate(p.mapping):
        for new in range(pair.n):
            if new != old:
                yield pair._replace(p=p._replace(mapping=(*p.mapping[:i], new, *p.mapping[i + 1:])))


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


def word_of_kinds(kinds):
    """The limit's order type read off the path kinds present."""
    atoms = [OMEGA]
    if PathClass.INFINITY in kinds:
        atoms.append(fin(1))
    if PathClass.PRIMED in kinds:
        atoms.append(OMEGA_STAR)
    return word_of(*atoms)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_cpo_matches_the_kinds_of_the_searched_paths(scheme):
    for depth in ORACLE_DEPTHS:
        kinds = {_classify(scheme, depth, e[-1])[0] for e in grow_paths(scheme, depth)}
        assert limit_cpo(scheme, depth) == word_of_kinds(kinds), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_limit_cpo_matches_the_kinds_of_every_path(scheme):
    """Oracle for the one-label decision: the kinds of all limit_paths paths, depths 2-200."""
    for depth in range(2, 201):
        kinds = {p.kind for p in limit_paths(scheme, depth)}
        assert limit_cpo(scheme, depth) == word_of_kinds(kinds), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_diagram_matches_the_per_node_build(scheme):
    for depth in ORACLE_DEPTHS:
        assert diagram_dot(scheme, depth) == per_node_diagram(scheme, depth), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_diagram_matches_the_ep_map_drawing(scheme):
    for depth in [*range(2, 121), MAX_DIAGRAM_DEPTH]:
        assert diagram_dot(scheme, depth) == ep_map_diagram(scheme, depth), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_closed_form_paths_match_the_column_walk(scheme):
    for depth in range(2, 301):
        assert [p.entries for p in limit_paths(scheme, depth)] == walk_paths(scheme, depth), depth


@pytest.mark.parametrize("scheme", list(Scheme))
def test_ep_laws_match_the_per_label_check_on_every_single_entry_mutation(scheme):
    for n in range(1, 9):
        pair = ep_pair(scheme, n)
        assert check_ep_laws(pair) == per_label_laws(pair)
        mutations = list(single_entry_mutations(pair))
        assert len(mutations) == n * n + (n + 1) * (n - 1)
        for broken in mutations:
            report = check_ep_laws(broken)
            assert report == per_label_laws(broken), broken
            assert not report.ok, broken


def per_label_ep_maps(scheme, n):
    """The e and p mappings, each label computed on its own."""
    if scheme is Scheme.STANDARD:
        t = (n - 1) // 2
        return (tuple(k if k <= t else k + 1 for k in range(n)),
                tuple(k if k <= t else k - 1 for k in range(n + 1)))
    return tuple(range(n)), tuple(min(k, n - 1) for k in range(n + 1))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_ep_pair_from_ranges_matches_the_per_label_maps(scheme):
    for n in [*range(1, 301), MAX_EP_STAGE]:
        pair = ep_pair(scheme, n)
        assert (pair.e.mapping, pair.p.mapping) == per_label_ep_maps(scheme, n), n


def test_stage_by_slicing_matches_the_per_word_build():
    for n in [*range(1, 301), MAX_STAGE]:
        assert stage(n).elements == tuple("0" * (n - 1 - k) + "1" * k for k in range(n)), n


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
