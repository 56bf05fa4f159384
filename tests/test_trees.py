"""Tree construction, profiles, recognizers, canonical codes, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    ASParams,
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    diameter,
    format_tree_text,
    leaf_set,
    make_as_tree,
    make_double_spider,
    make_path,
    make_spider,
    parse_tree,
    parse_tree_text,
    recognize_double_spider,
    recognize_spider,
    render_shorthand,
    tree_centers,
)

from oracles import (
    FREE_TREE_COUNTS,
    all_labeled_trees,
    count_trees,
    enumerate_trees,
    nonisomorphic_trees_by_diameter,
    prufer_to_edges,
    side_arm_lengths_reference,
    tree_count_by_diameter,
)
from steklov_trees.trees import _side_arm_lengths


# ------------------------------ Tree basics ------------------------------


def test_tree_validates_shape():
    with pytest.raises(ValueError):
        Tree(3, ((0, 1),))  # too few edges
    with pytest.raises(ValueError):
        Tree(3, ((0, 1), (0, 1)))  # duplicate edge
    with pytest.raises(ValueError):
        Tree(3, ((0, 1), (3, 1)))  # label out of range
    with pytest.raises(ValueError):
        Tree(3, ((0, 1), (1, 1)))  # self loop
    with pytest.raises(ValueError):
        Tree(4, ((0, 1), (2, 3), (0, 1)))  # disconnected plus duplicate
    with pytest.raises(ValueError, match="not connected"):
        Tree(4, ((0, 1), (1, 2), (0, 2)))  # cycle plus isolated vertex


def test_tree_degrees_and_adjacency():
    t = make_spider(SpiderProfile((2, 1, 1)))
    assert t.degrees[0] == 3
    assert sorted(t.adjacency[0]) == [1, 3, 4]
    assert sum(t.degrees) == 2 * len(t.edges)


def test_leaf_set_ascending():
    t = make_spider(SpiderProfile((3, 2, 1)))
    leaves = leaf_set(t)
    assert list(leaves) == sorted(leaves)
    assert all(t.degrees[v] == 1 for v in leaves)


def test_diameter_and_centers():
    assert diameter(make_path(6)) == 6
    assert tree_centers(make_path(6)) == [3]
    assert tree_centers(make_path(5)) == [2, 3]
    star = make_spider(SpiderProfile((1, 1, 1)))
    assert diameter(star) == 2
    assert tree_centers(star) == [0]
    assert diameter(Tree(2, ((0, 1),))) == 1


# ------------------------------- profiles --------------------------------


def test_spider_profile_sorts_and_validates():
    p = SpiderProfile((1, 3, 2))
    assert p.lengths == (3, 2, 1)
    assert p.order == 7
    assert p.diameter == 5
    with pytest.raises(ValueError):
        SpiderProfile((3,))
    with pytest.raises(ValueError):
        SpiderProfile((3, 0))


def test_as_params_shape():
    p = ASParams(2, 3, 1, 0)
    assert p.spider_profile().lengths == (3, 2, 1, 1, 1)
    assert p.lateral_mass == 3
    assert p.order == 9
    assert p.diameter == 5
    p = ASParams(4, 2, 2, 1)
    assert p.spider_profile().lengths == (5, 4, 3, 2)
    with pytest.raises(ValueError):
        ASParams(2, 3, 1, 3)  # t must stay below q
    with pytest.raises(ValueError):
        ASParams(2, 1, 3, 0)  # lateral branch longer than r
    with pytest.raises(ValueError):
        ASParams(2, 2, 2, 1)  # c+1 branch ties the principal r+1


def test_double_spider_profile_canonical_order():
    p = DoubleSpiderProfile((1, 2), (3,))
    assert p.a_lengths == (3,)
    assert p.b_lengths == (2, 1)
    assert p.order == 8
    assert p.diameter == 6


# -------------------------------- makers ---------------------------------


@pytest.mark.parametrize("profile", [(2, 1), (3, 2, 1), (4, 4, 1), (2, 2, 2, 2)])
def test_make_spider_shape(profile):
    t = make_spider(SpiderProfile(profile))
    assert t.n == 1 + sum(profile)
    assert diameter(t) == sorted(profile, reverse=True)[0] + sorted(profile, reverse=True)[1]
    assert len(leaf_set(t)) == len(profile)


@pytest.mark.parametrize(
    "a,b", [((2, 1), (2,)), ((3, 1), (3, 1)), ((4, 2, 1), (4, 3)), ((1,), (1,))]
)
def test_make_double_spider_shape(a, b):
    p = DoubleSpiderProfile(a, b)
    t = make_double_spider(p)
    assert t.n == p.order
    assert diameter(t) == p.diameter
    assert len(leaf_set(t)) == len(a) + len(b)


def test_make_as_tree_matches_profile():
    p = ASParams(4, 3, 1, 2)
    t = make_as_tree(p)
    assert recognize_spider(t).lengths == p.spider_profile().lengths
    assert t.n == p.order
    assert diameter(t) == p.diameter


# ------------------------------ recognizers ------------------------------


def test_recognize_spider_round_trip():
    for profile in [(2, 1), (3, 2, 1), (1, 1, 1), (4, 4, 2, 1)]:
        t = make_spider(SpiderProfile(profile))
        got = recognize_spider(t)
        assert got is not None and got.lengths == SpiderProfile(profile).lengths


def test_recognize_spider_on_paths_and_edge():
    assert recognize_spider(make_path(5)).lengths == (3, 2)
    assert recognize_spider(make_path(4)).lengths == (2, 2)
    assert recognize_spider(Tree(2, ((0, 1),))) is None


def test_recognize_spider_rejects_two_hubs():
    t = make_double_spider(DoubleSpiderProfile((1, 1), (1, 1)))
    assert recognize_spider(t) is None


def test_recognize_double_spider_round_trip():
    for a, b in [((2, 1), (2,)), ((3, 1), (3, 1)), ((4, 2), (4, 1, 1))]:
        p = DoubleSpiderProfile(a, b)
        got = recognize_double_spider(make_double_spider(p))
        assert got is not None
        assert (got.a_lengths, got.b_lengths) == (p.a_lengths, p.b_lengths)


def test_recognize_double_spider_special_shapes():
    star = make_spider(SpiderProfile((1, 1, 1)))
    assert recognize_double_spider(star) is None
    got = recognize_double_spider(make_path(7))
    assert (got.a_lengths, got.b_lengths) == ((3,), (3,))
    got = recognize_double_spider(make_path(6))
    assert (got.a_lengths, got.b_lengths) == ((3,), (2,))
    # two branch vertices at distance two: neither spider nor double spider
    t = Tree(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
    assert recognize_spider(t) is None
    assert recognize_double_spider(t) is None


def test_one_sided_double_spider_is_also_a_spider():
    t = make_double_spider(DoubleSpiderProfile((2, 1), (2,)))
    assert recognize_spider(t) is not None
    assert recognize_spider(t).lengths == (3, 2, 1)


def test_arm_walk_matches_deepest_leaf_charging():
    # From every vertex of every tree of order <= 12, and across the central edge of two-center trees.
    calls = 0
    for n in range(2, 13):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                for root in range(n):
                    assert _side_arm_lengths(t, root) == side_arm_lengths_reference(t, root, -1), (t, root)
                    calls += 1
                centers = tree_centers(t)
                if len(centers) == 2:
                    u, v = centers
                    assert _side_arm_lengths(t, u, v) == side_arm_lengths_reference(t, u, v), (t, u)
                    assert _side_arm_lengths(t, v, u) == side_arm_lengths_reference(t, v, u), (t, v)
                    calls += 2
    assert calls > 10_000


# ---------------------------- canonical codes ----------------------------


@settings(max_examples=120, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=7), min_size=6, max_size=6),
    salt=st.randoms(use_true_random=False),
)
def test_canonical_code_relabel_invariant(seq, salt):
    n = 8
    edges = prufer_to_edges(seq, n)
    t = Tree(n, tuple(edges))
    perm = list(range(n))
    salt.shuffle(perm)
    relabeled = Tree(n, tuple((perm[u], perm[v]) for u, v in edges))
    assert canonical_code(t) == canonical_code(relabeled)


def test_canonical_code_separates_shapes():
    star = make_spider(SpiderProfile((1, 1, 1)))
    path = make_path(3)
    assert star.n == path.n
    assert canonical_code(star) != canonical_code(path)


# ------------------------------ enumeration ------------------------------


@pytest.mark.parametrize("n", range(2, 15))
def test_count_trees_matches_frozen_table(n):
    assert count_trees(n) == FREE_TREE_COUNTS[n - 1]


def test_enumeration_rejects_trivial_order():
    with pytest.raises(ValueError):
        count_trees(1)


def test_enumerate_trees_partitions_by_diameter():
    n = 8
    total = 0
    seen = set()
    for d in range(1, n):
        for t in enumerate_trees(n, d):
            assert t.n == n
            assert diameter(t) == d
            code = canonical_code(t)
            assert code not in seen
            seen.add(code)
            total += 1
    assert total == FREE_TREE_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(2, 8))
def test_enumeration_complete_against_prufer(n):
    """Every labeled tree must hit exactly one canonical class."""
    labeled = {canonical_code(Tree(n, tuple(e))) for e in all_labeled_trees(n)}
    assert len(labeled) == FREE_TREE_COUNTS[n - 1]
    catalog = {
        canonical_code(t) for d in range(1, n) for t in enumerate_trees(n, d)
    }
    assert labeled == catalog


@pytest.mark.parametrize("n", range(2, 13))
def test_enumeration_matches_networkx_generator(n):
    """Same classes in the same order as an independent generator."""
    for d in range(1, n):
        codes = [canonical_code(t) for t in enumerate_trees(n, d)]
        assert codes == nonisomorphic_trees_by_diameter(n, d), d


@pytest.mark.parametrize("n", range(2, 17))
def test_enumeration_counts_match_height_recurrence(n):
    for d in range(1, n):
        assert sum(1 for _ in enumerate_trees(n, d)) == tree_count_by_diameter(n, d), d


# --------------------------- parse and render ----------------------------


def test_parse_tree_shorthands():
    assert parse_tree("path:5").n == 6
    assert recognize_spider(parse_tree("spider:3,2,1")).lengths == (3, 2, 1)
    ds = recognize_double_spider(parse_tree("ds:2,1/2,1"))
    assert (ds.a_lengths, ds.b_lengths) == ((2, 1), (2, 1))
    t = parse_tree("as:2,3,1,0")
    assert recognize_spider(t).lengths == (3, 2, 1, 1, 1)


@pytest.mark.parametrize("bad", ["", "tri:3", "spider:", "path:x", "ds:2,1", "as:2,3,1"])
def test_parse_tree_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_tree(bad)


def test_tree_text_round_trip():
    for shorthand in ["path:4", "spider:3,2,1", "ds:3,1/3,1", "as:4,2,2,1"]:
        t = parse_tree(shorthand)
        again = parse_tree_text(format_tree_text(t))
        assert canonical_code(again) == canonical_code(t)
    with pytest.raises(ValueError):
        parse_tree_text("")
    with pytest.raises(ValueError):
        parse_tree_text("3\n0 1\n1 two\n")


def test_render_shorthand_names_shapes():
    assert render_shorthand(make_path(5)) == "path:5"
    assert render_shorthand(parse_tree("spider:3,2,1")) == "spider:3,2,1"
    assert render_shorthand(parse_tree("ds:2,1/2,1")) == "ds:2,1/2,1"
    t = Tree(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
    assert render_shorthand(t) is None


def test_render_parse_round_trip_over_catalog():
    for t in itertools.chain.from_iterable(enumerate_trees(7, d) for d in range(1, 7)):
        name = render_shorthand(t)
        if name is not None:
            assert canonical_code(parse_tree(name)) == canonical_code(t)
