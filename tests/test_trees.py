"""Tree construction, profiles, recognizers, canonical codes, enumeration."""

import hashlib
import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    diameter,
    format_tree_text,
    leaf_set,
    make_double_spider,
    make_path,
    make_spider,
    parse_tree,
    parse_tree_text,
    q_range_integer,
    recognize_double_spider,
    recognize_spider,
    render_shorthand,
)

from oracles import (
    FREE_TREE_COUNTS,
    ASParams,
    all_labeled_trees,
    count_trees,
    double_spider_split,
    enumerate_trees,
    double_spider_shorthand_per_branch,
    nonisomorphic_trees_by_diameter,
    prufer_to_edges,
    side_arm_lengths_reference,
    spider_shorthand_per_branch,
    spider_terms_by_counter,
    tree_count_by_diameter,
    tree_centers,
)
from steklov_trees.cli import _tree_name
from steklov_trees.reduce import greedy_ascent_trace
from steklov_trees.roots import _spider_terms
from steklov_trees.spectral import lambda2_numeric
from steklov_trees.trees import (
    _as_profile,
    _center_codes,
    _double_spider_shorthand,
    _lone_side_spider,
    _side_arm_lengths,
    _spider_shorthand,
)


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
    t = Tree(3, [(2, 1), (1, 0)])  # edges normalized and sorted; compared, hashed and printed as (n, edges)
    assert t == Tree(edges=((0, 1), (1, 2)), n=3) == (3, ((0, 1), (1, 2))) and hash(t) == hash((3, ((0, 1), (1, 2))))
    assert repr(t) == "Tree(n=3, edges=((0, 1), (1, 2)))"
    for name in ("n", "edges", "adjacency", "color"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)


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


def test_tree_centers_returns_a_new_list():
    t = make_path(5)
    centers = tree_centers(t)
    centers.append(9)
    centers[0] = 7
    assert tree_centers(t) == [2, 3]
    assert tree_centers(t) is not tree_centers(t)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    data=st.data(),
    salt=st.randoms(use_true_random=False),
)
def test_sweep_and_adjacency_match_networkx_on_shuffled_edges(n, data, salt):
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    edges = [(v, u) if salt.random() < 0.5 else (u, v) for u, v in prufer_to_edges(seq, n)]
    salt.shuffle(edges)
    t = Tree(n, tuple(edges))
    g = nx.Graph(edges)
    for v in range(n):
        assert list(t.adjacency[v]) == sorted(set(g[v])), (edges, v)  # so strictly ascending
    assert diameter(t) == nx.diameter(g)
    assert tree_centers(t) == sorted(nx.center(g))


def test_kept_walks_are_not_part_of_a_trees_identity():
    edges = tuple(prufer_to_edges([3, 3, 7, 1, 7, 0, 2], 9))
    walked, fresh = Tree(9, edges), Tree(9, edges)
    for read in (diameter, canonical_code, lambda2_numeric):
        read(walked)
    assert len(walked._walks) > len(fresh._walks) and "_sweep" not in vars(fresh)
    assert walked == fresh and hash(walked) == hash(fresh) and repr(walked) == repr(fresh)
    again = pickle.loads(pickle.dumps(walked))
    assert again == fresh and hash(again) == hash(fresh) and repr(again) == repr(fresh)
    assert canonical_code(again) == canonical_code(fresh)


def _odd_diameter_prufer_tree(n: int) -> Tree:
    rng = random.Random(n)
    while True:
        edges = tuple(prufer_to_edges([rng.randrange(n) for _ in range(n - 2)], n))
        if nx.diameter(nx.Graph(edges)) % 2:
            return Tree(n, edges)


def test_reduce_and_naming_walk_the_input_four_times():
    # From 0 (the connectivity check, the sweep's first leg and the distance form), from the far end,
    # and from each center with the other banned (the arms of the domination and the canonical code).
    t = _odd_diameter_prufer_tree(100)
    greedy_ascent_trace(t)
    assert render_shorthand(t) is None
    _tree_name(t)
    depth0 = t._walks[0, -1][2]
    u, v = tree_centers(t)
    assert len(t._walks) == 4
    assert set(t._walks) == {(0, -1), (depth0.index(max(depth0)), -1), (u, v), (v, u)}


def test_distance_form_of_a_path_walks_it_once():
    t = make_path(3000)
    lambda2_numeric(t)
    assert list(t._walks) == [(0, -1)]


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
    assert p == SpiderProfile(lengths=(2, 1, 3)) and hash(p) == hash(((3, 2, 1),))
    assert repr(p) == "SpiderProfile(lengths=(3, 2, 1))"
    for name in ("lengths", "color"):
        with pytest.raises(AttributeError):
            setattr(p, name, (4, 4))


def test_as_params_shape():
    t = parse_tree("as:2,3,1,0")
    assert recognize_spider(t).lengths == (3, 2, 1, 1, 1)
    assert t.n - diameter(t) - 1 == 3  # the lateral mass
    assert t.n == 9
    assert diameter(t) == 5
    t = parse_tree("as:4,2,2,1")
    assert recognize_spider(t).lengths == (5, 4, 3, 2)
    with pytest.raises(ValueError):
        parse_tree("as:2,3,1,3")  # t must stay below q
    with pytest.raises(ValueError):
        parse_tree("as:2,1,3,0")  # lateral branch longer than r
    with pytest.raises(ValueError):
        parse_tree("as:2,2,2,1")  # c+1 branch ties the principal r+1


def test_double_spider_profile_canonical_order():
    p = DoubleSpiderProfile((1, 2), (3,))
    assert p.a_lengths == (3,)
    assert p.b_lengths == (2, 1)
    assert p.order == 8
    assert p.diameter == 6
    assert p == DoubleSpiderProfile((3,), (2, 1)) and hash(p) == hash(((3,), (2, 1)))
    assert repr(p) == "DoubleSpiderProfile(a_lengths=(3,), b_lengths=(2, 1))"
    for a, b in [((), (1,)), ((2,), ()), ((2, 0), (1,))]:
        with pytest.raises(ValueError):
            DoubleSpiderProfile(a, b)
    for name in ("a_lengths", "b_lengths", "color"):
        with pytest.raises(AttributeError):
            setattr(p, name, (4,))


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
    t = parse_tree("as:4,3,1,2")
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
    for a, b in [((3, 1), (3, 1)), ((4, 2), (4, 1, 1))]:
        p = DoubleSpiderProfile(a, b)
        got = recognize_double_spider(make_double_spider(p))
        assert got is not None
        assert (got.a_lengths, got.b_lengths) == (p.a_lengths, p.b_lengths)
    # A side of one branch lays out a spider: only the split reads the profile back.
    p = DoubleSpiderProfile((2, 1), (2,))
    assert recognize_double_spider(make_double_spider(p)) is None
    assert double_spider_split(make_double_spider(p)) == p


def test_recognize_double_spider_special_shapes():
    star = make_spider(SpiderProfile((1, 1, 1)))
    assert recognize_double_spider(star) is None
    assert double_spider_split(star) is None
    for length, split in ((7, ((3,), (3,))), (6, ((3,), (2,)))):
        assert recognize_double_spider(make_path(length)) is None
        got = double_spider_split(make_path(length))
        assert (got.a_lengths, got.b_lengths) == split
    # two branch vertices at distance two: neither spider nor double spider
    t = Tree(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
    assert recognize_spider(t) is None
    assert recognize_double_spider(t) is None
    assert double_spider_split(t) is None


def test_double_spider_split_of_a_spider_inverts_its_lone_side():
    # A tree with at most one branch vertex is no double spider to the package, but splits into a
    # double spider of the same tree, whose lone side gives back its spider; stars and paths of
    # fewer than 3 edges have no split.
    for n in range(2, 13):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                if sum(deg >= 3 for deg in t.degrees) > 1:
                    continue
                assert recognize_double_spider(t) is None
                profile = double_spider_split(t)
                assert (profile is None) == (d <= 2)  # diameter <= 2: a star or a path of 1 or 2 edges
                if profile is not None:
                    assert canonical_code(make_double_spider(profile)) == canonical_code(t)
                    assert _lone_side_spider(profile) == recognize_spider(t)


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


def _shuffled_labeled_trees(rng: random.Random):
    """Seeded Pruefer trees of orders 2-150, one per center count that the order has, labels and edges shuffled."""
    for n in range(2, 151):
        kinds = set()
        while len(kinds) < 1 + (n > 3):  # n = 2 has only two-center trees, n = 3 only one-center
            edges = prufer_to_edges([rng.randrange(n) for _ in range(n - 2)], n)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in edges]
            rng.shuffle(edges)
            t = Tree(n, tuple(edges))
            if diameter(t) % 2 not in kinds:
                kinds.add(diameter(t) % 2)
                yield t


def test_canonical_codes_are_frozen():
    codes = [canonical_code(t) for t in _shuffled_labeled_trees(random.Random(2150))]
    assert len(codes) == 296 and {code[:1] for code in codes} == {b"1", b"2"}
    assert hashlib.sha256(b"\n".join(codes)).hexdigest() == "be46e0bca2211c78b576895d737fbcd71ff6c487bbe8a6667c96dd9a9b09895f"


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


@pytest.mark.parametrize(
    "n, d, digest",
    [
        (18, 7, "b281f37f5ed722c4113c89c8512bbb2f76f7160e118235652b0f9ca6604a1d39"),
        (19, 8, "5336603f2344dc7ad88505cf589310998bbe51c331b3a3b5a4d94867fb04b4d4"),
    ],
)
def test_generator_codes_are_frozen(n, d, digest):
    # The codes of one order and diameter have one length, so this pins their bytes and their order.
    assert hashlib.sha256(b"".join(_center_codes(n, d))).hexdigest() == digest


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


# ------------------------- runs of equal lengths --------------------------

# Distinct lengths, each repeated: sorted, a profile is a sequence of such runs.
_RUNS = st.lists(st.tuples(st.integers(1, 40), st.integers(1, 5)), min_size=1, max_size=6, unique_by=lambda run: run[0])


def _lengths_of(runs):
    return tuple(l for l, k in runs for _ in range(k))


@st.composite
def _laterals_at_l2(draw):
    """A strict longest branch, then laterals as long as the second branch and shorter ones."""
    l2 = draw(st.integers(1, 30))
    below = draw(st.lists(st.tuples(st.integers(1, l2), st.integers(1, 5)), max_size=4, unique_by=lambda run: run[0]))
    return SpiderProfile((draw(st.integers(l2 + 1, l2 + 5)), l2) + (l2,) * draw(st.integers(1, 6)) + _lengths_of(below))


def test_as_profile_equals_the_profile_of_its_lengths():
    # _as_profile hands its longest-first layout to the profile without a sort.
    # Each mass's candidate counts (s = ceil(r/2)) and the ends of its range.
    for r in range(1, 21):  # every odd D = 2r + 1 <= 41
        for m in range(1, 201):
            lo, hi = q_range_integer(r, m)
            s = (r + 1) // 2
            for q in {lo, max(lo, m // s), min(hi, -(-m // s)), hi}:
                c, t = divmod(m, q)
                want = SpiderProfile((c,) * (q - t) + (c + 1,) * t + (r, r + 1))
                got = _as_profile(r, q, m)
                assert (got, hash(got), got.lengths) == (want, hash(want), want.lengths), (r, q, m)


@st.composite
def _as_profiles(draw):
    r = draw(st.integers(1, 12))
    q, c = draw(st.integers(1, 30)), draw(st.integers(1, r))
    return ASParams(r, q, c, draw(st.integers(0, q - 1 if c < r else 0))).spider_profile()


_SPIDERS = st.one_of(_RUNS.map(_lengths_of).filter(lambda ls: len(ls) >= 2).map(SpiderProfile), _laterals_at_l2(), _as_profiles())


@settings(max_examples=400, deadline=None)
@given(_SPIDERS)
def test_spider_runs_match_the_per_length_grouping(p):
    assert _spider_terms(p.lengths) == spider_terms_by_counter(p.lengths)
    assert _spider_shorthand(p) == spider_shorthand_per_branch(p)


@settings(max_examples=300, deadline=None)
@given(_RUNS, _RUNS)
def test_double_spider_shorthand_matches_the_per_branch_join(a, b):
    p = DoubleSpiderProfile(_lengths_of(a), _lengths_of(b))
    assert _double_spider_shorthand(p) == double_spider_shorthand_per_branch(p)
