"""Laplacian, DtN matrix, leaf distances, the oracles of each, Steklov spectra and lambda_2."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    diameter,
    dtn_matrix,
    greedy_ascent_trace,
    lambda2_numeric,
    laplacian_matrix,
    leaf_distance_matrix,
    leaf_set,
    make_double_spider,
    make_path,
    make_spider,
    steklov_spectrum,
)

import steklov_trees.spectral as spectral
from steklov_trees.spectral import _code_depths, _leaf_distances
from steklov_trees.trees import _center_codes

from oracles import (
    BoundaryValues,
    _code_tree,
    enumerate_trees,
    harmonic_extension,
    jacobi_eigenvalues,
    leaf_distances_by_bfs,
    prufer_to_edges,
    spider_lambda2_exact,
)

RTOL = 1e-10


def _random_tree(seq, n):
    if n == 2:
        return Tree(2, ((0, 1),))
    return Tree(n, tuple(prufer_to_edges(seq[: n - 2], n)))


trees_st = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0))
    )
)


# ------------------------------- Laplacian -------------------------------


def test_laplacian_matrix_shape():
    t = make_spider(SpiderProfile((2, 1, 1)))
    lap = laplacian_matrix(t)
    assert lap.shape == (t.n, t.n)
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(np.diag(lap), t.degrees)
    assert lap[0, 1] == -1.0 and lap[0, 2] == 0.0


# ----------------------------- DtN examples ------------------------------


def test_dtn_matrix_path4():
    got = dtn_matrix(make_path(3))
    assert np.allclose(got, np.array([[1, -1], [-1, 1]]) / 3.0, atol=1e-14)


def test_dtn_matrix_single_edge():
    got = dtn_matrix(Tree(2, ((0, 1),)))
    assert np.allclose(got, np.array([[1, -1], [-1, 1]]), atol=1e-15)


def test_dtn_matrix_star():
    got = dtn_matrix(make_spider(SpiderProfile((1, 1, 1))))
    want = (3 * np.eye(3) - np.ones((3, 3))) / 3.0
    assert np.allclose(got, want, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(data=trees_st)
def test_dtn_matrix_invariants(data):
    n, seq = data
    t = _random_tree(seq, n)
    lam = dtn_matrix(t)
    m = len(leaf_set(t))
    assert lam.shape == (m, m)
    assert np.allclose(lam, lam.T, atol=1e-13)
    assert np.max(np.abs(lam.sum(axis=1))) <= 1e-12
    assert np.linalg.eigvalsh(lam).min() >= -1e-10


# --------------------------- harmonic extension --------------------------


def test_harmonic_extension_path():
    t = make_path(3)
    f = harmonic_extension(t, BoundaryValues((1.0, -1.0)))
    assert np.allclose(f, [1.0, 1 / 3, -1 / 3, -1.0], atol=1e-14)


def test_harmonic_extension_star_center_is_mean():
    t = make_spider(SpiderProfile((1, 1, 1)))
    f = harmonic_extension(t, BoundaryValues((1.0, 0.0, -1.0)))
    assert abs(f[0]) <= 1e-14


def test_harmonic_extension_rejects_bad_length():
    with pytest.raises(ValueError):
        harmonic_extension(make_path(3), BoundaryValues((1.0, 0.0, -1.0)))


@settings(max_examples=80, deadline=None)
@given(
    data=trees_st,
    raw=st.lists(st.integers(-5, 5), min_size=10, max_size=10),
)
def test_harmonic_extension_is_interior_harmonic(data, raw):
    n, seq = data
    t = _random_tree(seq, n)
    leaves = leaf_set(t)
    g = np.array(raw[: len(leaves)], dtype=float)
    f = harmonic_extension(t, g)
    assert np.allclose(f[list(leaves)], g, atol=1e-12)
    scale = max(1.0, np.max(np.abs(g)))
    for v in range(t.n):
        if t.degrees[v] > 1:
            resid = t.degrees[v] * f[v] - sum(f[w] for w in t.adjacency[v])
            assert abs(resid) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    data=trees_st,
    raw=st.lists(st.integers(-5, 5), min_size=10, max_size=10),
)
def test_green_identity(data, raw):
    """Dirichlet energy of the extension equals the DtN quadratic form."""
    n, seq = data
    t = _random_tree(seq, n)
    leaves = leaf_set(t)
    g = np.array(raw[: len(leaves)], dtype=float)
    f = harmonic_extension(t, g)
    energy = sum((f[u] - f[v]) ** 2 for u, v in t.edges)
    quad = g @ dtn_matrix(t) @ g
    assert abs(energy - quad) <= RTOL * max(1.0, abs(quad))


# ----------------------------- Jacobi solver -----------------------------


def test_jacobi_rejects_nonsquare():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.ones((2, 3)))


def test_jacobi_trivial_sizes():
    assert np.allclose(jacobi_eigenvalues(np.array([[4.0]])), [4.0])
    got = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(got, [1.0, 3.0], atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=7),
    raw=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=49, max_size=49
    ),
)
def test_jacobi_matches_lapack(m, raw):
    a = np.array(raw[: m * m], dtype=float).reshape(m, m)
    a = (a + a.T) / 2.0
    got = jacobi_eigenvalues(a)
    want = np.linalg.eigvalsh(a)
    assert np.allclose(np.sort(got), want, atol=1e-9 * max(1.0, np.max(np.abs(a))))


def test_jacobi_handles_near_diagonal():
    # Tiny off-diagonal entries must neither stall the sweep nor overflow.
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 1] = a[1, 0] = 1e-200
    got = jacobi_eigenvalues(a)
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)


# ---------------------------- leaf distances -----------------------------


def _relabeled(t, perm):
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def test_leaf_distances_match_bfs_oracle_on_catalog():
    # Every tree of order 2..12, as generated (vertex 0 a center) and with
    # its labels reversed (vertex 0, the traversal root, then a leaf).
    for n in range(2, 13):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                for u in (t, _relabeled(t, range(n - 1, -1, -1))):
                    got = leaf_distance_matrix(u)
                    assert got.dtype == int
                    assert np.array_equal(got, leaf_distances_by_bfs(u)), (n, d, u.edges)


def test_batched_leaf_distances_match_bfs_oracle_on_catalog():
    # Every tree of order 2..12 from its code, stacked per leaf count as _lambda2_batch
    # stacks them: rows of every diameter, so a row whose first leaf is deep follows one
    # that ends on a leaf.
    for n in range(2, 13):
        codes = [code for d in range(1, n) for code in _center_codes(n, d)]
        depth, leaf = _code_depths(codes)
        sizes = leaf.sum(axis=1)
        for m in np.unique(sizes):
            group = np.flatnonzero(sizes == m)
            for i, got in zip(group, _leaf_distances(depth[group], leaf[group])):
                assert np.array_equal(got, leaf_distances_by_bfs(_code_tree(n, codes[i]))), (n, codes[i])


@pytest.mark.parametrize("length", [1, 2, 3, 10, 1000, 3003, 3019])
def test_leaf_distances_on_paths(length):
    t = make_path(length)
    assert leaf_distance_matrix(t).tolist() == leaf_distances_by_bfs(t).tolist() == [[0, length], [length, 0]]


@pytest.mark.parametrize("arms", [2, 3, 50])
def test_leaf_distances_on_stars(arms):
    star = make_spider(SpiderProfile((1,) * arms))
    want = 2 * (np.ones((arms, arms), dtype=int) - np.eye(arms, dtype=int))
    assert np.array_equal(leaf_distance_matrix(star), want)
    leaf_root = _relabeled(star, [arms] + list(range(arms)))  # the center becomes vertex arms
    assert np.array_equal(leaf_distance_matrix(leaf_root), want)


@settings(max_examples=100, deadline=None)
@given(data=trees_st)
def test_leaf_distances_match_bfs_oracle_random(data):
    n, seq = data
    t = _random_tree(seq, n)
    assert np.array_equal(leaf_distance_matrix(t), leaf_distances_by_bfs(t))


def _transient_mb(fn):
    """Peak traced allocation of fn() beyond what its result keeps alive, in MB."""
    tracemalloc.start()
    try:
        kept = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return (peak - current) / 2**20


def test_lambda2_and_reduce_allocate_no_n_by_n_array():
    # The traced peak sees numpy buffers: the Laplacian of a 1001-vertex path is 8 MB.
    assert _transient_mb(lambda: laplacian_matrix(make_path(1000)).sum()) >= 7.6
    # The Schur complement needs a 3001 x 3001 Laplacian (72 MB) here.
    assert _transient_mb(lambda: lambda2_numeric(make_path(3000))) < 2.0
    assert _transient_mb(lambda: steklov_spectrum(make_path(3000))) < 2.0
    # Order 400 with 40 leaves: the Schur route allocates about 2.5 MB a step.
    rng = random.Random(400)
    while True:
        internal = rng.sample(range(400), 360)
        seq = internal + [rng.choice(internal) for _ in range(38)]
        rng.shuffle(seq)
        t = Tree(400, tuple(prufer_to_edges(seq, 400)))
        if diameter(t) % 2 == 1:
            break
    assert _transient_mb(lambda: greedy_ascent_trace(t)) < 1.0


# ------------------------------- spectra ---------------------------------


@pytest.mark.parametrize("d", range(2, 10))
def test_path_spectrum(d):
    spec = steklov_spectrum(make_path(d)).eigenvalues
    assert spec[0] == 0.0
    assert abs(spec[1] - 2.0 / d) <= 1e-12


def test_star_spectrum():
    spec = steklov_spectrum(make_spider(SpiderProfile((1, 1, 1)))).eigenvalues
    assert np.allclose(spec, [0.0, 1.0, 1.0], atol=1e-12)


def test_spectrum_second_value_is_lambda2_bit_for_bit():
    for n in range(2, 13):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                assert steklov_spectrum(t).eigenvalues[1] == lambda2_numeric(t), (n, d, t.edges)


def test_spectrum_rejects_a_second_gram_eigenvalue_that_is_not_positive(monkeypatch):
    monkeypatch.setattr(spectral, "_gram_eigenvalues", lambda dmat: np.array([-1e-16, 0.0, 0.5]))
    with pytest.raises(RuntimeError, match="not positive"):
        steklov_spectrum(make_spider(SpiderProfile((1, 1, 1))))


def test_spectrum_type_validates():
    from steklov_trees import Spectrum

    with pytest.raises(ValueError):
        Spectrum((0.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        Spectrum((-1.0, 2.0))


def test_lambda2_closed_forms():
    assert abs(lambda2_numeric(make_path(5)) - 0.4) <= 1e-12
    assert abs(lambda2_numeric(make_spider(SpiderProfile((2, 1, 1)))) - 0.6) <= 1e-11
    ds = make_double_spider(DoubleSpiderProfile((3, 1), (3, 1)))
    assert abs(lambda2_numeric(ds) - 2.0 / (5.0 + math.sqrt(5.0))) <= 1e-11


def test_lambda2_matches_exact_root_oracle():
    for profile in [(3, 2, 1), (4, 3, 3), (5, 2, 2, 1), (4, 1, 1, 1, 1)]:
        lo, hi = spider_lambda2_exact(profile)
        got = lambda2_numeric(make_spider(SpiderProfile(profile)))
        assert float(lo) - 1e-11 <= got <= float(hi) + 1e-11


@settings(max_examples=80, deadline=None)
@given(data=trees_st)
def test_spectrum_invariants_random(data):
    n, seq = data
    t = _random_tree(seq, n)
    spec = steklov_spectrum(t).eigenvalues
    assert len(spec) == len(leaf_set(t))
    assert spec[0] == 0.0
    assert all(a <= b for a, b in zip(spec, spec[1:]))
    if len(spec) > 1:
        assert spec[1] <= 2.0 / diameter(t) + 1e-9
