"""Boundary fluxes: potentials, cut sums, distance form, inverse spectrum."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklov_trees import (
    BoundaryFlux,
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    cut_sums,
    dtn_matrix,
    flux_potential,
    lambda2_numeric,
    leaf_distance_matrix,
    leaf_set,
    make_double_spider,
    make_path,
    make_spider,
    q_form,
)

from steklov_trees.spectral import _lambda2_batch
from steklov_trees.trees import _center_codes
import steklov_trees.verify as verify_module

from oracles import _code_tree, prufer_to_edges, spider_lambda2_exact

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


def _mean_zero(raw, m):
    """Integer flux vector of length m summing to zero."""
    z = list(raw[: m - 1])
    z.append(-sum(z))
    return tuple(float(x) for x in z)


# ----------------------------- BoundaryFlux ------------------------------


def test_boundary_flux_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        BoundaryFlux((1.0, 1.0))
    BoundaryFlux((1.0, -1.0))  # fine
    BoundaryFlux((0.0, 0.0))  # fine


# ---------------------------- flux potential -----------------------------


def test_flux_potential_path():
    u = flux_potential(make_path(3), BoundaryFlux((1.0, -1.0)))
    assert np.allclose(u, [1.5, 0.5, -0.5, -1.5], atol=1e-12)


def test_flux_potential_star():
    u = flux_potential(make_spider(SpiderProfile((1, 1, 1))), BoundaryFlux((1.0, -1.0, 0.0)))
    assert np.allclose(u, [0.0, 1.0, -1.0, 0.0], atol=1e-12)


def test_flux_potential_zero():
    t = make_spider(SpiderProfile((2, 2, 1)))
    u = flux_potential(t, BoundaryFlux((0.0, 0.0, 0.0)))
    assert np.allclose(u, 0.0, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(data=trees_st, raw=st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_flux_potential_solves_neumann_problem(data, raw):
    n, seq = data
    t = _random_tree(seq, n)
    leaves = leaf_set(t)
    z = _mean_zero(raw, len(leaves))
    u = flux_potential(t, BoundaryFlux(z))
    assert abs(u.sum()) <= 1e-10
    scale = max(1.0, max(abs(x) for x in z))
    for pos, leaf in enumerate(leaves):
        (neighbor,) = t.adjacency[leaf]
        assert abs((u[leaf] - u[neighbor]) - z[pos]) <= 1e-11 * scale
    for v in range(t.n):
        if t.degrees[v] > 1:
            resid = t.degrees[v] * u[v] - sum(u[w] for w in t.adjacency[v])
            assert abs(resid) <= 1e-11 * scale


# ------------------------------- cut sums --------------------------------


def test_cut_sums_star():
    t = make_spider(SpiderProfile((1, 1, 1)))
    dec = cut_sums(t, BoundaryFlux((1.0, -1.0, 0.0)), root=0)
    assert dec.per_edge[(0, 1)] == 1.0
    assert dec.per_edge[(0, 2)] == -1.0
    assert dec.per_edge[(0, 3)] == 0.0
    assert dec.total == 2.0


def test_cut_sums_path():
    dec = cut_sums(make_path(3), BoundaryFlux((1.0, -1.0)))
    assert sorted(abs(s) for s in dec.per_edge.values()) == [1.0, 1.0, 1.0]
    assert dec.total == 3.0


def test_cut_sums_two_center_form():
    # Branch cuts carry each flux once per edge, the bridge carries the
    # side sum: total = s^2 + 2 x1^2 + x2^2 + 2 y1^2 with s = x1 + x2.
    t = make_double_spider(DoubleSpiderProfile((2, 1), (2,)))
    x1, x2, y1 = 1.0, 2.0, -3.0
    dec = cut_sums(t, BoundaryFlux((x1, x2, y1)))
    want = (x1 + x2) ** 2 + 2 * x1**2 + x2**2 + 2 * y1**2
    assert dec.total == want


def test_cut_sums_root_independent():
    t = make_spider(SpiderProfile((3, 2, 1)))
    z = BoundaryFlux((2.0, -1.0, -1.0))
    totals = {cut_sums(t, z, root=v).total for v in range(t.n)}
    assert totals == {15.0}


# -------------------------------- q_form ---------------------------------


def test_q_form_examples():
    assert q_form(make_path(3), BoundaryFlux((1.0, -1.0))) == pytest.approx(3.0, abs=1e-11)
    star = make_spider(SpiderProfile((1, 1, 1)))
    assert q_form(star, BoundaryFlux((1.0, -1.0, 0.0))) == pytest.approx(2.0, abs=1e-11)


def test_q_form_three_routes_spider():
    t = make_spider(SpiderProfile((3, 2, 1)))
    z = (2.0, -1.0, -1.0)
    via_energy = q_form(t, BoundaryFlux(z))
    via_cuts = cut_sums(t, BoundaryFlux(z)).total
    d = leaf_distance_matrix(t)
    via_distance = -0.5 * np.array(z) @ d @ np.array(z)
    assert via_cuts == 15.0
    assert abs(via_energy - 15.0) <= 1e-10
    assert abs(via_distance - 15.0) <= 1e-12


# --------------------------- distance matrices ----------------------------


def test_leaf_distance_matrix_examples():
    assert leaf_distance_matrix(make_path(3)).tolist() == [[0, 3], [3, 0]]
    star = make_spider(SpiderProfile((1, 1, 1)))
    assert leaf_distance_matrix(star).tolist() == [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
    spider = make_spider(SpiderProfile((3, 2, 1)))
    assert leaf_distance_matrix(spider).tolist() == [[0, 5, 4], [5, 0, 3], [4, 3, 0]]


# --------------------------- the key identities ---------------------------


@settings(max_examples=100, deadline=None)
@given(data=trees_st, raw=st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_three_way_identity(data, raw):
    n, seq = data
    t = _random_tree(seq, n)
    z = _mean_zero(raw, len(leaf_set(t)))
    flux = BoundaryFlux(z)
    via_energy = q_form(t, flux)
    via_cuts = cut_sums(t, flux).total
    arr = np.array(z)
    via_distance = -0.5 * arr @ leaf_distance_matrix(t) @ arr
    scale = max(1.0, via_cuts)
    assert abs(via_energy - via_cuts) <= RTOL * scale
    assert abs(via_energy - via_distance) <= RTOL * scale


@settings(max_examples=80, deadline=None)
@given(data=trees_st, raw=st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_inverse_pair_identity(data, raw):
    """q_form evaluated on the DtN image recovers the DtN quadratic form."""
    n, seq = data
    t = _random_tree(seq, n)
    g = np.array(raw[: len(leaf_set(t))], dtype=float)
    z = dtn_matrix(t) @ g
    assume(np.max(np.abs(z)) > 1e-8)
    quad = g @ dtn_matrix(t) @ g
    assert abs(q_form(t, BoundaryFlux(tuple(z))) - quad) <= RTOL * max(1.0, abs(quad))


# ---------------------------- inverse spectrum ----------------------------


def test_lambda2_via_distance_examples():
    assert abs(lambda2_numeric(make_path(3)) - 2.0 / 3.0) <= 1e-12
    assert abs(lambda2_numeric(make_spider(SpiderProfile((2, 1, 1)))) - 0.6) <= 1e-11
    lo, hi = spider_lambda2_exact((3, 2, 1))
    got = lambda2_numeric(make_spider(SpiderProfile((3, 2, 1))))
    assert float(lo) - 1e-11 <= got <= float(hi) + 1e-11


@settings(max_examples=100, deadline=None)
@given(data=trees_st)
def test_lambda2_routes_agree(data):
    # The Schur complement of the Laplacian against the leaf distance form.
    n, seq = data
    t = _random_tree(seq, n)
    a = np.linalg.eigvalsh(dtn_matrix(t))[1]
    b = lambda2_numeric(t)
    assert abs(a - b) <= RTOL * max(1.0, abs(a))


# ----------------------------- batched kernel -----------------------------


def test_batched_kernel_matches_dtn_oracle_and_single_tree():
    # Every tree of order 2..12: paths (two leaves), stars (n-1 leaves), d = 1 and 2.
    for n in range(2, 13):
        for d in range(1, n):
            codes = _center_codes(n, d)
            for code, lam in zip(codes, _lambda2_batch(codes).tolist()):
                t = _code_tree(n, code)
                ref = np.linalg.eigvalsh(dtn_matrix(t))[1]
                assert abs(lam - ref) <= 1e-12 * ref, (n, d, code)
                assert lam == lambda2_numeric(t) == _lambda2_batch([code])[0], (n, d, code)
                if d == n - 1:
                    assert abs(lam - 2.0 / d) <= 1e-12 * lam
                elif d == 2:
                    assert abs(lam - 1.0) <= 1e-12
    assert _lambda2_batch([]).shape == (0,)


@pytest.mark.parametrize("chunk", [1, 7, 551])
def test_batched_kernel_is_chunk_independent(monkeypatch, chunk):
    # All 551 trees of order 12, every diameter and leaf count, cut into chunks as certification cuts them.
    def values():
        return np.array([lam for d in range(1, 12) for _, lam in verify_module._evaluate_all(12, d, 1)])

    whole = values()
    monkeypatch.setattr(verify_module, "_CHUNK", chunk)
    assert values().tobytes() == whole.tobytes()


def test_batched_kernel_groups_interleaved_leaf_counts():
    # All 106 trees of order 10, every diameter shuffled together, so each leaf-count group
    # gathers rows from across the batch: a tree's bits are those of its one-code batch.
    codes = [code for d in range(1, 10) for code in _center_codes(10, d)]
    random.Random(10).shuffle(codes)
    sizes = [code.count(b"()") for code in codes]
    assert len(codes) == 106 and len(set(sizes)) == 8 and sizes != sorted(sizes)
    alone = np.concatenate([_lambda2_batch([code]) for code in codes])
    assert _lambda2_batch(codes).tobytes() == alone.tobytes()
    empty = _lambda2_batch([])
    assert empty.shape == (0,) and empty.dtype == np.float64
