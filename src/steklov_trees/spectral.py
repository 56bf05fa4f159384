"""Steklov spectrum of a tree with leaf boundary, and its first nonzero eigenvalue.

The boundary is the leaf set.  The Dirichlet-to-Neumann matrix is the
Schur complement of the graph Laplacian onto the leaf block; its
eigenvalues, sorted ascending, form the Steklov spectrum
0 = lambda_1 <= lambda_2 <= ... <= lambda_m with m the number of leaves.
steklov_spectrum solves that matrix with LAPACK (numpy.linalg.eigvalsh).

lambda2_numeric, the production lambda_2, never builds the n x n
Laplacian: the nonzero Steklov eigenvalues are the reciprocals of the
nonzero eigenvalues of P(-D/2)P, with D the leaf distance matrix (built
in one traversal) and P the centering projection, so it needs O(n + m^2)
memory.  The test suite keeps an independent cyclic Jacobi solver and an
explicit harmonic extension as oracles for the Schur route
(tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import Tree, leaf_set

# |lambda_1| below this is snapped to exactly 0 (it vanishes in theory).
_ZERO_SNAP = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing Steklov eigenvalues, one per boundary leaf."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        lams = self.eigenvalues
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("eigenvalues must be nondecreasing")
        if lams and lams[0] < -_ZERO_SNAP:
            raise ValueError(f"negative bottom eigenvalue {lams[0]}")


def laplacian_matrix(t: Tree) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - A."""
    lap = np.zeros((t.n, t.n))
    for u, v in t.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def dtn_matrix(t: Tree) -> np.ndarray:
    """Dirichlet-to-Neumann matrix on the leaves.

    Schur complement L_BB - L_BI L_II^{-1} L_IB of the Laplacian;
    symmetric, positive semidefinite, row sums zero.  Output is
    symmetrized to kill the last-bit asymmetry of the solve.
    """
    boundary = leaf_set(t)
    interior = [v for v in range(t.n) if t.degrees[v] > 1]
    lap = laplacian_matrix(t)
    l_bb = lap[np.ix_(boundary, boundary)]
    if not interior:
        return l_bb
    l_bi = lap[np.ix_(boundary, interior)]
    l_ib = lap[np.ix_(interior, boundary)]
    l_ii = lap[np.ix_(interior, interior)]
    schur = l_bb - l_bi @ np.linalg.solve(l_ii, l_ib)
    return (schur + schur.T) / 2.0


def steklov_spectrum(t: Tree) -> Spectrum:
    """All Steklov eigenvalues of t, ascending, bottom snapped to 0."""
    out = np.linalg.eigvalsh(dtn_matrix(t)).tolist()
    if abs(out[0]) <= _ZERO_SNAP:
        out[0] = 0.0
    return Spectrum(tuple(out))


def leaf_distance_matrix(t: Tree) -> np.ndarray:
    """Pairwise graph distances between leaves, in leaf_set order.

    One depth-first pass from vertex 0 gives the preorder and the depths.
    The shallowest vertex after a leaf, up to and including the next leaf
    in preorder, is a child of their lowest common ancestor; the ancestor
    of leaves i < j is the shallowest over the consecutive pairs between.
    """
    order, _, depth = t._preorder(0)
    pre = np.array(order)
    pre_depth = np.array(depth)[pre]
    at = np.flatnonzero(np.array(t.degrees)[pre] == 1)  # the last vertex in preorder is a leaf
    gap = np.minimum.reduceat(pre_depth, at[:-1] + 1) - 1  # LCA depth of consecutive leaves
    k = np.arange(len(gap))
    lca = np.minimum.accumulate(np.where(k[:, None] <= k, gap, t.n), axis=1)  # [i, j]: leaves i, j + 1
    dep = pre_depth[at]
    dmat = np.zeros((len(at), len(at)), dtype=int)
    dmat[:-1, 1:] = np.triu(dep[:-1, None] + dep[1:] - 2 * lca)
    dmat += dmat.T
    rank = np.argsort(pre[at])
    return dmat[np.ix_(rank, rank)]


def _distance_lambda2(dmat: np.ndarray) -> np.ndarray:
    """lambda_2 = 1 / top eigenvalue of P(-D/2)P for each stacked m x m distance matrix."""
    m = dmat.shape[-1]
    pmat = np.eye(m) - np.full((m, m), 1.0 / m)
    gram = -0.5 * (pmat @ dmat @ pmat)
    gram = (gram + np.swapaxes(gram, -1, -2)) / 2.0
    top = np.linalg.eigvalsh(gram)[..., -1]
    if np.any(top <= 0.0):
        raise RuntimeError(f"centered distance form has no positive eigenvalue (top={np.min(top)})")
    return 1.0 / top


def lambda2_numeric(t: Tree) -> float:
    """First nonzero Steklov eigenvalue, from the leaf distance form."""
    return float(_distance_lambda2(leaf_distance_matrix(t).astype(float)))
