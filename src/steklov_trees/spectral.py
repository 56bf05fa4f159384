"""Steklov spectrum of a tree with leaf boundary, and its first nonzero eigenvalue.

The boundary is the leaf set.  The Steklov eigenvalues, sorted ascending,
are 0 = lambda_1 <= lambda_2 <= ... <= lambda_m with m the number of
leaves.  The package computes them from one form, the inverse boundary
quadratic form on mean-zero leaf fluxes: the nonzero eigenvalues are the
reciprocals of the nonzero eigenvalues of the Gram matrix P(-D/2)P, with
D the leaf distance matrix and P the centering projection.  It needs
O(n + m^2) memory and no n x n Laplacian.  steklov_spectrum takes every
eigenvalue of the Gram matrix; lambda_2 takes its top, in
lambda2_numeric for one tree and _lambda2_batch for many canonical codes
of one order at once, as certification runs it.  All of them build D
with one stacked kernel, _leaf_distances, from preorder depths and leaf
masks.

The Dirichlet-to-Neumann matrix, the Schur complement of the graph
Laplacian onto the leaf block, is the independent route that
`lambda2 --method matrix` prints and the test oracles check against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import Tree, leaf_set


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing Steklov eigenvalues, one per boundary leaf."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        lams = self.eigenvalues
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("eigenvalues must be nondecreasing")
        if lams and lams[0] < 0.0:
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


def _leaf_distances(depth: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Leaf distances of k rooted trees, (k, m, m) in preorder leaf order.

    depth and leaf are (k, n): each row lists one tree's vertex depths and
    leaf mask in a depth-first preorder, has m leaves and ends on a leaf.
    The shallowest vertex after a leaf, up to and including the next leaf
    in preorder, is a child of their lowest common ancestor; the ancestor
    of leaves i < j is the shallowest over the consecutive pairs between.
    """
    k, n = depth.shape
    flat = depth.ravel()
    at = np.flatnonzero(leaf)  # row by row, each row's leaves in preorder
    m = len(at) // k
    # A row's last leaf + 1 is the next row's first vertex, so a segment also starts at
    # every row's first vertex: no gap runs into the next row.  Column 0 is that segment.
    gap = np.minimum.reduceat(flat, np.concatenate(([0], at[:-1] + 1))).reshape(k, m)[:, 1:] - 1
    i = np.arange(m - 1)  # lca[r, i, j]: leaves i and j + 1 of row r
    lca = np.minimum.accumulate(np.where(i[:, None] <= i, gap[:, None, :], n), axis=2)
    dep = flat[at].reshape(k, m)
    dist = np.zeros((k, m, m), dtype=depth.dtype)
    dist[:, :-1, 1:] = np.triu(dep[:, :-1, None] + dep[:, None, 1:] - 2 * lca)
    return dist + np.swapaxes(dist, 1, 2)


def leaf_distance_matrix(t: Tree) -> np.ndarray:
    """Pairwise graph distances between leaves, in leaf_set order.

    One depth-first pass from vertex 0 gives the preorder and the depths;
    its last vertex is a leaf.
    """
    order, _, depth = t._preorder(0)
    pre = np.array(order)
    leaf = np.array(t.degrees)[pre] == 1
    dmat = _leaf_distances(np.array(depth)[pre][None], leaf[None])[0]
    rank = np.argsort(pre[leaf])
    return dmat[np.ix_(rank, rank)]


def _gram_eigenvalues(dmat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of P(-D/2)P for each stacked m x m distance matrix."""
    m = dmat.shape[-1]
    pmat = np.eye(m) - np.full((m, m), 1.0 / m)
    gram = -0.5 * (pmat @ dmat @ pmat)
    gram = (gram + np.swapaxes(gram, -1, -2)) / 2.0
    return np.linalg.eigvalsh(gram)


def _distance_lambda2(dmat: np.ndarray) -> np.ndarray:
    """lambda_2 = 1 / top eigenvalue of P(-D/2)P for each stacked m x m distance matrix."""
    top = _gram_eigenvalues(dmat)[..., -1]
    if np.any(top <= 0.0):
        raise RuntimeError(f"centered distance form has no positive eigenvalue (top={np.min(top)})")
    return 1.0 / top


def lambda2_numeric(t: Tree) -> float:
    """First nonzero Steklov eigenvalue, from the leaf distance form."""
    return float(_distance_lambda2(leaf_distance_matrix(t).astype(float)))


def steklov_spectrum(t: Tree) -> Spectrum:
    """All Steklov eigenvalues of t, ascending, from the leaf distance form.

    The smallest Gram eigenvalue, of the constant flux, is zero up to
    rounding and gives lambda_1 = 0.  Every other one is at least 1 (1/2
    at n = 2): no two leaves are adjacent, so the DtN matrix lies below
    the identity.  Their reciprocals are the rest of the spectrum, the
    first of them lambda2_numeric's value bit for bit.
    """
    gram = _gram_eigenvalues(leaf_distance_matrix(t).astype(float))
    if gram[1] <= 0.0:
        raise RuntimeError(f"centered distance form has a second eigenvalue {gram[1]} that is not positive")
    return Spectrum((0.0, *(1.0 / gram[:0:-1]).tolist()))


# Trees per stacked batch; bounds the kernel's memory at O(_CHUNK n^2) bytes.
_CHUNK = 4096


def _code_depths(codes: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Vertex depths and leaf masks, (count, n), of equal-length canonical codes.

    Vertices are numbered in code (pre)order from vertex 0.
    A vertex's depth is its bracket level, one more past a two-center code's second
    root, which hangs below vertex 0.  A vertex is a leaf iff its bracket closes at
    once: a center never has one child.
    """
    count, n = len(codes), len(codes[0]) // 2  # a code is a shape digit and 2n brackets
    chars = np.frombuffer(b"".join(codes), np.uint8).reshape(count, -1)[:, 1:]
    opens = chars == ord("(")
    level = np.cumsum(np.where(opens, 1, -1), axis=1)[opens].reshape(count, n) - 1
    leaf = (opens[:, :-1] & ~opens[:, 1:])[opens[:, :-1]].reshape(count, n)
    return level - 1 + np.cumsum(level == 0, axis=1), leaf


def _lambda2_batch(codes: list[bytes]) -> np.ndarray:
    """lambda_2 of every tree given by an equal-length canonical code, in input order."""
    out = np.empty(len(codes))
    for lo in range(0, len(codes), _CHUNK):
        depth, leaf = _code_depths(codes[lo : lo + _CHUNK])
        sizes = leaf.sum(axis=1)
        for m in np.unique(sizes):
            group = np.flatnonzero(sizes == m)
            out[lo + group] = _distance_lambda2(_leaf_distances(depth[group], leaf[group]).astype(float))
    return out
