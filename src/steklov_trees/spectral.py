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
Laplacian onto the leaf block, built from the interior block alone as
L_BB = I and each leaf has one neighbour, is the independent route that
`lambda2 --method matrix` prints and the test oracles check against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .trees import Tree, leaf_set


class Spectrum(NamedTuple("Spectrum", [("eigenvalues", tuple[float, ...])])):
    """Nondecreasing Steklov eigenvalues, one per boundary leaf.

    A NamedTuple (eigenvalues,): spectra compare and hash as that tuple.
    """

    __slots__ = ()

    def __new__(cls, eigenvalues: tuple[float, ...]) -> Spectrum:
        lams = eigenvalues
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("eigenvalues must be nondecreasing")
        if lams and lams[0] < 0.0:
            raise ValueError(f"negative bottom eigenvalue {lams[0]}")
        return super().__new__(cls, eigenvalues)


def dtn_matrix(t: Tree) -> np.ndarray:
    """Dirichlet-to-Neumann matrix on the leaves, in leaf_set order.

    Schur complement L_BB - L_BI L_II^{-1} L_IB of the Laplacian;
    symmetric, positive semidefinite, row sums zero.  Past the single
    edge L_BB = I and a leaf's row of L_BI is one -1 at its only
    neighbour, its hub, so the complement is exactly I + X[hub] with
    X = L_II^{-1} L_IB.  Symmetrized against the solve's last-bit asymmetry.
    """
    if t.n == 2:
        return np.array([[1.0, -1.0], [-1.0, 1.0]])
    deg = np.array(t.degrees)
    row = np.cumsum(deg > 1) - 1  # an interior vertex's row in L_II, interior ascending
    edges = np.array(t.edges)
    a, b = row[edges[(deg[edges] > 1).all(axis=1)]].T  # the interior edges
    l_ii = np.diag(deg[deg > 1].astype(float))
    l_ii[a, b] = l_ii[b, a] = -1.0
    hub = row[[t.adjacency[leaf][0] for leaf in leaf_set(t)]]
    l_ib = np.zeros((len(l_ii), len(hub)))
    l_ib[hub, np.arange(len(hub))] = -1.0
    schur = np.eye(len(hub)) + np.linalg.solve(l_ii, l_ib)[hub]
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
    i = np.arange(m - 1)
    upper = i[:, None] <= i  # lca[r, i, j]: leaves i and j + 1 of row r, for i <= j
    lca = np.minimum.accumulate(np.where(upper, gap[:, None, :], n), axis=2)
    dep = flat[at].reshape(k, m)
    dist = np.zeros((k, m, m), dtype=depth.dtype)
    dist[:, :-1, 1:] = np.where(upper, dep[:, :-1, None] + dep[:, None, 1:] - 2 * lca, 0)
    return dist + np.swapaxes(dist, 1, 2)


def leaf_distance_matrix(t: Tree) -> np.ndarray:
    """Pairwise graph distances between leaves, in leaf_set order.

    One depth-first pass from vertex 0 gives the preorder and the depths;
    its last vertex is a leaf.
    """
    order, _, depth = t._preorder(0)
    pre = np.array(order)
    leaf = np.array(t.degrees)[pre] == 1
    rank = pre[leaf].argsort()
    return _leaf_distances(np.array(depth)[pre][None], leaf[None])[0][rank[:, None], rank]


def _gram_eigenvalues(dmat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of P(-D/2)P for each stacked m x m distance matrix.

    With row means r, its entries are (r_i + r_j - mean(r) - D_ij) / 2,
    symmetric in floats as D is.  Integer D needs no cast: its row sums
    are exact in floats, so both dtypes give the same bits.
    """
    m = dmat.shape[-1]
    rows = dmat.sum(axis=-1) / m  # mean's own arithmetic, without its Python wrapper
    gram = rows[..., :, None] + rows[..., None, :]
    gram -= (rows.sum(axis=-1) / m)[..., None, None]
    gram -= dmat
    gram /= 2.0
    return np.linalg.eigvalsh(gram)


def _distance_lambda2(dmat: np.ndarray) -> np.ndarray:
    """lambda_2 = 1 / top eigenvalue of P(-D/2)P for each stacked m x m distance matrix."""
    top = _gram_eigenvalues(dmat)[..., -1]
    if (top <= 0.0).any():
        raise RuntimeError(f"centered distance form has no positive eigenvalue (top={np.min(top)})")
    return 1.0 / top


def lambda2_numeric(t: Tree) -> float:
    """First nonzero Steklov eigenvalue, from the leaf distance form."""
    return float(_distance_lambda2(leaf_distance_matrix(t)))


def steklov_spectrum(t: Tree) -> Spectrum:
    """All Steklov eigenvalues of t, ascending, from the leaf distance form.

    The smallest Gram eigenvalue, of the constant flux, is zero up to
    rounding and gives lambda_1 = 0.  Every other one is at least 1 (1/2
    at n = 2): no two leaves are adjacent, so the DtN matrix lies below
    the identity.  Their reciprocals are the rest of the spectrum, the
    first of them lambda2_numeric's value bit for bit.
    """
    gram = _gram_eigenvalues(leaf_distance_matrix(t))
    if gram[1] <= 0.0:
        raise RuntimeError(f"centered distance form has a second eigenvalue {gram[1]} that is not positive")
    return Spectrum((0.0, *(1.0 / gram[:0:-1]).tolist()))


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
    """lambda_2 of every tree given by an equal-length canonical code, in input order, as one batch."""
    out = np.empty(len(codes))
    if codes:
        depth, leaf = _code_depths(codes)
        sizes = leaf.sum(axis=1)
        # Not np.unique: in numpy 2 its first call imports numpy.ma, which nothing else here needs.
        for m in np.flatnonzero(np.bincount(sizes)):
            group = np.flatnonzero(sizes == m)
            out[group] = _distance_lambda2(_leaf_distances(depth[group], leaf[group]).astype(float))
    return out
