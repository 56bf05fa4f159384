"""Steklov spectrum of a tree via the Schur complement of its Laplacian.

The boundary is the leaf set.  The Dirichlet-to-Neumann matrix is the
Schur complement of the graph Laplacian onto the leaf block; its
eigenvalues, sorted ascending, form the Steklov spectrum
0 = lambda_1 <= lambda_2 <= ... <= lambda_m with m the number of leaves.

The eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh).
The test suite keeps an independent cyclic Jacobi solver and an explicit
harmonic extension as oracles for this route (tests/oracles.py).
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


def lambda2_numeric(t: Tree) -> float:
    """First nonzero Steklov eigenvalue (second-smallest overall)."""
    return steklov_spectrum(t).eigenvalues[1]
