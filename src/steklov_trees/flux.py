"""Mean-zero boundary fluxes and the inverse form on the leaves.

A boundary flux prescribes the outward normal derivative at every leaf;
mean zero makes the corresponding vertex potential exist.  Its Dirichlet
energy Q(z) admits two combinatorial descriptions: the sum of squared
per-edge cut sums, and -z^T D z / 2 with D the leaf distance matrix.
The largest eigenvalue of that form on mean-zero vectors is the
reciprocal of the first nonzero Steklov eigenvalue, which spectral.py
evaluates; this module holds the flux identities themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import laplacian_matrix
from .trees import Tree, leaf_set

# A flux is accepted as mean-zero when |sum z| <= this times max|z|.
_MEAN_ZERO_TOL = 1e-12

# Interior-harmonicity / prescribed-flux defect allowed on the potential.
_RESIDUAL_TOL = 1e-11


@dataclass(frozen=True)
class BoundaryFlux:
    """Real vector indexed by leaf_set order, summing to zero.

    Inputs that fail the mean-zero test are rejected outright; silently
    projecting them would hide caller bugs.
    """

    z: tuple[float, ...]

    def __post_init__(self) -> None:
        z = tuple(float(x) for x in self.z)
        object.__setattr__(self, "z", z)
        scale = max((abs(x) for x in z), default=0.0)
        if abs(sum(z)) > _MEAN_ZERO_TOL * scale:
            raise ValueError(f"flux is not mean-zero: sum={sum(z)!r}, max|z|={scale!r}")

    def as_array(self) -> np.ndarray:
        return np.array(self.z, dtype=float)


@dataclass
class CutDecomposition:
    """Per-edge cut sums s_e(z) and their square sum.

    Edges are keyed (parent, child), oriented away from the chosen root;
    the sign of s_e depends on that orientation but the total does not.
    """

    per_edge: dict[tuple[int, int], float]
    total: float


def _leaf_flux_or_raise(t: Tree, z: BoundaryFlux) -> tuple[list[int], np.ndarray]:
    boundary = leaf_set(t)
    arr = z.as_array()
    if arr.shape != (len(boundary),):
        raise ValueError(f"expected {len(boundary)} flux entries, got {arr.shape[0]}")
    return boundary, arr


def flux_potential(t: Tree, z: BoundaryFlux) -> np.ndarray:
    """Vertex potential with normal derivative z at the leaves.

    Harmonic at interior vertices, normalized to sum zero over all
    vertices (the potential is otherwise unique only up to an additive
    constant).  Solved by grounding vertex 0 and back-substituting, then
    shifting; the reduced Laplacian block is always nonsingular.
    """
    boundary, arr = _leaf_flux_or_raise(t, z)
    rhs = np.zeros(t.n)
    rhs[boundary] = arr
    lap = laplacian_matrix(t)

    potential = np.zeros(t.n)
    potential[1:] = np.linalg.solve(lap[1:, 1:], rhs[1:])
    potential -= potential.mean()

    defect = np.max(np.abs(lap @ potential - rhs))
    if defect > _RESIDUAL_TOL * max(1.0, np.max(np.abs(arr), initial=0.0)):
        raise RuntimeError(f"potential solve left defect {defect}")
    return potential


def cut_sums(t: Tree, z: BoundaryFlux, root: int = 0) -> CutDecomposition:
    """Cut sum over the descendant leaves of each edge, rooted at `root`.

    s_e(z) totals the flux of the leaves below e.  The square sum is
    independent of the root choice.
    """
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} out of range")
    boundary, arr = _leaf_flux_or_raise(t, z)
    flux_at = dict(zip(boundary, arr))

    order, parent, _ = t._preorder(root)
    acc = [0.0] * t.n
    for v in reversed(order):
        if t.degrees[v] == 1 and v != root:
            acc[v] += flux_at[v]
        if v != root:
            acc[parent[v]] += acc[v]

    per_edge = {(parent[v], v): acc[v] for v in order if v != root}
    total = float(sum(s * s for s in per_edge.values()))
    return CutDecomposition(per_edge=per_edge, total=total)


def q_form(t: Tree, z: BoundaryFlux) -> float:
    """Dirichlet energy of the flux potential, sum of (u(x)-u(y))^2.

    Equals the cut-sum total and -z^T D z / 2 for the leaf distance
    matrix D; those identities are exercised by the certification
    harness rather than assumed here.
    """
    potential = flux_potential(t, z)
    return float(sum((potential[u] - potential[v]) ** 2 for u, v in t.edges))
