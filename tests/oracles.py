"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route
than the code under test: exact rational bisection of cleared
denominators instead of float bisection, plain float bisection that
evaluates every midpoint instead of the one that starts from a Newton
estimate, charging each edge to its deepest leaf instead
of the tallest-child arm walk, Prufer sequences, the networkx
tree generator and a count recurrence instead of the center-rooted
tree generator, cyclic Jacobi rotations instead of
LAPACK, the Schur complement of the whole graph Laplacian, four blocks
sliced out of it, instead of the package's assembly of the interior
block and each leaf's one neighbour, which must equal it bit for bit,
an explicit harmonic extension instead of the Schur complement,
one breadth-first search per leaf instead of the one-traversal leaf
distance matrix, and the almost seesaw candidates laid out from their
parameters (r, q, c, t) and the two branch counts next to M/s instead of
the package's layout from (r, q, M).
Keep this module free of imports from the package except where a test
explicitly certifies one route against the other, as the certification
harness at the end does: the double-spider domination inequality tree by
tree, and every applicable lambda_2 route against the others.  That
harness also holds root_routes, every root equation a tree's shape
admits, of which `lambda2 --method root` solves only the first, and
double_spider_split, which splits a tree with at most one branch vertex
into a double spider along its longest branch, where the package's
recognize_double_spider reports None.  Seven
test-only forms of package routes also live here: the scalar
balanced-family root at real q, which the stacked sweep table must
equal bit for bit, the sweep's verdicts as loops over one mass's rows,
which verify's verdicts on whole tables must equal, the center-rooted
generator's codes built into Tree objects, the main balancing move,
which no subcommand runs, the per-length grouping of a spider's
poles and shorthands, which the package's runs of equal lengths must
reproduce, a tree's centers as a new list, read off its double sweep, and
the flux identities: boundary fluxes, their potentials, cut sums and the
inverse quadratic form Q(z), which the package evaluates only as the leaf
distance Gram.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import networkx as nx
import numpy as np

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    dominating_double_spider,
    double_spider_rho,
    dtn_matrix,
    lambda2_numeric,
    leaf_set,
    make_double_spider,
    recognize_double_spider,
    recognize_spider,
    spider_lambda2,
)
from steklov_trees import roots, verify
from steklov_trees.classify import _TIE_RTOL, _odd_case
from steklov_trees.reduce import _checked_root
from steklov_trees.roots import _resolvent_sum
from steklov_trees.trees import _center_codes
from steklov_trees.verify import _STRICT_RTOL

# Distinct unlabeled trees on n = 1..16 vertices, frozen by hand.
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]

_BRACKET_BITS = 90

# Pairwise agreement required between independent lambda_2 routes.
_CROSS_RTOL = 1e-10

# Off-diagonal Frobenius norm below which a Jacobi sweep stops.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60


# --------------------------- exact root finding ---------------------------


def _cleared_sum(terms: Sequence[tuple[int, int]], lam: Fraction) -> Fraction:
    """Sum of w_i * prod_{j != i} (1 - l_j * lam), an integer polynomial.

    This clears the denominators of sum w_i / (1 - l_i * lam); inside an
    interval free of poles its sign agrees with the rational function's
    up to the fixed sign of the product of denominators.
    """
    total = Fraction(0)
    for i, (weight, _) in enumerate(terms):
        if weight == 0:
            continue
        prod = Fraction(weight)
        for j, (_, length) in enumerate(terms):
            if j != i:
                prod *= 1 - length * lam
        total += prod
    return total


def rational_root_bracket(
    terms: Sequence[tuple[int, int]],
    lo_pole: Fraction,
    hi_pole: Fraction,
    bits: int = _BRACKET_BITS,
) -> tuple[Fraction, Fraction]:
    """Bracket the unique zero of sum w/(1 - l*lam) in (lo_pole, hi_pole).

    Works entirely in Fraction arithmetic; the returned bracket has
    width (hi_pole - lo_pole) / 2**bits, far below any float tolerance.
    """
    gap = hi_pole - lo_pole
    eps = gap / 4
    while True:
        lo, hi = lo_pole + eps, hi_pole - eps
        glo, ghi = _cleared_sum(terms, lo), _cleared_sum(terms, hi)
        if glo != 0 and ghi != 0 and (glo < 0) != (ghi < 0):
            break
        eps /= 2
        if eps < gap / 2**40:
            raise AssertionError("no sign change found near the poles")
    sign_lo = _cleared_sum(terms, lo) < 0
    for _ in range(bits):
        mid = (lo + hi) / 2
        if (_cleared_sum(terms, mid) < 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_reference(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Float bisection of an increasing f on (lo, hi) that evaluates every midpoint.

    roots._bisect from a NaN estimate: it halves until no float is left
    strictly inside the bracket and returns its lower float, or its upper
    one when no midpoint had f <= 0, or the first midpoint where f
    divides by zero.
    """
    a, b = lo, hi
    while True:
        value = 0.5 * (a + b)
        if not a < value < b:
            return a if a > lo else b
        try:
            up = f(value) > 0.0
        except ZeroDivisionError:
            return value
        if up:
            b = value
        else:
            a = value


def spider_lambda2_exact(lengths: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Bracket of the spider eigenvalue between the two largest poles."""
    ls = sorted(lengths, reverse=True)
    assert ls[0] > ls[1], "oracle needs a strict longest branch"
    # Equal lengths share a pole, so one weighted term per distinct length
    # keeps the cleared polynomial small at large lateral mass.
    terms = [(ls.count(l), l) for l in sorted(set(ls), reverse=True)]
    return rational_root_bracket(terms, Fraction(1, ls[0]), Fraction(1, ls[1]))


def sigma_exact(r: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """Bracket of the balanced-family value at integer q."""
    c = m // q
    terms = [(1, r + 1), (1, r), (m - c * q, c + 1), ((c + 1) * q - m, c)]
    return rational_root_bracket(terms, Fraction(1, r + 1), Fraction(1, r))


# ----------------------- AS parameters and centers -----------------------
# The package names a candidate by (r, q, M) alone and lays it out in
# trees._as_profile; these lay out AS(r, q+2, c, t) from its four
# parameters directly, with their own checks, as the layout tests' reference.


@dataclass(frozen=True)
class ASParams:
    """Generalized almost seesaw tree AS(r, q+2, c, t).

    The spider with principal branches r+1 and r plus q lateral branches:
    t of length c+1 and q-t of length c.  Lateral mass M = q*c + t.
    """

    r: int
    q: int
    c: int
    t: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.q < 1 or self.c < 1:
            raise ValueError(f"need r,q,c >= 1, got {self!r}")
        if not 0 <= self.t <= self.q - 1:
            raise ValueError(f"need 0 <= t <= q-1, got {self!r}")
        if self.c > self.r:
            raise ValueError(f"lateral length c={self.c} exceeds r={self.r}")
        if self.t > 0 and self.c + 1 > self.r:
            raise ValueError(f"lateral length c+1={self.c + 1} exceeds r={self.r}")

    @property
    def lateral_mass(self) -> int:
        return self.q * self.c + self.t

    @property
    def order(self) -> int:
        return 2 * self.r + 2 + self.lateral_mass

    @property
    def diameter(self) -> int:
        return 2 * self.r + 1

    def spider_profile(self) -> SpiderProfile:
        return SpiderProfile((self.r + 1, self.r) + (self.c + 1,) * self.t + (self.c,) * (self.q - self.t))


@dataclass(frozen=True)
class CandidatePair:
    """The two nearly-balanced candidates for given (n, D) with M >= 1.

    q_minus and q_plus are the branch counts bracketing M/s; the
    parameter sets come from the Euclidean divisions M = q*c + t.  The
    pair collapses (as_minus == as_plus) when s divides M or M < s.
    """

    M: int
    s: int
    q_minus: int
    q_plus: int
    as_minus: ASParams
    as_plus: ASParams


def candidate_profiles(n: int, D: int) -> CandidatePair | None:
    """The candidate parameter sets for (n, D), or None when the path wins (M = 0).

    The domain is the package's one check, classify._odd_case, so that the
    tests of its rejections run it; the counts and divisions are redone here.
    """
    r, M = _odd_case(n, D)
    if M == 0:
        return None
    s = -(-r // 2)
    q_minus, q_plus = max(1, M // s), -(-M // s)
    return CandidatePair(M, s, q_minus, q_plus, *(ASParams(r, q, M // q, M % q) for q in (q_minus, q_plus)))


def tree_centers(t: Tree) -> list[int]:
    """The one or two middle vertices of a longest path, ascending, as a new list: the tree's double sweep."""
    return list(t._sweep[1])


# The balanced family at real q: the scalar reference for verify._sigma_tables,
# solved through roots._bisect so that tests can watch its calls.


def q_range_continuous(r: int, M: int) -> tuple[float, float]:
    """Domain [M/r, M] of the interpolated branch-count variable."""
    if r < 1 or M < 1:
        raise ValueError(f"need r >= 1 and M >= 1, got r={r}, M={M}")
    return (M / r, float(M))


def sigma_rM(r: int, M: int, q: float) -> float:
    """Root of the balanced-family equation Phi_{r,M}(., q) in (1/(r+1), 1/r).

    For integer q this is the root equation of the spider with principal
    branches (r+1, r) and q lateral branches of total length M spread as
    evenly as possible.  Real q interpolates between those spiders: with
    c = floor(M/q), mass M - c q sits on the pole 1/(c+1) and the rest
    on 1/c.  At the left endpoint q = M/r the first weight vanishes and
    the formula degenerates to 1/(1-(r+1)x) + (1+M/r)/(1-rx).
    """
    if r < 1 or M < 1:
        raise ValueError(f"need r >= 1 and M >= 1, got r={r}, M={M}")
    lo_q, hi_q = q_range_continuous(r, M)
    if not lo_q - 1e-12 <= q <= hi_q + 1e-12:
        raise ValueError(f"q={q} outside [{lo_q}, {hi_q}] for r={r}, M={M}")
    q = min(max(q, lo_q), hi_q)

    c = M // int(q) if float(q).is_integer() else int(math.floor(M / q))
    c = min(max(c, 1), r)
    w_hi = max(M - c * q, 0.0)
    w_lo = max((c + 1) * q - M, 0.0)
    terms = tuple((l, w) for l, w in ((r + 1, 1), (r, 1), (c + 1, w_hi), (c, w_lo)) if w > 0.0)
    return roots._bisect(
        lambda lam: roots._pole_sum(terms, lam),
        1.0 / (r + 1),
        1.0 / r,
        lambda: roots._pole_sum_estimate(terms),
    )


def sigma_table_rows(r: int, masses: Sequence[int]) -> list[tuple[tuple[int, float], ...]]:
    """verify._sigma_tables(r, masses), one flat table, split into one tuple of (q, sigma) rows per mass."""
    q, sigma, starts = verify._sigma_tables(r, masses)
    rows = list(zip(q.tolist(), sigma.tolist()))
    bounds = [*starts.tolist(), len(rows)]
    return [tuple(rows[a:b]) for a, b in zip(bounds, bounds[1:])]


def unimodality_verdict(r: int, M: int, rows: Sequence[tuple[int, float]]) -> tuple[tuple[int, ...], bool, str]:
    """(peak_q, passed, detail) of one mass's (q, sigma) rows, judged by per-mass loops.

    The reference for the verdicts that verify reads off a whole table's
    arrays at once.  The peaks are the q within 1e-12 (relative) of the
    maximum; the scan compares neighbours within the rows alone, for drops
    up to the first maximum and for rises after it; the peak must sit at
    floor(M/s) (at least 1) or ceil(M/s), s = ceil(r/2).
    """
    vals = [lam for _, lam in rows]
    best = max(vals)
    band = _STRICT_RTOL * best
    peak_q = tuple(q for q, lam in rows if best - lam <= band)
    i_star = vals.index(best)

    problems = []
    for i in range(i_star):
        if vals[i + 1] < vals[i] - band:
            problems.append(f"drop before the peak at q={rows[i + 1][0]}")
    for i in range(i_star, len(vals) - 1):
        if vals[i + 1] > vals[i] + band:
            problems.append(f"rise after the peak at q={rows[i + 1][0]}")

    s = (r + 1) // 2
    predicted = {max(1, M // s), -(-M // s)}
    if not predicted.intersection(peak_q):
        problems.append(f"peak at q={peak_q}, predicted {sorted(predicted)}")
    return peak_q, not problems, "; ".join(problems)


def _resolvent_poly(lengths: Sequence[int], rho: Fraction) -> tuple[Fraction, Fraction]:
    """(numerator, denominator) of sum 1/(rho - a_i) as polynomials in rho."""
    den = Fraction(1)
    for a in lengths:
        den *= rho - a
    num = Fraction(0)
    for i in range(len(lengths)):
        prod = Fraction(1)
        for j, a in enumerate(lengths):
            if j != i:
                prod *= rho - a
        num += prod
    return num, den


def double_spider_rho_exact(
    a_lengths: Sequence[int], b_lengths: Sequence[int], bits: int = _BRACKET_BITS
) -> tuple[Fraction, Fraction]:
    """Bracket of the rho solving 1/A + 1/B = 1, rho > max branch length.

    Clears denominators to H = D_A*N_B + D_B*N_A - N_A*N_B; both
    resolvent numerators are positive beyond the largest pole, so the
    zeros of H on the bracket are exactly the zeros of the equation.
    """
    r = max(a_lengths)

    def h(rho: Fraction) -> Fraction:
        na, da = _resolvent_poly(a_lengths, rho)
        nb, db = _resolvent_poly(b_lengths, rho)
        return da * nb + db * na - na * nb

    total = sum(a_lengths) + sum(b_lengths)
    lo = Fraction(r) + Fraction(1, 10**6)
    hi = Fraction(r + total + 1)
    assert (h(lo) < 0) != (h(hi) < 0), "bracket endpoints must straddle the root"
    sign_lo = h(lo) < 0
    for _ in range(bits):
        mid = (lo + hi) / 2
        hm = h(mid)
        if hm == 0:
            return mid, mid
        if (hm < 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bracket_contains(bracket: tuple[Fraction, Fraction], x: float, tol: float) -> bool:
    lo, hi = bracket
    return float(lo) - tol <= x <= float(hi) + tol


def double_spider_maximizer(p: DoubleSpiderProfile):
    """Optimal boundary flux realizing rho as an inverse Rayleigh quotient.

    Positive weights on the a-side leaves summing to 1, negative on the
    b-side summing to -1, each proportional to 1/(rho - length).  The
    quotient Q(z)/|z|^2 is recomputed on the actual tree and must land
    within 1e-9 of rho.
    """
    rho = double_spider_rho(p)
    a_sum = _resolvent_sum(p.a_lengths, rho)
    b_sum = _resolvent_sum(p.b_lengths, rho)
    xs = [(1.0 / a_sum) / (rho - a) for a in p.a_lengths]
    ys = [-(1.0 / b_sum) / (rho - b) for b in p.b_lengths]

    # Branch leaves are numbered in construction order, a-side then
    # b-side, so leaf_set order matches this concatenation.
    z = BoundaryFlux(tuple(xs + ys))
    tree = make_double_spider(p)
    quotient = q_form(tree, z) / sum(w * w for w in z.z)
    if abs(quotient - rho) > 1e-9 * max(1.0, abs(rho)):
        raise RuntimeError(f"maximizer quotient {quotient} does not match rho {rho}")
    return z


# -------------------------- main balancing move ---------------------------
# No subcommand or ascent runs it; the tests check it as the package's moves.


def balance_main_step(p: SpiderProfile, lam: float) -> tuple[SpiderProfile, float]:
    """Shift one vertex from the longest branch to the second longest; the result with its lambda_2.

    lam must be p's own root, spider_lambda2(p).  Requires
    l1 >= l2 + 2 with l1 + l2 odd and at least three branches (side
    branches never exceed l2 in a sorted profile); then
    (l1, l2) -> (l1 - 1, l2 + 1) strictly increases lambda_2, keeping
    order and diameter.
    """
    l1, l2 = p.lengths[0], p.lengths[1]
    sides = p.lengths[2:]
    if not sides:
        raise ValueError("move needs at least three branches")
    if l1 < l2 + 2:
        raise ValueError(f"longest branches {l1}, {l2} differ by less than 2")
    if (l1 + l2) % 2 == 0:
        raise ValueError(f"main branches {l1}, {l2} must have odd total")

    result = SpiderProfile((l1 - 1, l2 + 1) + sides)
    if result.order != p.order or result.diameter != p.diameter:
        raise RuntimeError(f"main balance changed order or diameter: {p} -> {result}")
    return result, _checked_root(p, lam, result)


# ------------------------- per-length grouping ----------------------------
# The package groups sorted lengths by runs of equal lengths; these group
# them one length at a time, with a Counter and one str() per branch.


def spider_terms_by_counter(lengths: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The spider equation's poles: the principal branches apart, then a Counter over the laterals."""
    return ((lengths[0], 1), (lengths[1], 1), *Counter(lengths[2:]).items())


def spider_shorthand_per_branch(p: SpiderProfile) -> str:
    """Shorthand of make_spider(p), one str() per branch: a path when it has two branches."""
    return f"path:{p.diameter}" if len(p.lengths) == 2 else "spider:" + ",".join(str(l) for l in p.lengths)


def double_spider_shorthand_per_branch(p: DoubleSpiderProfile) -> str:
    """Shorthand of make_double_spider(p), one str() per branch: a spider when a side has one branch."""
    for lone, hub in ((p.b_lengths, p.a_lengths), (p.a_lengths, p.b_lengths)):
        if len(lone) == 1:
            return spider_shorthand_per_branch(SpiderProfile(hub + (lone[0] + 1,)))
    return "ds:" + ",".join(str(l) for l in p.a_lengths) + "/" + ",".join(str(l) for l in p.b_lengths)


# --------------------------- arm decomposition ---------------------------


def side_arm_lengths_reference(t: Tree, root: int, banned: int) -> tuple[int, ...]:
    """Arm lengths of the component of `root` once the edge to `banned` is cut.

    Each edge of the component is charged to the deepest boundary leaf
    below it (lowest vertex id on ties); the arm length of a leaf is the
    number of edges charged to it.  Every charged leaf lies on the path
    from the root through its edges, so arms never exceed the depth.
    The breadth-first walk is its own, built from the edge list, so it
    shares nothing with the walks a Tree keeps.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in range(t.n)}
    for a, b in t.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order, parent, depth = [root], {root: root}, {root: 0}
    for v in order:  # grows while it is read: breadth first
        for w in nbrs[v]:
            if w != banned and w not in depth:
                parent[w], depth[w] = v, depth[v] + 1
                order.append(w)
    # best[v] = (-depth, id) of the deepest leaf in the subtree of v.
    best: dict[int, tuple[int, int]] = {}
    arms: dict[int, int] = {}
    for v in reversed(order):
        if v == root:
            continue
        key = (-depth[v], v) if len(nbrs[v]) == 1 else None
        for w in nbrs[v]:
            if w in best and parent[w] == v:
                if key is None or best[w] < key:
                    key = best[w]
        if key is None:
            raise RuntimeError(f"vertex {v} has no boundary leaf below it")
        best[v] = key
        arms[key[1]] = arms.get(key[1], 0) + 1
    return tuple(sorted(arms.values(), reverse=True))


# --------------------------- labeled enumeration ---------------------------


def prufer_to_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over {0..n-1} into the edge list of a tree."""
    if n == 1:
        return []
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def all_labeled_trees(n: int):
    """Yield the edge list of every labeled tree on n vertices (n**(n-2))."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return

    seq = [0] * (n - 2)
    while True:
        yield prufer_to_edges(seq, n)
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


# ------------------------ unlabeled enumeration ---------------------------


@lru_cache(maxsize=None)
def _networkx_catalog(n: int) -> tuple[tuple[int, bytes], ...]:
    """(diameter, canonical code) of every tree networkx generates on n vertices, sorted."""
    entries = []
    for g in nx.nonisomorphic_trees(n):
        relabel = {node: i for i, node in enumerate(sorted(g.nodes()))}
        t = Tree(n, tuple((relabel[u], relabel[v]) for u, v in g.edges()))
        entries.append((nx.diameter(g), canonical_code(t)))
    return tuple(sorted(entries))


def nonisomorphic_trees_by_diameter(n: int, d: int) -> list[bytes]:
    """Canonical codes of the trees of order n and diameter d, ascending.

    Drawn from networkx's nonisomorphic-tree generator over all diameters
    and filtered by networkx's own diameter.
    """
    return [code for dd, code in _networkx_catalog(n) if dd == d]


def _multiset_counts(items: Sequence[int], total: int) -> list[int]:
    """Multisets of every total size 0..total over items[k] kinds of size k.

    The Euler transform: m * b[m] = sum_k c[k] b[m-k], c[k] = sum over
    divisors j of k of j * items[j].
    """
    c = [0] + [sum(j * items[j] for j in range(1, k + 1) if k % j == 0) for k in range(1, total + 1)]
    b = [1]
    for m in range(1, total + 1):
        b.append(sum(c[k] * b[m - k] for k in range(1, m + 1)) // m)
    return b


def rooted_counts_by_height(size_max: int, height: int) -> list[int]:
    """Rooted unlabeled trees with s vertices and height <= height, for s = 0..size_max.

    A root over a multiset of subtrees of height <= height-1.
    """
    if height < 0:
        return [0] * (size_max + 1)
    return [0] + _multiset_counts(rooted_counts_by_height(size_max, height - 1), size_max - 1)


def tree_count_by_diameter(n: int, d: int) -> int:
    """Unlabeled trees of order n and diameter d, counted from their center(s).

    Diameter 2r+1: unordered pairs of rooted trees of height exactly r
    with n vertices between them.  Diameter 2r: a root over subtrees of
    height <= r-1, less those with at most one subtree of height r-1.
    """
    r = d // 2
    if d % 2:
        upper, lower = rooted_counts_by_height(n, r), rooted_counts_by_height(n, r - 1)
        exact = [x - y for x, y in zip(upper, lower)]
        count = sum(exact[a] * exact[n - a] for a in range(1, (n + 1) // 2))
        if n % 2 == 0:
            count += exact[n // 2] * (exact[n // 2] + 1) // 2
        return count
    upper, lower = rooted_counts_by_height(n, r - 1), rooted_counts_by_height(n, r - 2)
    exact = [x - y for x, y in zip(upper, lower)]
    short = _multiset_counts(lower, n - 1)
    one_tall = sum(exact[k] * short[n - 1 - k] for k in range(1, n))
    return _multiset_counts(upper, n - 1)[n - 1] - short[n - 1] - one_tall


# The package's center-rooted generator, as Tree objects for tests that need
# every tree of one order and diameter rather than its codes.


def _code_tree(n: int, code: bytes) -> Tree:
    """The tree of a canonical code; a two-center code's second root joins vertex 0."""
    parent: list[int] = []
    stack = [0]
    for ch in code[1:]:
        if ch == ord("("):
            parent.append(stack[-1])
            stack.append(len(parent) - 1)
        else:
            stack.pop()
    return Tree(n, tuple((p, v) for v, p in enumerate(parent) if v))


def enumerate_trees(n: int, d: int) -> Iterator[Tree]:
    """One representative per isomorphism class with order n, diameter d.

    Generated from the center(s) outward, in ascending canonical code
    order; empty when no tree of that order and diameter exists.
    """
    for code in _center_codes(n, d):
        yield _code_tree(n, code)


def count_trees(n: int) -> int:
    """Number of unlabeled trees of order n (all diameters)."""
    if n < 2:
        raise ValueError(f"tree enumeration needs n >= 2, got n={n}")
    return sum(len(_center_codes(n, d)) for d in range(1, n))


# ---------------------------- leaf distances ------------------------------


def leaf_distances_by_bfs(t: Tree) -> np.ndarray:
    """Leaf distance matrix in leaf_set order, one breadth-first search per leaf."""
    nbrs: list[list[int]] = [[] for _ in range(t.n)]
    for u, v in t.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    leaves = [v for v in range(t.n) if len(nbrs[v]) == 1]
    rows = []
    for leaf in leaves:
        dist = [-1] * t.n
        dist[leaf] = 0
        queue = deque([leaf])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        rows.append([dist[v] for v in leaves])
    return np.array(rows, dtype=int)


# ------------------------- Jacobi eigensolver -----------------------------


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the off-diagonal
    Frobenius norm drops below _JACOBI_TOL (scaled by the matrix norm).
    Raises on non-convergence, which for the matrix sizes here would
    signal a bug rather than a hard spectrum.
    """
    a = np.array(a, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if m == 1:
        return a[0, :1].copy()
    scale = max(np.max(np.abs(a)), 1.0)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # Off-diagonal norm from the entries themselves; the textbook
        # trace-difference form cancels catastrophically near convergence.
        off = float(np.sqrt(((a - np.diag(np.diag(a))) ** 2).sum()))
        if off <= _JACOBI_TOL * scale:
            return np.sort(np.diag(a))
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1.0e10:
                    tan = 0.5 / theta
                else:
                    tan = np.copysign(1.0, theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                cos = 1.0 / np.sqrt(tan * tan + 1.0)
                sin = tan * cos
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = cos * rp - sin * rq
                a[q, :] = sin * rp + cos * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = cos * cp - sin * cq
                a[:, q] = sin * cp + cos * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise RuntimeError(f"Jacobi eigensolver failed to converge on a {m}x{m} matrix")


# ------------------------- Laplacian Schur complement --------------------------
# The DtN matrix from the whole graph Laplacian, four blocks sliced out of it;
# the package assembles only the blocks the complement reads.


def laplacian_matrix(t: Tree) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - A."""
    lap = np.zeros((t.n, t.n))
    for u, v in t.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def laplacian_schur_complement(t: Tree) -> np.ndarray:
    """L_BB - L_BI L_II^{-1} L_IB on the leaves, blocks of the full Laplacian, symmetrized.

    Boundary in leaf_set order, interior ascending; with an empty
    interior (the single edge) it is L_BB itself.
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


# ------------------------- harmonic extension -----------------------------


@dataclass(frozen=True)
class BoundaryValues:
    """Dirichlet data on the leaves, indexed by leaf_set order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def harmonic_extension(t: Tree, g: BoundaryValues | np.ndarray) -> np.ndarray:
    """Extend leaf values g to the unique interior-harmonic function.

    g is indexed by leaf_set order; a raw array is accepted in place of
    BoundaryValues.  The interior block of the Laplacian is an M-matrix
    and always nonsingular on a tree, so a direct solve is exact up to
    rounding; with an empty interior the extension is g itself.
    """
    boundary = leaf_set(t)
    g = g.as_array() if isinstance(g, BoundaryValues) else np.asarray(g, dtype=float)
    if g.shape != (len(boundary),):
        raise ValueError(f"expected {len(boundary)} boundary values, got shape {g.shape}")
    interior = [v for v in range(t.n) if t.degrees[v] > 1]
    values = np.zeros(t.n)
    values[boundary] = g
    if interior:
        lap = laplacian_matrix(t)
        rhs = -lap[np.ix_(interior, boundary)] @ g
        values[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
    return values


# ---------------------------- flux identities -----------------------------
# The inverse boundary form written out literally, potential by potential and
# cut by cut; the package evaluates it only as the leaf distance Gram.


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


# ------------------------ certification harness ---------------------------


@dataclass(frozen=True)
class DominationReport:
    """Per-(n, D) outcome of the double-spider domination inequality."""

    n: int
    D: int
    trees_checked: int
    worst_margin: float
    equality_count: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class CrossMethodReport:
    """Agreement of every applicable lambda_2 route on one tree."""

    values: tuple[tuple[str, float], ...]
    passed: bool
    detail: str


def double_spider_split(t: Tree) -> DoubleSpiderProfile | None:
    """t as a double spider: recognize_double_spider's profile, or a spider's split.

    A tree with at most one branch vertex splits its spider profile along
    its longest branch, whose first edge becomes the central one: the
    inverse of the package's _lone_side_spider.  Stars and paths with
    fewer than 3 edges leave a side empty and report None.
    """
    double = recognize_double_spider(t)
    if double is not None:
        return double
    spider = recognize_spider(t)
    if spider is None or spider.lengths[0] < 2:
        return None
    return DoubleSpiderProfile(spider.lengths[1:], (spider.lengths[0] - 1,))


def root_routes(t: Tree) -> Iterator[tuple[str, float]]:
    """lambda_2 from every root equation that t's shape admits, spider first.

    The spider equation needs a strict longest branch; the double-spider
    equation needs equal longest sides of double_spider_split, which a
    spider with l_2 = l_1 - 1 has too.  Values are solved only as drawn.
    """
    spider = recognize_spider(t)
    if spider is not None and spider.lengths[0] > spider.lengths[1]:
        yield "spider_root", spider_lambda2(spider)
    double = double_spider_split(t)
    if double is not None and double.a_lengths[0] == double.b_lengths[0]:
        yield "double_spider_root", 1.0 / double_spider_rho(double)


def verify_domination(n: int, d: int) -> DominationReport:
    """Dominate every tree of order n, odd diameter d, and keep the margins.

    Passes iff no tree beats its dominating double spider by more than
    1e-9 and every equality case is itself a double spider.
    """
    worst = math.inf
    equalities = 0
    count = 0
    problems = []
    for t in enumerate_trees(n, d):
        count += 1
        lam_tree = lambda2_numeric(t)
        profile = dominating_double_spider(t)
        lam_ds = 1.0 / double_spider_rho(profile)
        margin = lam_ds - lam_tree
        worst = min(worst, margin)
        if margin < -_TIE_RTOL:
            problems.append(f"domination fails by {-margin} on {canonical_code(t).decode()}")
        elif abs(margin) <= _TIE_RTOL:
            equalities += 1
            if double_spider_split(t) is None:
                problems.append(f"equality on non-double-spider {canonical_code(t).decode()}")
    return DominationReport(
        n=n,
        D=d,
        trees_checked=count,
        worst_margin=worst,
        equality_count=equalities,
        passed=not problems,
        detail="; ".join(problems),
    )


def verify_cross_methods(t: Tree) -> CrossMethodReport:
    """Compute lambda_2 by every route the tree's shape supports.

    The boundary-operator (Schur complement) and leaf distance routes
    always apply; the spider and double-spider root equations join in
    when the shape matches.  Passes iff all pairs agree within 1e-10
    relative.
    """
    values = [
        ("matrix", float(np.linalg.eigvalsh(dtn_matrix(t))[1])),
        ("distance", lambda2_numeric(t)),
        *root_routes(t),
    ]

    problems = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            (name_a, lam_a), (name_b, lam_b) = values[i], values[j]
            if abs(lam_a - lam_b) > _CROSS_RTOL * max(abs(lam_a), abs(lam_b)):
                problems.append(f"{name_a}={lam_a!r} vs {name_b}={lam_b!r}")
    return CrossMethodReport(values=tuple(values), passed=not problems, detail="; ".join(problems))
