"""Seeded inputs for the three workloads, each a fixed batch of CLI operations.

An operation is one `steklov` subcommand with its arguments plus the check
its output must pass.  The same seed always gives the same batch; the
batch size and the work it implies are the same for every seed, so runs
on different seeds can be compared.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

# certify: exhaustive, so the grid is fixed; the seed only orders each round.
CERTIFY_GRID = ((14, 5), (14, 7), (14, 9))

# classify_scale: every odd diameter, lateral mass log-uniform within strata.
CLASSIFY_DIAMETERS = range(3, 102, 2)
CLASSIFY_STRATA = 8
CLASSIFY_MAX_MASS = 4000
# roots bisection stalls erratically from about 98 lateral branches on
# (first stall per diameter: 137 at D=3, 98 at D=81); seeded draws stay at
# or below this count so that no seed meets a stall by chance.
CLASSIFY_MAX_LATERALS = 80
# Known stalls, fixed for every seed: they fail every run until the
# solver is fixed, and count as failed operations.
CLASSIFY_STALLS = ((141, 3), (217, 5), (321, 7), (304, 3), (1006, 5), (3042, 41))
SWEEP_RADII = range(2, 9)
SWEEP_M_MAX = (78, 82)

# single_tree: reduce on random trees of fixed order, leaf count and
# diameter (so cost varies little between seeds), two long paths and one
# tree with many leaves through every lambda_2 route.
REDUCE_ORDERS = range(60, 121, 2)
REDUCE_LEAVES = 10
REDUCE_DRAWS = 6
PATH_LENGTHS = (2000, 3000)
PATH_JITTER = 20
LEAFY_ORDER, LEAFY_LEAVES, LEAFY_DIAMETER = 100, 60, 19


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], None]
    fresh: bool = False

    @property
    def kind(self) -> str:
        return self.argv[0]


# ------------------------------ certify --------------------------------


def certify(rng: random.Random, workdir: Path) -> list[Op]:
    return [
        Op(
            ("verify", str(n), str(d)),
            partial(checks.check_verify, n=n, diameter=d, expected_trees=checks.bicentral_tree_count(n, d)),
            fresh=True,
        )
        for n, d in CERTIFY_GRID
    ]


# --------------------------- classify_scale ----------------------------


def _classify_op(n: int, d: int) -> Op:
    return Op(("classify", str(n), str(d)), partial(checks.check_classify, n=n, diameter=d))


def classify_scale(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for d in CLASSIFY_DIAMETERS:
        s = ((d - 1) // 2 + 1) // 2
        top = min(CLASSIFY_MAX_MASS, CLASSIFY_MAX_LATERALS * s)
        for k in range(CLASSIFY_STRATA):
            # Middle half of the k-th quarter of [0, log top]: the batch's
            # cost, and so its percentiles, barely move between seeds.
            u = (k + 0.25 + 0.5 * rng.random()) / CLASSIFY_STRATA
            mass = min(top, max(1, round(top**u)))
            ops.append(_classify_op(mass + d + 1, d))
    for r in SWEEP_RADII:
        m_max = rng.randint(*SWEEP_M_MAX)
        ops.append(Op(("sweep", "--r", str(r), "--M-max", str(m_max)), partial(checks.check_sweep, r=r, m_max=m_max)))
    ops.extend(_classify_op(n, d) for n, d in CLASSIFY_STALLS)
    return ops


# ---------------------------- single_tree ------------------------------


def prufer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence of length n-2 into the edges of a labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """Distances from source and BFS parents (the source is its own parent)."""
    dist = [-1] * len(adj)
    parent = [source] * len(adj)
    dist[source] = 0
    queue = [source]
    for x in queue:
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
    return dist, parent


def tree_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    adj = _adjacency(n, edges)
    d0, _ = _bfs(adj, 0)
    return max(_bfs(adj, d0.index(max(d0)))[0])


def predicted_trace_length(n: int, edges: list[tuple[int, int]]) -> int:
    """Number of lines `steklov reduce` should print for this tree, from its arms.

    The tree is cut at the central edge of a diameter path (odd diameter)
    and each half is split into longest paths from its centre (a long-path
    decomposition); the arms off the diameter path are the side arms.  The
    trace is the input, one dominating double spider, one arm transfer per
    side arm of the half with fewer of them, one balancing step per vertex
    moved from the longest side arm to the shortest until no two differ by
    more than one, and the result.  Over 186 random trees of the
    `single_tree` orders this matched the printed trace on 184, and its
    correlation with the trace length was 0.999.
    """
    adj = _adjacency(n, edges)
    d0, _ = _bfs(adj, 0)
    end = d0.index(max(d0))
    dist, parent = _bfs(adj, end)
    path = [dist.index(max(dist))]
    while path[-1] != end:
        path.append(parent[path[-1]])
    r = (len(path) - 2) // 2
    halves: list[list[int]] = []
    for root, cut in ((path[r], path[r + 1]), (path[r + 1], path[r])):
        order, up = [root], {root: cut}
        for x in order:
            for y in adj[x]:
                if y != up[x]:
                    up[y] = x
                    order.append(y)
        height = dict.fromkeys(order, 0)
        for x in reversed(order[1:]):
            height[up[x]] = max(height[up[x]], height[x] + 1)
        # Below every vertex the tallest child continues the vertex's arm;
        # each other child starts an arm of its height plus the edge up.
        arms = []
        for x in order:
            children = sorted((height[y] for y in adj[x] if y != up[x]), reverse=True)
            arms.extend(h + 1 for h in children[1:])
        halves.append(arms)
    sides = sorted(halves[0] + halves[1])
    balancing = 0
    while sides and sides[-1] - sides[0] >= 2:
        sides[-1] -= 1
        sides[0] += 1
        sides.sort()
        balancing += 1
    return 3 + min(len(halves[0]), len(halves[1])) + balancing


def reduce_trace_target(n: int) -> int:
    """Typical trace length at order n: the mean of 40 draws per order, fitted linearly."""
    return round(2.72 + 0.17 * n)


def random_tree(rng: random.Random, n: int, leaves: int, diameter: int) -> list[tuple[int, int]]:
    """Random labeled tree with exactly `leaves` leaves and the given diameter.

    The Pruefer sequence uses exactly n - leaves distinct labels, each at
    least once, so the other labels are the leaves; draws are repeated
    until the diameter matches.
    """
    while True:
        internal = rng.sample(range(n), n - leaves)
        seq = internal + [rng.choice(internal) for _ in range(leaves - 2)]
        rng.shuffle(seq)
        edges = prufer_edges(seq, n)
        if tree_diameter(n, edges) == diameter:
            return edges


def _write_tree(path: Path, n: int, edges: list[tuple[int, int]]) -> str:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def reduce_diameter(n: int) -> int:
    """Odd diameter near the median for REDUCE_LEAVES leaves (about 0.53 n)."""
    return 2 * int(0.265 * n) + 1


def single_tree(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n in REDUCE_ORDERS:
        d = reduce_diameter(n)
        # Every trace line costs a lambda_2 solve, so of a fixed number of
        # draws the first whose predicted trace is nearest the typical length
        # for n is kept: the cost of `reduce`, and of building the inputs,
        # then varies little between seeds.
        target = reduce_trace_target(n)
        draws = [random_tree(rng, n, REDUCE_LEAVES, d) for _ in range(REDUCE_DRAWS)]
        edges = min(draws, key=lambda e: abs(predicted_trace_length(n, e) - target))
        path = _write_tree(workdir / f"reduce-{n}.txt", n, edges)
        ops.append(Op(("reduce", "--file", path), partial(checks.check_reduce, n=n, diameter=d)))
    for base in PATH_LENGTHS:
        length = base + rng.randint(-PATH_JITTER, PATH_JITTER)
        ops.append(Op(("lambda2", f"path:{length}"), partial(checks.check_path_lambda2, length=length)))
    edges = random_tree(rng, LEAFY_ORDER, LEAFY_LEAVES, LEAFY_DIAMETER)
    path = _write_tree(workdir / "leafy.txt", LEAFY_ORDER, edges)
    routes = checks.RouteAgreement()
    ops.append(
        Op(
            ("spectrum", "--file", path),
            partial(checks.check_spectrum_route, leaves=LEAFY_LEAVES, diameter=LEAFY_DIAMETER, routes=routes),
        )
    )
    for method in ("matrix", "distance"):
        ops.append(
            Op(
                ("lambda2", "--method", method, "--file", path),
                partial(checks.check_route_lambda2, diameter=LEAFY_DIAMETER, routes=routes, route=method),
            )
        )
    return ops


WORKLOADS = {"certify": certify, "classify_scale": classify_scale, "single_tree": single_tree}
