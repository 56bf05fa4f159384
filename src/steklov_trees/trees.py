"""Trees with leaf boundary: named families, canonical forms, enumeration.

A tree is a vertex count plus an edge list over {0..n-1}; its boundary is
always the leaf set.  This module constructs the families the optimization
theory is phrased in (paths, spiders, double spiders, generalized almost
seesaw trees), recognizes them back from bare edge lists by the arm
decomposition that reduce's domination also reads (each vertex extends
its tallest child's arm), computes an isomorphism-invariant canonical
code, and generates the unlabeled trees of one order and diameter from
their centers, as canonical codes, for the brute-force certification
harness.

Vertex labeling of constructed families is deterministic: center(s) get
the smallest labels, then each branch is laid out outward in profile
order, so that golden outputs are reproducible.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from functools import cached_property
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Optional

Edge = tuple[int, int]


# ------------------------------ core type ------------------------------


class Tree(NamedTuple("Tree", [("n", int), ("edges", tuple[Edge, ...])])):
    """Finite unweighted tree on vertices {0..n-1}.

    Invariants checked on construction: exactly n-1 edges, no self-loops,
    no repeated edges, connected.  Edges are normalized to (min, max) and
    sorted, so two Tree objects are equal iff they are the same labeled
    tree.  A NamedTuple (n, edges): trees compare and hash as that tuple.
    No attribute can be assigned; the cached walks live in the instance
    __dict__.
    """

    def __new__(cls, n: int, edges: tuple[Edge, ...]) -> Tree:
        if n < 2:
            raise ValueError(f"tree needs at least 2 vertices, got n={n}")
        normalized = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        if len(normalized) != n - 1:
            raise ValueError(f"expected {n - 1} edges, got {len(normalized)}")
        if len(set(normalized)) != len(normalized):
            raise ValueError("repeated edge")
        self = super().__new__(cls, n, tuple(normalized))
        if len(self._preorder(0)[0]) != n:
            raise ValueError("edge list is not connected")
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each ascending: the sorted (min, max) edges list a vertex's smaller neighbors first."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def _hubs(self) -> tuple[int, ...]:
        """Vertices of degree >= 3, ascending: scanned once for every recognizer."""
        return tuple([v for v, deg in enumerate(self.degrees) if deg >= 3])

    @cached_property
    def _walks(self) -> dict[tuple[int, int], tuple[list[int], list[int], list[int]]]:
        return {}

    def _preorder(self, root: int, banned: int = -1) -> tuple[list[int], list[int], list[int]]:
        """Depth-first preorder from root, with every vertex's parent and depth.

        The walk never enters `banned`, so with a neighbor of the root it
        covers the root's side of their edge; vertices off the walk keep
        parent and depth -1.  The root is its own parent.  Each (root,
        banned) is walked once and kept on the tree, so callers share the
        lists and must not mutate them.
        """
        walk = self._walks.get((root, banned))
        if walk is None:
            adjacency, parent, depth = self.adjacency, [-1] * self.n, [-1] * self.n
            parent[root], depth[root] = root, 0
            order, stack = [], [root]
            while stack:
                x = stack.pop()
                order.append(x)
                for y in adjacency[x]:
                    if depth[y] < 0 and y != banned:
                        parent[y], depth[y] = x, depth[x] + 1
                        stack.append(y)
            walk = self._walks[root, banned] = order, parent, depth
        return walk

    @cached_property
    def _sweep(self) -> tuple[int, tuple[int, ...]]:
        """Diameter and center(s), the middle of a longest path, by a double sweep: in a tree depth is distance.

        Each sweep ends at its deepest vertex, the smallest on ties; the first is the connectivity check's walk.
        """
        d0 = self._preorder(0)[2]
        _, parent, depth = self._preorder(d0.index(max(d0)))
        mid = end = depth.index(max(depth))
        for _ in range(depth[end] // 2):
            mid = parent[mid]
        return depth[end], tuple(sorted({mid, parent[mid]} if depth[end] % 2 else {mid}))


def leaf_set(t: Tree) -> list[int]:
    """All degree-1 vertices, ascending.  For n=2 both vertices are leaves."""
    return [v for v in range(t.n) if t.degrees[v] == 1]


def diameter(t: Tree) -> int:
    """Longest path length in edges, by the tree's double sweep."""
    return t._sweep[0]


# ------------------------------ profiles ------------------------------


class SpiderProfile(NamedTuple("SpiderProfile", [("lengths", tuple[int, ...])])):
    """Branch-length multiset of a one-center tree, stored longest first.

    A NamedTuple (lengths,): profiles compare and hash as that tuple.
    """

    __slots__ = ()

    def __new__(cls, lengths: tuple[int, ...]) -> SpiderProfile:
        if len(lengths) < 2:
            raise ValueError("spider needs at least 2 branches")
        if min(lengths) < 1:
            raise ValueError(f"branch lengths must be >= 1, got {lengths}")
        return super().__new__(cls, tuple(sorted(lengths, reverse=True)))

    @property
    def order(self) -> int:
        return 1 + sum(self.lengths)

    @property
    def diameter(self) -> int:
        return self.lengths[0] + self.lengths[1]


def _as_runs(r, q, M):
    """AS(r, q+2, c, t), M = q*c + t, as (length, count) runs: r+1 and r, t laterals of c+1, q-t of c.

    Elementwise on int64 arrays too.  Where t = 0 the c+1 run is empty, its length capped at r, off the pole of r+1.
    """
    c, t = divmod(M, q)
    return (r + 1, 1), (r, 1), (c + (c < r), t), (c, q - t)


def _as_profile(r: int, q: int, M: int) -> SpiderProfile:
    """AS(r, q+2, c, t) with M = q*c + t as a spider, its runs laid out longest first with no re-sort."""
    (_, _), (_, _), (longer, t), (c, rest) = _as_runs(r, q, M)
    if c + (t > 0) > r:
        raise ValueError(f"lateral length {c + (t > 0)} exceeds r={r}")
    if c < 1:  # r >= c here, so every length is >= 1
        raise ValueError(f"branch lengths must be >= 1, got {(r + 1, r, c)}")
    return SpiderProfile._make([(r + 1, r) + (longer,) * t + (c,) * rest])


class DoubleSpiderProfile(
    NamedTuple("DoubleSpiderProfile", [("a_lengths", tuple[int, ...]), ("b_lengths", tuple[int, ...])])
):
    """Two adjacent centers u, v carrying disjoint pendant paths.

    Sides are stored longest-first and ordered so that the a-side is the
    lexicographically larger tuple; DS(x;y) and DS(y;x) are the same
    unlabeled tree, so the constructor canonicalizes.  A NamedTuple
    (a_lengths, b_lengths): profiles compare and hash as that tuple.
    """

    __slots__ = ()

    def __new__(cls, a_lengths: tuple[int, ...], b_lengths: tuple[int, ...]) -> DoubleSpiderProfile:
        if not a_lengths or not b_lengths:
            raise ValueError("double spider needs a nonempty branch list on each side")
        if min(a_lengths + b_lengths) < 1:
            raise ValueError("branch lengths must be >= 1")
        a = tuple(sorted(a_lengths, reverse=True))
        b = tuple(sorted(b_lengths, reverse=True))
        if a < b:
            a, b = b, a
        return super().__new__(cls, a, b)

    @property
    def order(self) -> int:
        return 2 + sum(self.a_lengths) + sum(self.b_lengths)

    @property
    def diameter(self) -> int:
        return self.a_lengths[0] + self.b_lengths[0] + 1


# ---------------------------- constructors ----------------------------


def _lay_out(sides: tuple[tuple[int, ...], ...]) -> Tree:
    """Tree of one hub per side, hubs 0 and 1 adjacent, each side's branches hung from its hub in turn.

    The order is counted first: one past the largest list index raises OverflowError at once.
    """
    n = len(sides) + sum(map(sum, sides))
    if n > sys.maxsize:
        raise OverflowError(f"tree order {n} exceeds the largest index {sys.maxsize}")
    edges, nxt = [(0, 1)] if len(sides) == 2 else [], len(sides)
    for hub, lengths in enumerate(sides):
        for length in lengths:
            edges += zip([hub, *range(nxt, nxt + length - 1)], range(nxt, nxt + length))
            nxt += length
    return Tree(n, tuple(edges))


def make_path(length: int) -> Tree:
    """Path with `length` edges (so diameter length), labeled 0..length."""
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    return _lay_out(((length,),))


def make_spider(profile: SpiderProfile) -> Tree:
    """One-center tree: vertex 0 is the hub, branches laid out longest first."""
    return _lay_out((profile.lengths,))


def make_double_spider(profile: DoubleSpiderProfile) -> Tree:
    """Two-center tree: vertex 0 = u, vertex 1 = v, then branches outward."""
    return _lay_out((profile.a_lengths, profile.b_lengths))


# ---------------------------- recognizers -----------------------------


def _side_arm_lengths(t: Tree, root: int, banned: int = -1) -> tuple[int, ...]:
    """Arm lengths from root, longest first, on root's side of its edge to `banned`.

    Each vertex but the root extends its tallest child's arm by one edge
    and ends the other children's; the root ends them all.  A child's arm
    ends as its height plus one, so one pass over the preorder suffices.
    On a spider from its hub, or a double spider from a hub with the
    other banned, the arms are the branches.
    """
    order, parent, _ = t._preorder(root, banned)
    height = [0] * t.n
    arms = []
    for v in reversed(order[1:]):
        p, h = parent[v], height[v] + 1
        if p != root and h > height[p]:
            h, height[p] = height[p], h
        if h:
            arms.append(h)
    return tuple(sorted(arms, reverse=True))


def recognize_spider(t: Tree) -> Optional[SpiderProfile]:
    """Profile of t if it has at most one vertex of degree >= 3, else None.

    A path of diameter d >= 2 reports as the 2-branch profile
    (ceil(d/2), floor(d/2)); the single edge has no valid profile and
    reports None.
    """
    hubs = t._hubs
    if len(hubs) > 1:
        return None
    if not hubs:
        d = t.n - 1
        if d < 2:
            return None
        return SpiderProfile(((d + 1) // 2, d // 2))
    return SpiderProfile(_side_arm_lengths(t, hubs[0]))


def recognize_double_spider(t: Tree) -> Optional[DoubleSpiderProfile]:
    """Profile of t if it has exactly two vertices of degree >= 3, adjacent, else None.

    Each side lists the arms from its branch vertex away from the other.
    A tree with at most one branch vertex is a spider or a path, which
    recognize_spider reports, and reports None here.
    """
    hubs = t._hubs
    if len(hubs) != 2 or hubs[1] not in t.adjacency[hubs[0]]:
        return None
    u, v = hubs
    return DoubleSpiderProfile(_side_arm_lengths(t, u, v), _side_arm_lengths(t, v, u))


# --------------------------- canonical code ---------------------------


def _rooted_code(t: Tree, root: int, banned: int) -> bytes:
    """AHU code of the subtree at root, not crossing the vertex `banned`.

    Children are sorted by code, so the result is invariant under
    relabeling.  Reversed preorder codes a vertex after its children and
    files it among its parent's, the root (its own parent) last, with no
    recursion to overflow on long CLI-constructed paths.
    """
    order, parent, _ = t._preorder(root, banned)
    kids: list[list[bytes]] = [[] for _ in parent]
    for v in reversed(order):
        kids[v].sort()
        kids[parent[v]].append(b"(%b)" % b"".join(kids[v]))
    return kids[root][-1]


def canonical_code(t: Tree) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic trees.

    Rooted at the tree center; the one- and two-center cases carry
    distinct prefixes so that a code never collides across the two
    shapes.
    """
    centers = t._sweep[1]
    if len(centers) == 1:
        return b"1" + _rooted_code(t, centers[0], -1)
    a, b = centers
    ca = _rooted_code(t, a, b)
    cb = _rooted_code(t, b, a)
    lo, hi = sorted((ca, cb))
    return b"2" + lo + hi


# ----------------------------- enumeration ----------------------------


def _rooted_codes(size: int, height: int, memo: dict[tuple[int, int], tuple[bytes, ...]]) -> tuple[bytes, ...]:
    """AHU codes of the rooted trees with `size` vertices and height <= height, ascending.

    Each is its smallest-code root subtree a hung from the root of the rest b, b"(" + a + b[1:];
    as no code is a proper prefix of another, a <= b[1:] iff a is at most b's first child.
    """
    if height < 0:
        return ()
    if size == 1:
        return (b"()",)
    if (size, height) not in memo:
        memo[size, height] = tuple(sorted(
            b"(" + a + b[1:]
            for k in range(1, size)
            for a in _rooted_codes(k, height - 1, memo)
            for b in _rooted_codes(size - k, height, memo)
            if a <= b[1:]
        ))
    return memo[size, height]


def _center_codes(n: int, d: int) -> list[bytes]:
    """Canonical codes of the trees of order n and diameter d, ascending.

    d = 2r+1: b"2" + a + b for the sides a <= b of the central edge, both of height r.
    d = 2r: b"1(" + a + b[1:] for the center's first child a (height r-1) cut from the rest b
    (height r).  A tallest child comes first, so a code of height h opens with h+1 brackets
    and sorts below every lower code: a <= b[cut:] pins a to its height.  No code is a proper
    prefix of another, so a ascending over every size, each with its rests ascending, is
    ascending with no sort; the strict-ascent check proves the codes distinct too.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    memo: dict[tuple[int, int], tuple[bytes, ...]] = {}
    r, odd = divmod(d, 2)
    head, cut = (b"2", 0) if odd else (b"1(", 1)
    firsts, rests = [], {}
    for k in range(r + odd, n - r):  # a tree of height h has h+1 vertices or more
        firsts += ((a, k) for a in _rooted_codes(k, r - 1 + odd, memo))
        rests[k] = [b[cut:] for b in _rooted_codes(n - k, r, memo) if b.startswith(b"(" * (r + 1))]
    codes = [head + a + b for a, k in sorted(firsts) for b in rests[k] if a <= b]
    if any(x >= y for x, y in zip(codes, codes[1:])):
        raise RuntimeError(f"tree generator emitted codes out of order or twice at n={n}, d={d}")
    return codes


# ------------------------- parsing and rendering ------------------------


_SHORTHAND_RE = re.compile(r"^(path|spider|ds|as):([0-9,/]+)$")


def parse_tree(text: str) -> Tree:
    """Tree from shorthand: path:L, spider:3,2,1, ds:2,1/2, as:r,q,c,t."""
    m = _SHORTHAND_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"unrecognized tree shorthand {text!r}; expected path:L, "
            "spider:L1,L2,..., ds:A1,../B1,.., or as:r,q,c,t"
        )
    kind, body = m.groups()
    try:
        if kind == "path":
            return make_path(int(body))
        if kind == "spider":
            return make_spider(SpiderProfile(tuple(int(x) for x in body.split(","))))
        if kind == "ds":
            a_part, b_part = body.split("/")
            return make_double_spider(
                DoubleSpiderProfile(
                    tuple(int(x) for x in a_part.split(",")),
                    tuple(int(x) for x in b_part.split(",")),
                )
            )
        r, q, c, t = (int(x) for x in body.split(","))
        if min(r, q, c) < 1 or not 0 <= t < q:  # _as_profile checks the lengths against r
            raise ValueError("need r, q, c >= 1 and 0 <= t < q")
        return make_spider(_as_profile(r, q, q * c + t))
    except ValueError as exc:
        raise ValueError(f"bad tree shorthand {text!r}: {exc}") from exc


def parse_tree_text(text: str) -> Tree:
    """Tree from the edge-list format: first line n, then n-1 lines 'u v'."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty tree description")
    try:  # a line's token count, then its integers, line by line: the first fault in input order is reported
        n = int(lines[0])
        edges = tuple([(int(u), int(v)) for u, v in map(str.split, lines[1:])])
    except ValueError as exc:
        raise ValueError(f"bad tree file: {exc}") from exc
    return Tree(n, edges)


def format_tree_text(t: Tree) -> str:
    """Inverse of parse_tree_text."""
    return "\n".join([str(t.n)] + [f"{u} {v}" for u, v in t.edges]) + "\n"


def _runs(lengths: tuple[int, ...], start: int = 0) -> Iterator[tuple[int, int]]:
    """(length, count) per run of equal lengths from index start on, of lengths sorted longest first; ends bisected."""
    while start < len(lengths):
        end = bisect_right(lengths, -lengths[start], start, key=neg)
        yield lengths[start], end - start
        start = end


def _runs_text(runs: Iterable[tuple[int, int]]) -> str:
    """The lengths of (length, count) runs comma-separated, written as one repeated string per run."""
    return "".join([f"{l}," * k for l, k in runs])[:-1]


def _spider_shorthand(p: SpiderProfile) -> str:
    """Shorthand of make_spider(p), read off the profile: a path when it has two branches."""
    return f"path:{p.diameter}" if len(p.lengths) == 2 else "spider:" + _runs_text(_runs(p.lengths))


def _as_shorthand(r: int, q: int, M: int) -> str:
    """_spider_shorthand(_as_profile(r, q, M)), written from the AS runs with no branch tuple."""
    return "spider:" + _runs_text(_as_runs(r, q, M))


def _lone_side_spider(p: DoubleSpiderProfile) -> Optional[SpiderProfile]:
    """The spider that p is when a side has one branch: with the central edge that branch is one longer."""
    for lone, hub in ((p.b_lengths, p.a_lengths), (p.a_lengths, p.b_lengths)):
        if len(lone) == 1:
            return SpiderProfile(hub + (lone[0] + 1,))
    return None


def _double_spider_shorthand(p: DoubleSpiderProfile) -> str:
    """Shorthand of make_double_spider(p), read off the profile: a spider or path when a side has one branch."""
    spider = _lone_side_spider(p)
    if spider is not None:
        return _spider_shorthand(spider)
    return f"ds:{_runs_text(_runs(p.a_lengths))}/{_runs_text(_runs(p.b_lengths))}"


def render_shorthand(t: Tree) -> Optional[str]:
    """Most specific shorthand describing t, or None for other shapes."""
    if not t._hubs:
        return f"path:{t.n - 1}"
    spider = recognize_spider(t)
    if spider is not None:
        return _spider_shorthand(spider)
    ds = recognize_double_spider(t)
    return None if ds is None else _double_spider_shorthand(ds)
