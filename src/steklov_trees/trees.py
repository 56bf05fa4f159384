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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

Edge = tuple[int, int]


# ------------------------------ core type ------------------------------


@dataclass(frozen=True)
class Tree:
    """Finite unweighted tree on vertices {0..n-1}.

    Invariants checked on construction: exactly n-1 edges, no self-loops,
    no repeated edges, connected.  Edges are normalized to (min, max) and
    sorted, so two Tree objects are equal iff they are the same labeled
    tree.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"tree needs at least 2 vertices, got n={self.n}")
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        if len(normalized) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} edges, got {len(normalized)}")
        if len(set(normalized)) != len(normalized):
            raise ValueError("repeated edge")
        object.__setattr__(self, "edges", tuple(normalized))
        if len(self._preorder(0)[0]) != self.n:
            raise ValueError("edge list is not connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each sorted ascending."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def _preorder(self, root: int, banned: int = -1) -> tuple[list[int], list[int], list[int]]:
        """Depth-first preorder from root, with every vertex's parent and depth.

        The walk never enters `banned`, so with a neighbor of the root it
        covers the root's side of their edge; vertices off the walk keep
        parent and depth -1.  The root is its own parent.
        """
        parent, depth = [-1] * self.n, [-1] * self.n
        parent[root], depth[root] = root, 0
        order, stack = [], [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in self.adjacency[x]:
                if depth[y] < 0 and y != banned:
                    parent[y], depth[y] = x, depth[x] + 1
                    stack.append(y)
        return order, parent, depth


def leaf_set(t: Tree) -> list[int]:
    """All degree-1 vertices, ascending.  For n=2 both vertices are leaves."""
    return [v for v in range(t.n) if t.degrees[v] == 1]


def _double_sweep(t: Tree) -> tuple[int, list[int]]:
    """Diameter and center(s), the middle of a longest path, by a double sweep: in a tree depth is distance."""
    d0 = t._preorder(0)[2]
    far = max(range(t.n), key=lambda v: (d0[v], -v))
    _, parent, depth = t._preorder(far)
    end = max(range(t.n), key=lambda v: (depth[v], -v))
    mid = end
    for _ in range(depth[end] // 2):
        mid = parent[mid]
    return depth[end], sorted({mid, parent[mid]} if depth[end] % 2 else {mid})


def diameter(t: Tree) -> int:
    """Longest path length in edges, by a double sweep."""
    return _double_sweep(t)[0]


def tree_centers(t: Tree) -> list[int]:
    """The one or two middle vertices of a longest path, ascending."""
    return _double_sweep(t)[1]


# ------------------------------ profiles ------------------------------


@dataclass(frozen=True)
class SpiderProfile:
    """Branch-length multiset of a one-center tree, stored longest first."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lengths) < 2:
            raise ValueError("spider needs at least 2 branches")
        if min(self.lengths) < 1:
            raise ValueError(f"branch lengths must be >= 1, got {self.lengths}")
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))

    @property
    def order(self) -> int:
        return 1 + sum(self.lengths)

    @property
    def diameter(self) -> int:
        return self.lengths[0] + self.lengths[1]


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
        lateral = (self.c + 1,) * self.t + (self.c,) * (self.q - self.t)
        return SpiderProfile((self.r + 1, self.r) + lateral)


@dataclass(frozen=True)
class DoubleSpiderProfile:
    """Two adjacent centers u, v carrying disjoint pendant paths.

    Sides are stored longest-first and ordered so that the a-side is the
    lexicographically larger tuple; DS(x;y) and DS(y;x) are the same
    unlabeled tree, so the constructor canonicalizes.
    """

    a_lengths: tuple[int, ...]
    b_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.a_lengths or not self.b_lengths:
            raise ValueError("double spider needs a nonempty branch list on each side")
        if min(self.a_lengths + self.b_lengths) < 1:
            raise ValueError("branch lengths must be >= 1")
        a = tuple(sorted(self.a_lengths, reverse=True))
        b = tuple(sorted(self.b_lengths, reverse=True))
        if a < b:
            a, b = b, a
        object.__setattr__(self, "a_lengths", a)
        object.__setattr__(self, "b_lengths", b)

    @property
    def order(self) -> int:
        return 2 + sum(self.a_lengths) + sum(self.b_lengths)

    @property
    def diameter(self) -> int:
        return self.a_lengths[0] + self.b_lengths[0] + 1


# ---------------------------- constructors ----------------------------


def make_path(length: int) -> Tree:
    """Path with `length` edges (so diameter length), labeled 0..length."""
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    return Tree(length + 1, tuple((i, i + 1) for i in range(length)))


def make_spider(profile: SpiderProfile) -> Tree:
    """One-center tree: vertex 0 is the hub, branches laid out longest first."""
    edges = []
    nxt = 1
    for length in profile.lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


def make_as_tree(p: ASParams) -> Tree:
    """Generalized almost seesaw tree, as the spider it abbreviates."""
    return make_spider(p.spider_profile())


def make_double_spider(profile: DoubleSpiderProfile) -> Tree:
    """Two-center tree: vertex 0 = u, vertex 1 = v, then branches outward."""
    edges = [(0, 1)]
    nxt = 2
    for root, lengths in ((0, profile.a_lengths), (1, profile.b_lengths)):
        for length in lengths:
            prev = root
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return Tree(nxt, tuple(edges))


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
    hubs = [v for v in range(t.n) if t.degrees[v] >= 3]
    if len(hubs) > 1:
        return None
    if not hubs:
        d = t.n - 1
        if d < 2:
            return None
        return SpiderProfile(((d + 1) // 2, d // 2))
    return SpiderProfile(_side_arm_lengths(t, hubs[0]))


def recognize_double_spider(t: Tree) -> Optional[DoubleSpiderProfile]:
    """Profile of t if all branching sits on two adjacent vertices.

    Trees with at most one branch vertex qualify too, split along a
    longest branch; stars and paths with fewer than 3 edges do not admit
    two nonempty sides and report None.
    """
    hubs = [v for v in range(t.n) if t.degrees[v] >= 3]
    if len(hubs) > 2:
        return None
    if len(hubs) == 2:
        u, v = hubs
        if v not in t.adjacency[u]:
            return None
        return DoubleSpiderProfile(_side_arm_lengths(t, u, v), _side_arm_lengths(t, v, u))
    if len(hubs) == 1:
        lengths = _side_arm_lengths(t, hubs[0])
        if lengths[0] < 2:
            return None  # star: the split would leave an empty side
        return DoubleSpiderProfile(lengths[1:], (lengths[0] - 1,))
    d = t.n - 1
    if d < 3:
        return None
    return DoubleSpiderProfile((d // 2,), ((d - 1) // 2,))


# --------------------------- canonical code ---------------------------


def _rooted_code(t: Tree, root: int, banned: int) -> bytes:
    """AHU code of the subtree at root, not crossing the vertex `banned`.

    Children are sorted by code, so the result is invariant under
    relabeling.  Reversed preorder codes every child before its parent,
    with no recursion to overflow on long CLI-constructed paths.
    """
    order, parent, _ = t._preorder(root, banned)
    code: dict[int, bytes] = {}
    for v in reversed(order):
        kids = sorted(code[w] for w in t.adjacency[v] if parent[w] == v)
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def canonical_code(t: Tree) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic trees.

    Rooted at the tree center; the one- and two-center cases carry
    distinct prefixes so that a code never collides across the two
    shapes.
    """
    centers = tree_centers(t)
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
    and sorts below every lower code: a <= b[cut:] pins a to its height.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    memo: dict[tuple[int, int], tuple[bytes, ...]] = {}
    r, odd = divmod(d, 2)
    head, cut = (b"2", 0) if odd else (b"1(", 1)
    codes = sorted(
        head + a + b[cut:]
        for k in range(r + odd, n - r)  # a tree of height h has h+1 vertices or more
        for b in _rooted_codes(n - k, r, memo)
        if b.startswith(b"(" * (r + 1))
        for a in _rooted_codes(k, r - 1 + odd, memo)
        if a <= b[cut:]
    )
    if len(set(codes)) != len(codes):
        raise RuntimeError(f"tree generator emitted isomorphic duplicates at n={n}, d={d}")
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
        return make_as_tree(ASParams(r, q, c, t))
    except ValueError as exc:
        raise ValueError(f"bad tree shorthand {text!r}: {exc}") from exc


def parse_tree_text(text: str) -> Tree:
    """Tree from the edge-list format: first line n, then n-1 lines 'u v'."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty tree description")
    try:
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError as exc:
        raise ValueError(f"bad tree file: {exc}") from exc
    return Tree(n, tuple(edges))


def format_tree_text(t: Tree) -> str:
    """Inverse of parse_tree_text."""
    return "\n".join([str(t.n)] + [f"{u} {v}" for u, v in t.edges]) + "\n"


def _spider_shorthand(p: SpiderProfile) -> str:
    """Shorthand of make_spider(p), read off the profile: a path when it has two branches."""
    return f"path:{p.diameter}" if len(p.lengths) == 2 else "spider:" + ",".join(str(l) for l in p.lengths)


def _double_spider_shorthand(p: DoubleSpiderProfile) -> str:
    """Shorthand of make_double_spider(p), read off the profile: a spider or path when a side has one branch."""
    for lone, hub in ((p.b_lengths, p.a_lengths), (p.a_lengths, p.b_lengths)):
        if len(lone) == 1:
            return _spider_shorthand(SpiderProfile(hub + (lone[0] + 1,)))
    return "ds:" + ",".join(str(l) for l in p.a_lengths) + "/" + ",".join(str(l) for l in p.b_lengths)


def render_shorthand(t: Tree) -> Optional[str]:
    """Most specific shorthand describing t, or None for other shapes."""
    if all(deg <= 2 for deg in t.degrees):
        return f"path:{t.n - 1}"
    spider = recognize_spider(t)
    if spider is not None:
        return _spider_shorthand(spider)
    ds = recognize_double_spider(t)
    return None if ds is None else _double_spider_shorthand(ds)
