"""Constructive moves that push lambda_2 upward at fixed order and diameter.

Three mechanisms: replacing an odd-diameter tree by the double spider
that dominates it edge-for-edge, transferring a branch between the two
hubs of a double spider, and the two balancing moves on spider branch
lengths.  Each move checks the strict spectral increase it promises;
chaining them in greedy_ascent walks any odd-diameter tree to an almost
seesaw tree without ever decreasing lambda_2.
"""

from __future__ import annotations

from .roots import _resolvent_sum, double_spider_rho, spider_lambda2
from .spectral import lambda2_numeric
from .trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    diameter,
    make_double_spider,
    make_spider,
    tree_centers,
)

# Every move must beat its input by at least this much.
_INCREASE_MARGIN = 1e-10

# Slack allowed in the domination inequality when checked numerically.
_DOMINATION_SLACK = 1e-9


# --------------------------- domination -------------------------------


def _side_arm_lengths(t: Tree, root: int, banned: int) -> tuple[int, ...]:
    """Arm lengths of the component of `root` once the edge to `banned` is cut.

    Each edge of the component is charged to the deepest boundary leaf
    below it (lowest vertex id on ties); the arm length of a leaf is the
    number of edges charged to it.  Every charged leaf lies on the path
    from the root through its edges, so arms never exceed the depth.
    """
    order, parent, depth = t._preorder(root, banned)
    # best[v] = (-depth, id) of the deepest leaf in the subtree of v.
    best: dict[int, tuple[int, int]] = {}
    arms: dict[int, int] = {}
    for v in reversed(order):
        if v == root:
            continue
        key = (-depth[v], v) if t.degrees[v] == 1 else None
        for w in t.adjacency[v]:
            if w in best and parent[w] == v:
                if key is None or best[w] < key:
                    key = best[w]
        if key is None:
            raise RuntimeError(f"vertex {v} has no boundary leaf below it")
        best[v] = key
        arms[key[1]] = arms.get(key[1], 0) + 1
    return tuple(sorted(arms.values(), reverse=True))


def dominating_double_spider(t: Tree) -> DoubleSpiderProfile:
    """Double spider whose lambda_2 dominates that of t, at equal (n, D).

    The edge between the two tree centers, which every diameter path
    crosses in its middle, splits t into two depth-r halves; charging
    each half's edges to deepest leaves yields one pendant path per
    boundary leaf.  Equality of the two lambda_2 values forces t to be
    a double spider already.
    """
    d = diameter(t)
    if d % 2 == 0:
        raise ValueError(f"diameter {d} is even; the two-sided split needs an odd diameter")
    if d < 3:
        raise ValueError("a single edge has no central structure to split")
    r = (d - 1) // 2
    u, v = tree_centers(t)

    # The profile canonicalizes its sides, so naming the centers is free.
    profile = DoubleSpiderProfile(_side_arm_lengths(t, u, v), _side_arm_lengths(t, v, u))
    if profile.a_lengths[0] != r or profile.b_lengths[0] != r or profile.order != t.n:
        raise RuntimeError(f"double spider {profile} lacks radius {r} on both sides or order {t.n}")
    return profile


# --------------------------- arm transfer ------------------------------


def arm_transfer(p: DoubleSpiderProfile, k: int = 2) -> DoubleSpiderProfile:
    """Move the k-th branch of the spectrally lighter side to the other.

    The donor is the side whose resolvent sum at rho = 1/lambda_2 is
    smaller (ties donate from the b-side); it must keep its principal
    branch, so k starts at 2 and the donor needs at least two branches.
    The strict lambda_2 increase is checked numerically.
    """
    rho_old = double_spider_rho(p).value
    a_sum = _resolvent_sum(p.a_lengths, rho_old)
    b_sum = _resolvent_sum(p.b_lengths, rho_old)
    if a_sum < b_sum:
        donor, receiver = p.a_lengths, p.b_lengths
    else:
        donor, receiver = p.b_lengths, p.a_lengths

    if len(donor) < 2:
        raise ValueError(f"donor side {donor} has a single branch; nothing movable")
    if not 2 <= k <= len(donor):
        raise ValueError(f"branch index {k} out of range 2..{len(donor)}")

    moved = donor[k - 1]
    result = DoubleSpiderProfile(receiver + (moved,), donor[: k - 1] + donor[k:])
    principals = (result.a_lengths[0], result.b_lengths[0])
    if result.order != p.order or principals != (p.a_lengths[0], p.b_lengths[0]):
        raise RuntimeError(f"arm transfer changed order or principal branches: {p} -> {result}")
    rho_new = double_spider_rho(result).value
    if 1.0 / rho_new - 1.0 / rho_old <= _INCREASE_MARGIN:
        raise RuntimeError(f"arm transfer failed to increase lambda_2: {p} -> {result}")
    return result


# -------------------------- balancing moves ----------------------------


def balance_main_step(p: SpiderProfile) -> SpiderProfile:
    """Shift one vertex from the longest branch to the second longest.

    Requires l1 >= l2 + 2 with l1 + l2 odd and at least three branches
    (side branches never exceed l2 in a sorted profile); then
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

    before = spider_lambda2(p).value
    result = SpiderProfile((l1 - 1, l2 + 1) + sides)
    if result.order != p.order or result.diameter != p.diameter:
        raise RuntimeError(f"main balance changed order or diameter: {p} -> {result}")
    after = spider_lambda2(result).value
    if after - before <= _INCREASE_MARGIN:
        raise RuntimeError(f"main balance failed to increase lambda_2: {p} -> {result}")
    return result


def balance_side_step(p: SpiderProfile) -> SpiderProfile:
    """Shift one vertex from the longest side branch to the shortest.

    Requires principal branches exactly (r+1, r) and a side pair
    differing by at least 2; then (u, v) -> (u - 1, v + 1) strictly
    increases lambda_2, keeping order and diameter.
    """
    r = p.lengths[1]
    if p.lengths[0] != r + 1:
        raise ValueError(f"principal branches must be (r+1, r), got {p.lengths[:2]}")
    sides = p.lengths[2:]
    if len(sides) < 2:
        raise ValueError("move needs two side branches")
    u, v = sides[0], sides[-1]
    if u < v + 2:
        raise ValueError(f"no side pair differs by 2: sides {sides}")

    before = spider_lambda2(p).value
    result = SpiderProfile((r + 1, r, u - 1) + sides[1:-1] + (v + 1,))
    if result.order != p.order or result.diameter != p.diameter:
        raise RuntimeError(f"side balance changed order or diameter: {p} -> {result}")
    after = spider_lambda2(result).value
    if after - before <= _INCREASE_MARGIN:
        raise RuntimeError(f"side balance failed to increase lambda_2: {p} -> {result}")
    return result


# --------------------------- greedy ascent -----------------------------


def _spider_from_one_sided(p: DoubleSpiderProfile) -> SpiderProfile:
    """Collapse a double spider whose b-side is a single branch.

    The lone b-branch plus the central edge form one branch of length
    r+1 hanging off the a-hub, so the tree is the spider (r+1, a-side).
    Side canonicalization guarantees the single side is the b-side.
    """
    if len(p.b_lengths) != 1:
        raise RuntimeError(f"double spider {p} is not one-sided")
    return SpiderProfile((p.b_lengths[0] + 1,) + p.a_lengths)


def greedy_ascent_trace(t: Tree) -> tuple[tuple[str, Tree], ...]:
    """Every intermediate tree of the ascent, labeled by the move taken.

    Starts at ("input", t) and ends at the almost seesaw fixpoint; the
    final comparison against the input's lambda_2 guards the whole chain.
    """
    d = diameter(t)
    if d % 2 == 0:
        raise ValueError(f"diameter {d} is even; ascent is defined for odd diameters")
    if d < 3:
        return (("input", t), ("result", t))

    trace: list[tuple[str, Tree]] = [("input", t)]
    profile = dominating_double_spider(t)
    trace.append(("dominate", make_double_spider(profile)))
    budget = t.n * t.n
    while len(profile.a_lengths) >= 2 and len(profile.b_lengths) >= 2:
        profile = arm_transfer(profile, 2)
        trace.append(("arm_transfer", make_double_spider(profile)))
        if len(trace) > budget:
            raise RuntimeError(f"ascent exceeded its budget of {budget} moves")

    spider = _spider_from_one_sided(profile)
    while True:
        l1, l2 = spider.lengths[0], spider.lengths[1]
        sides = spider.lengths[2:]
        if sides and l1 >= l2 + 2 and (l1 + l2) % 2 == 1:
            spider = balance_main_step(spider)
            trace.append(("balance_main", make_spider(spider)))
        elif len(sides) >= 2 and l1 == l2 + 1 and sides[0] >= sides[-1] + 2:
            spider = balance_side_step(spider)
            trace.append(("balance_side", make_spider(spider)))
        else:
            break
        if len(trace) > budget:
            raise RuntimeError(f"ascent exceeded its budget of {budget} moves")

    trace.append(("result", make_spider(spider)))
    low, high = lambda2_numeric(t), lambda2_numeric(trace[-1][1])
    if low > high + _DOMINATION_SLACK:
        raise RuntimeError(f"ascent lost ground: lambda_2 fell from {low} to {high}")
    return tuple(trace)


def greedy_ascent(t: Tree) -> Tree:
    """Walk t upward to an almost seesaw tree of the same order and diameter.

    Dominate by a double spider, drain the lighter hub one branch at a
    time, then balance the resulting spider's sides to within one unit.
    Every step weakly increases lambda_2 (strictly after domination),
    and the walk is bounded by n^2 moves.
    """
    return greedy_ascent_trace(t)[-1][1]
