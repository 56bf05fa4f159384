"""Constructive moves that push lambda_2 upward at fixed order and diameter.

Three mechanisms: replacing an odd-diameter tree by the double spider
that dominates it edge-for-edge (its sides read by the arm walk the
recognizers use), transferring a branch between the two hubs of a double
spider, and balancing a spider's side branch lengths.  Each move
maps (profile, root) to (profile, root): the root passed in must be the
profile's own (rho = 1/lambda_2 for a double spider, lambda_2 for a
spider), and only the result's root is solved.  One check guards every
move: it raises only on a decrease of lambda_2 that exact signs of the
two root equations certify.  greedy_ascent_trace chains these moves from
any odd-diameter tree to an almost seesaw tree, so each profile on the
way is priced by its own root, solved once; the result must reach the
input's lambda_2 within classify's relative tie band.
"""

from __future__ import annotations

from numbers import Rational

from .classify import _TIE_RTOL
from .roots import _double_spider_equation, _pole_sum, _resolvent_sum, _spider_terms, double_spider_rho, spider_lambda2
from .spectral import lambda2_numeric
from .trees import DoubleSpiderProfile, SpiderProfile, Tree, _lone_side_spider, _side_arm_lengths, diameter

Profile = SpiderProfile | DoubleSpiderProfile


def _equation(p: Profile, x: Rational) -> Rational:
    if isinstance(p, SpiderProfile):
        return _pole_sum(_spider_terms(p.lengths), x)
    return _double_spider_equation(p, x)


def _checked_root(before: Profile, x_before: float, after: Profile) -> float:
    """Root of `after` (lambda_2, or rho = 1/lambda_2 for a double spider), checked against `before`'s.

    Both equations increase on a bracket that the moves share: (r, inf) in
    rho for arm transfers, (1/(r+1), 1/r) for side steps.  Roots that tie
    or order as an increase pass; otherwise both equations' exact signs
    midway between the roots decide, and only a certified decrease raises.
    """
    spider = isinstance(after, SpiderProfile)
    x_after = spider_lambda2(after) if spider else double_spider_rho(after)
    down = 1 if spider else -1  # lambda_2 falls with a spider's root, rises with rho
    if down * (x_before - x_after) > 0:
        from fractions import Fraction  # only this rare path needs it; importing it costs every command ~3 ms
        mid = (Fraction(x_before) + Fraction(x_after)) / 2
        if down * _equation(after, mid) > 0 > down * _equation(before, mid):
            raise RuntimeError(f"move lowers lambda_2: {before} -> {after}")
    return x_after


# --------------------------- domination -------------------------------


def dominating_double_spider(t: Tree) -> DoubleSpiderProfile:
    """Double spider whose lambda_2 dominates that of t, at equal (n, D).

    The edge between the two tree centers, which every diameter path
    crosses in its middle, splits t into two depth-r halves; each half's
    arms, each vertex extending its tallest child's, yield one pendant
    path per boundary leaf.  Equality of the two lambda_2 values forces
    t to be a double spider already.
    """
    d, centers = t._sweep
    if d % 2 == 0:
        raise ValueError(f"diameter {d} is even; the two-sided split needs an odd diameter")
    if d < 3:
        raise ValueError("a single edge has no central structure to split")
    r = (d - 1) // 2
    u, v = centers

    # The profile canonicalizes its sides, so naming the centers is free.
    profile = DoubleSpiderProfile(_side_arm_lengths(t, u, v), _side_arm_lengths(t, v, u))
    if profile.a_lengths[0] != r or profile.b_lengths[0] != r or profile.order != t.n:
        raise RuntimeError(f"double spider {profile} lacks radius {r} on both sides or order {t.n}")
    return profile


# --------------------------- arm transfer ------------------------------


def arm_transfer(p: DoubleSpiderProfile, rho: float, k: int = 2) -> tuple[DoubleSpiderProfile, float]:
    """Move the k-th branch of the spectrally lighter side to the other; the result with its rho.

    rho must be p's own root, double_spider_rho(p) = 1/lambda_2.
    The donor is the side whose resolvent sum at rho is smaller (ties
    donate from the b-side); it must keep its principal branch, so k
    starts at 2 and the donor needs at least two branches.  The result's
    root is solved once and checked against rho by _checked_root.
    """
    a_sum = _resolvent_sum(p.a_lengths, rho)
    b_sum = _resolvent_sum(p.b_lengths, rho)
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
    return result, _checked_root(p, rho, result)


# -------------------------- balancing moves ----------------------------


def balance_side_step(p: SpiderProfile, lam: float) -> tuple[SpiderProfile, float]:
    """Shift one vertex from the longest side branch to the shortest; the result with its lambda_2.

    lam must be p's own root, spider_lambda2(p).  Requires
    principal branches exactly (r+1, r) and a side pair differing by at
    least 2; then (u, v) -> (u - 1, v + 1) strictly increases lambda_2,
    keeping order and diameter.
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

    result = SpiderProfile((r + 1, r, u - 1) + sides[1:-1] + (v + 1,))
    if result.order != p.order or result.diameter != p.diameter:
        raise RuntimeError(f"side balance changed order or diameter: {p} -> {result}")
    return result, _checked_root(p, lam, result)


# --------------------------- greedy ascent -----------------------------


def greedy_ascent_trace(t: Tree) -> tuple[tuple[str, Tree | Profile, float], ...]:
    """Walk t up to an almost seesaw tree: every step as (move, shape, lambda_2), "input" to "result".

    Dominate by a double spider, drain the lighter hub one branch at a
    time, then balance the resulting spider's sides to within one unit;
    the walk is bounded by n^2 moves.  The input is priced by
    lambda2_numeric, every later shape is the profile a move produced,
    priced by its own root, solved once; each move passes _checked_root,
    and the final comparison against the input's lambda_2 guards the
    whole chain.
    """
    d = diameter(t)
    if d % 2 == 0:
        raise ValueError(f"diameter {d} is even; ascent is defined for odd diameters")
    trace: list[tuple[str, Tree | Profile, float]] = [("input", t, lambda2_numeric(t))]
    if d < 3:
        return (trace[0], ("result", t, trace[0][2]))

    profile = dominating_double_spider(t)
    rho = double_spider_rho(profile)
    trace.append(("dominate", profile, 1.0 / rho))
    budget = t.n * t.n
    while len(profile.a_lengths) >= 2 and len(profile.b_lengths) >= 2:
        profile, rho = arm_transfer(profile, rho)
        trace.append(("arm_transfer", profile, 1.0 / rho))
        if len(trace) > budget:
            raise RuntimeError(f"ascent exceeded its budget of {budget} moves")

    spider = _lone_side_spider(profile)
    lam = spider_lambda2(spider)
    while len(spider.lengths) >= 4 and spider.lengths[2] >= spider.lengths[-1] + 2:
        spider, lam = balance_side_step(spider, lam)
        trace.append(("balance_side", spider, lam))  # ends: each step lowers the sum of squared sides

    trace.append(("result", spider, lam))
    x_in = trace[0][2]
    if not x_in - lam <= _TIE_RTOL * x_in:  # written as a failed <=, so that a NaN fails too
        raise RuntimeError(f"ascent lost ground: lambda_2 fell from {x_in} to {lam}")
    return tuple(trace)
