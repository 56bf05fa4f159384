"""Scalar root equations behind the spider and double-spider spectra.

Every lambda_2 that this package certifies against matrix computations
also satisfies a one-variable equation: the spider equation F(lambda),
its balanced-family form Phi_{r,M}, the two-sided resolvent equation for
double spiders, and the threshold quadratic that orders the two
balanced candidates.  The one-center equations are all the pole sum
sum_i w_i/(1 - l_i lambda) with grouped weights, evaluated by one
helper.  Each equation is strictly increasing on an explicit bracket
whose endpoints are poles, so the one solver is bisection down to two
adjacent floats, or to a midpoint on a pole a few ulps from an end,
with no tolerance and never touching the endpoints, run on one root or
elementwise over a stacked table of balanced-family roots; that monotonicity is a property test, not a runtime check.  On
one root it skips, bit for bit, each midpoint whose sign the monotone
float equation and a Newton estimate already fix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .trees import DoubleSpiderProfile, SpiderProfile


@dataclass(frozen=True)
class ThresholdData:
    """Which of the two balanced candidates wins, for given (r, t).

    regime A_always / B_always means one candidate dominates for every
    branch count k; regime threshold carries the crossover data: zeta is
    the root of the comparison quadratic in (1/(r+1), 1/r) and kappa the
    critical branch count, with ties possible only at integer kappa.
    """

    r: int
    s: int
    t: int
    regime: str
    zeta: float | None
    kappa: float | None


# ----------------------------- bisection ------------------------------


# _bisect evaluates every midpoint this many ulps or fewer from an endpoint:
# within three ulps of fl(1/l), 1 - fl(l * x) can be zero or of either sign.
_POLE_ULPS = 4

_NEWTON_PASSES = 30  # cap on an estimate's Newton passes; about four converge


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, estimate: Callable[[], float] | None = None
) -> float:
    """Unique zero of a strictly increasing f on (lo, hi).

    The endpoints are typically poles of f and are never evaluated, nor
    is monotonicity: the callers' equations are property-tested to be
    increasing on their brackets.  Halves until no float is left strictly
    inside the bracket, so it ends on two adjacent floats across which f
    changes sign and returns the one it reached last: the root to one
    ulp, with no tolerance to scale.  A midpoint where f divides by zero,
    which only a bracket of a few floats allows, is returned as it is: it
    lies within a few ulps of a pole that bounds the whole bracket left.

    An estimate only saves evaluations; it is computed only if the
    bracket has floats more than _POLE_ULPS ulps inside both endpoints.
    Walking out from it finds the innermost points with f <= 0 and
    f > 0, and a midpoint outside them takes the sign they imply.  This
    is exact if f's float evaluation is non-decreasing more than
    _POLE_ULPS ulps inside the endpoints, as the callers' is: IEEE
    operations monotone in the unknown there (l*x, 1 - y, w/d with d of
    fixed sign, sums, 1/A with A > 0) under monotone rounding.
    Midpoints nearer an endpoint are always evaluated.  So midpoints,
    stop and value are plain bisection's bit for bit; a NaN,
    out-of-bracket or dividing-by-zero estimate gives plain bisection.
    """
    inner_lo, inner_hi = lo + _POLE_ULPS * math.ulp(lo), hi - _POLE_ULPS * math.ulp(hi)
    try:
        guess = estimate() if estimate is not None and inner_lo < inner_hi else math.nan
    except ZeroDivisionError:  # a Newton step that lands on a pole
        guess = math.nan
    seen = _walk_out(f, guess, inner_lo, inner_hi) if inner_lo < guess < inner_hi else {}
    below = max((x for x, y in seen.items() if y <= 0.0), default=lo)
    above = min((x for x, y in seen.items() if y > 0.0), default=hi)
    a, b = lo, hi
    value = 0.5 * (a + b)
    while True:
        if inner_lo < value <= below or above <= value < inner_hi:
            up = value >= above
        else:
            try:
                up = f(value) > 0.0
            except ZeroDivisionError:
                return value
        a, b = (a, value) if up else (value, b)
        nxt = 0.5 * (a + b)
        if not a < nxt < b:
            return value
        value = nxt


def _walk_out(f: Callable[[float], float], x: float, inner_lo: float, inner_hi: float) -> dict[float, float]:
    """f at x and at x -+ 1, 2, 4, ... ulps toward the root, until its sign flips or the walk leaves (inner_lo, inner_hi)."""
    seen = {x: f(x)}
    step = -math.ulp(x) if seen[x] > 0.0 else math.ulp(x)
    y = x + step
    while inner_lo < y < inner_hi:
        seen[y] = f(y)
        if (seen[y] > 0.0) != (step < 0.0):
            break
        step *= 2
        y = x + step
    return seen


def _bisect_stacked(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """_bisect run elementwise over arrays of brackets, returning the values.

    Each entry takes _bisect's midpoints and stops where _bisect stops:
    when its bracket holds no float, or on a midpoint where f is not
    finite, a division by zero.  It keeps its value while the others go
    on, so with f acting elementwise every value equals _bisect's on the
    same bracket bit for bit.
    """
    a, b = lo, hi
    value = 0.5 * (a + b)
    active = np.ones(value.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.any():
            y = f(value)
            active &= np.isfinite(y)
            up = y > 0.0
            b = np.where(active & up, value, b)
            a = np.where(active & ~up, value, a)
            nxt = 0.5 * (a + b)
            active &= (a < nxt) & (nxt < b)
            value = np.where(active, nxt, value)
    return value


def _pole_sum(terms: Sequence[tuple[int, float]], lam: float) -> float:
    """sum_i w_i / (1 - l_i lam) over (length, weight) pairs, in order; elementwise on arrays, exact on Fractions."""
    return sum(w / (1 - l * lam) for l, w in terms)


def _pole_sum_estimate(terms: Sequence[tuple[int, float]], l1: int, l2: int) -> float:
    """Newton estimate of the pole sum's zero in (1/l1, 1/l2), for _bisect.

    h(x) = (1 - l1 x) sum w/(1 - l x) = w1 + (1 - l1 x) g(x) is concave
    and decreasing there, as g is positive, increasing and convex.  Each
    term of g with l < l2 is at least its value at 1/l1, so with those
    constants h's two-pole model lies above h: Newton descends from its root.
    """
    w1 = sum(w for l, w in terms if l == l1)
    rest = [(l, w) for l, w in terms if l != l1]
    w2 = sum(w for l, w in rest if l == l2)
    lateral = sum(w * l1 / (l1 - l) for l, w in rest if l != l2)
    # The model times (1 - l2 x): lateral l1 l2 x^2 - p x + q, positive at 1/l1 and negative at 1/l2.
    p = w1 * l2 + (w2 + lateral) * l1 + lateral * l2
    q = w1 + w2 + lateral
    x = 2 * q / (p + math.sqrt(max(p * p - 4 * lateral * l1 * l2 * q, 0.0)))
    for _ in range(_NEWTON_PASSES):
        g = slope = 0.0
        for l, w in rest:
            d = 1 - l * x
            g += w / d
            slope += w * l / (d * d)
        nxt = x - (w1 + (1 - l1 * x) * g) / ((1 - l1 * x) * slope - l1 * g)
        if not nxt < x:
            break
        x = nxt
    return x


# --------------------------- spider equation --------------------------


def spider_lambda2(lengths: SpiderProfile | Sequence[int]) -> float:
    """lambda_2 of a spider with a strict longest branch.

    Solves sum_i 1/(1 - l_i lambda) = 0 on (1/l_1, 1/l_2), where the
    function climbs from -inf to +inf; equal lengths share one weighted
    pole, so an evaluation costs O(distinct lengths).  A repeated longest branch makes
    lambda_2 the pole 1/l_1 itself and is rejected.
    """
    profile = lengths if isinstance(lengths, SpiderProfile) else SpiderProfile(tuple(lengths))
    ls = profile.lengths
    if ls[0] == ls[1]:
        raise ValueError(f"longest branch must be strict, got lengths {ls}")
    terms = tuple(Counter(ls).items())
    return _bisect(
        lambda lam: _pole_sum(terms, lam), 1.0 / ls[0], 1.0 / ls[1], lambda: _pole_sum_estimate(terms, ls[0], ls[1])
    )


# ------------------------- balanced family ----------------------------


def q_range_integer(r: int, M: int) -> tuple[int, int]:
    """Feasible branch counts q for lateral mass M at radius r."""
    if r < 1 or M < 1:
        raise ValueError(f"need r >= 1 and M >= 1, got r={r}, M={M}")
    return (max(1, -(-M // r)), M)


def _sigma_tables(r: int, masses: Sequence[int]) -> list[tuple[tuple[int, float], ...]]:
    """(q, sigma) at every feasible integer q, for each M in masses.

    sigma is the root in (1/(r+1), 1/r) of the balanced-family equation:
    the spider equation of principal branches (r+1, r) and q lateral
    branches of total length M spread as evenly as possible, c = M // q
    long or one longer.  One stacked bisection solves every root, with
    the pole sum's terms in a fixed order.  Where q divides M the weight
    on the pole 1/(c+1) is zero instead of dropped; that pole lies
    outside the open bracket, so the term adds +-0.0 and each value
    equals the dropped-term scalar root's bit for bit.
    """
    spans = [q_range_integer(r, M) for M in masses]
    if not spans:
        return []
    q = np.concatenate([np.arange(lo, hi + 1) for lo, hi in spans])
    m = np.repeat(masses, [hi - lo + 1 for lo, hi in spans])
    c = m // q
    terms = ((r + 1, 1), (r, 1), (c + 1, m - c * q), (c, (c + 1) * q - m))
    brackets = np.full(len(q), 1.0 / (r + 1)), np.full(len(q), 1.0 / r)
    rows = zip(q.tolist(), _bisect_stacked(lambda lam: _pole_sum(terms, lam), *brackets).tolist())
    return [tuple(islice(rows, hi - lo + 1)) for lo, hi in spans]


# ------------------------ double-spider equation -----------------------


def _resolvent_sum(lengths: Sequence[int], rho: float) -> float:
    """sum_i 1/(rho - l_i), one side's term in the double-spider equation; exact on a Fraction rho."""
    return sum(1 / (rho - l) for l in lengths)


def _double_spider_equation(p: DoubleSpiderProfile, rho: float) -> float:
    """1/A(rho) + 1/B(rho) - 1, increasing in rho above the longest length; exact on a Fraction rho."""
    return 1 / _resolvent_sum(p.a_lengths, rho) + 1 / _resolvent_sum(p.b_lengths, rho) - 1


def _rho_estimate(p: DoubleSpiderProfile, r: int) -> float:
    """Newton estimate of double_spider_rho's root, for _bisect.

    F = 1/A + 1/B - 1 is increasing and (Cauchy-Schwarz) concave above r,
    so Newton climbs to the root from where 1/A <= (rho - r)/ka and its
    b-side twin give F <= 0, ka and kb counting the branches of length r.
    """
    ka, kb = p.a_lengths.count(r), p.b_lengths.count(r)
    rho = r + ka * kb / (ka + kb)
    for _ in range(_NEWTON_PASSES):
        value, slope = -1.0, 0.0
        for side in (p.a_lengths, p.b_lengths):
            total = squares = 0.0
            for l in side:
                inv = 1 / (rho - l)
                total += inv
                squares += inv * inv
            value += 1 / total
            slope += squares / (total * total)
        nxt = rho - value / slope
        if not nxt > rho:
            break
        rho = nxt
    return rho


def double_spider_rho(p: DoubleSpiderProfile) -> float:
    """Reciprocal 1/lambda_2 for a double spider with equal longest sides.

    rho is the unique solution of 1/A(rho) + 1/B(rho) = 1 above r, where
    A(rho) = sum_i 1/(rho - a_i) and B likewise; the left side climbs
    from 0 at rho -> r+ to infinity, so it crosses 1 exactly once.
    """
    r = p.a_lengths[0]
    if p.b_lengths[0] != r:
        raise ValueError(f"both sides must share the longest length, got {p.a_lengths[0]} and {p.b_lengths[0]}")
    total = sum(p.a_lengths) + sum(p.b_lengths)
    return _bisect(
        lambda rho: _double_spider_equation(p, rho), r + 1e-9, float(r + total + 1), lambda: _rho_estimate(p, r)
    )


# ------------------------- threshold quadratic -------------------------


def threshold_data(r: int, t: int) -> ThresholdData:
    """Compare the two balanced candidates with t extra-length branches.

    With s = ceil(r/2), the sign of P(lambda) = 1 - 3s lambda +
    (2s^2 + s - 2t - 1) lambda^2 on (1/(r+1), 1/r) decides which
    candidate has the larger lambda_2.  Depending on the parity of r and
    the size of t the sign is constant (A_always / B_always) or flips
    once at zeta, in which case the winner switches as the branch count
    k crosses kappa.
    """
    if r < 3:
        raise ValueError(f"need r >= 3, got {r}")
    s = (r + 1) // 2
    if not 1 <= t <= s - 1:
        raise ValueError(f"need 1 <= t <= {s - 1} for r={r}, got t={t}")

    if r == 2 * s and 2 * t <= s - 1:
        return ThresholdData(r=r, s=s, t=t, regime="A_always", zeta=None, kappa=None)
    if r == 2 * s - 1 and 2 * t >= s - 1:
        return ThresholdData(r=r, s=s, t=t, regime="B_always", zeta=None, kappa=None)

    lead = 2 * s * s + s - 2 * t - 1
    disc = 9 * s * s - 4 * lead
    lo, hi = 1.0 / (r + 1), 1.0 / r
    # disc = (s - 2)^2 + 8t > 0, and the smaller root lies in I_r.
    zeta = (3 * s - math.sqrt(disc)) / (2 * lead)
    if not lo < zeta < hi:
        raise RuntimeError(f"threshold root {zeta} outside ({lo}, {hi}) for r={r}, t={t}")

    kappa = -(1.0 - s * zeta) * _pole_sum(((r + 1, 1), (r, 1), (s, t - s + 1), (s - 1, s - t)), zeta)
    return ThresholdData(r=r, s=s, t=t, regime="threshold", zeta=zeta, kappa=kappa)
