"""Scalar root equations behind the spider and double-spider spectra.

Every lambda_2 that this package certifies against matrix computations
also satisfies a one-variable equation: the spider equation F(lambda),
its balanced-family form Phi_{r,M}, the two-sided resolvent equation for
double spiders, and the threshold quadratic that orders the two
balanced candidates.  The one-center equations are all the pole sum
sum_i w_i/(1 - l_i lambda), evaluated by one loop, on floats, arrays
and Fractions alike, over terms that one rule writes: the two
principal branches as poles of weight 1, then the laterals grouped by
length, longest first.  spider_lambda2, verify's
sweep table and reduce's exact check sum those terms in that order, so
they solve one equation; both Newton estimates read l1 and l2 from the
first two terms and bound every later one in one upper model.  Each
equation is strictly increasing on an explicit bracket whose endpoints
are poles, and its root is the largest float of the bracket at which
its float evaluation is <= 0: with no tolerance, and the same float
whichever points a bisection evaluates, as long as that evaluation
changes sign once.  That is a property test, not a runtime check.  One
bisection walks from a Newton estimate, then halves only between the
points around the root.  All of it is scalar arithmetic, without numpy.
The solvers take profiles, never trees: which equation a tree's shape
admits is read off its recognized profile by `lambda2 --method root`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .trees import DoubleSpiderProfile, SpiderProfile, _runs


class ThresholdData(NamedTuple):
    """Which of the two balanced candidates wins, for given (r, t).

    regime A_always / B_always means one candidate dominates for every
    branch count k; regime threshold carries the crossover data: zeta is
    the root of the comparison quadratic in (1/(r+1), 1/r) and kappa the
    critical branch count, with ties possible only at integer kappa.  A
    NamedTuple, compared as a tuple.
    """

    r: int
    s: int
    t: int
    regime: str
    zeta: float | None
    kappa: float | None


# ----------------------------- bisection ------------------------------


# _bisect's walk from an estimate stays more than this many ulps inside both
# endpoints: within three ulps of fl(1/l), 1 - fl(l * x) can be zero or of
# either sign.
_POLE_ULPS = 4

_NEWTON_PASSES = 30  # cap on an estimate's Newton passes; about three converge
_CONVERGED = 2**-30  # an estimate stops after a Newton step of at most this share of x: the next is below an ulp


def _bisect(f: Callable[[float], float], lo: float, hi: float, estimate: Callable[[], float]) -> float:
    """Root of an f that increases on (lo, hi): the largest float there with f <= 0.

    The endpoints are typically poles of f and are never evaluated, nor
    is monotonicity: the callers' equations are property-tested to be
    increasing on their brackets.  Keeps a, the innermost point evaluated
    with f <= 0, and b, the innermost with f > 0, and halves between them
    until no float is left: the root is a, or b when no point had f <= 0.
    With one sign change of f's float evaluation that is the same float
    whatever the points evaluated, so there is no tolerance to scale.  A
    midpoint where f divides by zero, which only a bracket of a few
    floats allows, is returned as it is: it lies within a few ulps of a
    pole that bounds the whole bracket left.

    An estimate only saves evaluations; it is computed only if the
    bracket has floats more than _POLE_ULPS ulps inside both endpoints.
    The points before halving are the estimate and then steps of 1, 2,
    4, ... ulps toward the root, until f changes sign or the next step
    leaves those inner floats.  A NaN, out-of-bracket or dividing-by-zero
    estimate gives plain bisection.
    """
    inner_lo, inner_hi = lo + _POLE_ULPS * math.ulp(lo), hi - _POLE_ULPS * math.ulp(hi)
    try:
        guess = estimate() if inner_lo < inner_hi else math.nan
    except ZeroDivisionError:  # a Newton step that lands on a pole
        guess = math.nan
    a, b = lo, hi
    if inner_lo < guess < inner_hi:
        value, step = guess, math.ulp(guess)
    else:
        value, step = 0.5 * (lo + hi), math.inf
    while a < value < b:
        try:
            up = f(value) > 0.0
        except ZeroDivisionError:
            return value
        a, b = (a, value) if up else (value, b)
        value = b - step if up else a + step
        step *= 2
        if lo < a and b < hi or not inner_lo < value < inner_hi:  # the walk is over: halve
            value = 0.5 * (a + b)
    return a if a > lo else b


def _pole_sum(terms: Sequence[tuple[int, float]], lam: float) -> float:
    """sum_i w_i / (1 - l_i lam) over (length, weight) pairs, in order; elementwise on arrays, exact on Fractions."""
    total = 0
    for l, w in terms:
        total += w / (1 - l * lam)
    return total


def _pole_sum_estimate(terms: Sequence[tuple[int, float]]) -> float:
    """Newton estimate of the pole sum's zero in (1/l1, 1/l2), for _bisect.

    l1 and l2 are the first two terms' lengths, every later term is a
    lateral with l <= l2.  h(x) = (1 - l1 x) sum w/(1 - l x) = w1 +
    (1 - l1 x) g(x) is concave and decreasing there, as g is positive,
    increasing and convex.  Each lateral term of g is at least its value
    at 1/l1, so with those constants h's two-pole model lies above h:
    Newton descends from its root.
    """
    (l1, w1), (l2, w2), *laterals = terms
    lateral = sum([w * l1 / (l1 - l) for l, w in laterals])
    rest = terms[1:]
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
        if not x - nxt > _CONVERGED * x:  # no descent, or the last step worth taking
            return min(x, nxt)
        x = nxt
    return x


# --------------------------- spider equation --------------------------


def _spider_terms(lengths: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The spider equation's poles, for lengths sorted longest first.

    The two principal branches are separate poles of weight 1, then the
    laterals follow grouped by length, longest first: (length, count).
    """
    return ((lengths[0], 1), (lengths[1], 1), *_runs(lengths, 2))


def spider_lambda2(lengths: SpiderProfile | Sequence[int]) -> float:
    """lambda_2 of a spider with a strict longest branch.

    Solves sum_i 1/(1 - l_i lambda) = 0 on (1/l_1, 1/l_2), where the
    function climbs from -inf to +inf, over _spider_terms: equal lateral
    lengths share one weighted pole, so an evaluation costs O(distinct
    lengths).  A repeated longest branch makes lambda_2 the pole 1/l_1
    itself and is rejected.
    """
    profile = lengths if isinstance(lengths, SpiderProfile) else SpiderProfile(tuple(lengths))
    ls = profile.lengths
    if ls[0] == ls[1]:
        raise ValueError(f"longest branch must be strict, got lengths {ls}")
    terms = _spider_terms(ls)
    return _bisect(partial(_pole_sum, terms), 1.0 / ls[0], 1.0 / ls[1], partial(_pole_sum_estimate, terms))


# ------------------------- balanced family ----------------------------


def q_range_integer(r: int, M: int) -> tuple[int, int]:
    """Feasible branch counts q for lateral mass M at radius r."""
    if r < 1 or M < 1:
        raise ValueError(f"need r >= 1 and M >= 1, got r={r}, M={M}")
    return (max(1, -(-M // r)), M)


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
    return _bisect(partial(_double_spider_equation, p), float(r), float(r + total + 1), partial(_rho_estimate, p, r))


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
