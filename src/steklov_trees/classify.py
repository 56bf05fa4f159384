"""Classification of the lambda_2-maximizing trees of odd diameter.

Fix the order n and an odd diameter D = 2r+1, and let M = n - D - 1 be
the vertex mass left over after the longest path.  The maximizers are
the path when M = 0 and otherwise generalized almost seesaw trees:
spiders with principal branches (r+1, r) and the lateral mass M spread
as evenly as possible over q branches.  Only the two branch counts
nearest M/s, s = ceil(r/2), can win, and which of the two does is
decided by the threshold data of the comparison quadratic, cross-checked
here against direct root comparison in every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .roots import spider_lambda2, threshold_data
from .trees import ASParams, SpiderProfile

# Two lambda_2 values this close (relatively) are reported as tied
# rather than ordered; genuine ties exist only at integer kappa.
_TIE_RTOL = 1e-9

# Relative band inside which values on the sigma table count as equal
# when the peak and the rise-then-fall shape are checked.
_STRICT_RTOL = 1e-12


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


@dataclass(frozen=True)
class ClassificationResult:
    """Winner set for (n, D), with the case of the decision recorded.

    candidates holds every candidate as its branch-length profile with
    its lambda_2; the path is the two-branch profile (r+1, r).  winners
    is the sublist attaining the maximum, with ties (gap below 1e-9
    relative) kept whole and flagged.  make_spider builds the trees.
    """

    case_tag: str
    candidates: tuple[tuple[SpiderProfile, float], ...]
    winners: tuple[tuple[SpiderProfile, float], ...]
    tie_flag: bool


def _check_odd_case(n: int, D: int) -> None:
    if D % 2 == 0:
        raise ValueError(
            f"diameter {D} is even; even-diameter maximizers are classified by "
            "Lin and Zhao (Bull. London Math. Soc., 2025), this package covers odd diameters"
        )
    if D < 3:
        raise ValueError(f"need diameter >= 3, got {D}")
    if n < D + 1:
        raise ValueError(f"order {n} cannot carry diameter {D}; need n >= {D + 1}")


def _division_params(r: int, M: int, q: int) -> ASParams:
    return ASParams(r=r, q=q, c=M // q, t=M % q)


def _predicted_counts(r: int, M: int) -> tuple[int, int, int]:
    """s = ceil(r/2) and the two branch counts nearest M/s that can win."""
    s = (r + 1) // 2
    return s, max(1, M // s), -(-M // s)


def _near_argmax(rows: Sequence[tuple[object, float]], rtol: float) -> tuple[tuple, float]:
    """Keys of the (key, positive value) rows within rtol of the maximum, and the maximum."""
    best = max(val for _, val in rows)
    return tuple(key for key, val in rows if best - val <= rtol * best), best


def candidate_profiles(n: int, D: int) -> CandidatePair | None:
    """The candidate parameter sets for (n, D), or None when the path wins.

    None is the path marker: M = 0 leaves nothing to hang off the
    principal branches and P_{D+1} is the unique maximizer.
    """
    _check_odd_case(n, D)
    r = (D - 1) // 2
    M = n - D - 1
    if M == 0:
        return None
    s, q_minus, q_plus = _predicted_counts(r, M)
    return CandidatePair(
        M=M,
        s=s,
        q_minus=q_minus,
        q_plus=q_plus,
        as_minus=_division_params(r, M, q_minus),
        as_plus=_division_params(r, M, q_plus),
    )


def classify(n: int, D: int) -> ClassificationResult:
    """Maximizer set for order n and odd diameter D.

    The case tag records which branch decided: path (M = 0),
    single_small (M < s), divisible (s | M), the three threshold
    regimes for k >= s, or initial_orders (k < s, settled by direct
    comparison of the two candidate roots).  Threshold decisions are
    additionally verified against the direct comparison; disagreement
    is an internal error, never silently resolved.
    """
    r = (D - 1) // 2
    pair = candidate_profiles(n, D)
    if pair is None:
        tag, profiles = "path", (SpiderProfile((r + 1, r)),)
    elif pair.as_minus == pair.as_plus:
        tag, profiles = ("single_small" if pair.M < pair.s else "divisible"), (pair.as_minus.spider_profile(),)
    else:
        tag, profiles = "initial_orders", (pair.as_minus.spider_profile(), pair.as_plus.spider_profile())
    candidates = tuple((p, spider_lambda2(p)) for p in profiles)
    keys, _ = _near_argmax(candidates, _TIE_RTOL)
    winners = tuple(row for row in candidates if row[0] in keys)

    k, t = divmod(pair.M, pair.s) if pair else (0, 0)
    if len(candidates) == 2 and k >= pair.s:
        data = threshold_data(r, t)
        if data.regime == "A_always":
            tag, expect = "threshold_A", "minus"
        elif data.regime == "B_always":
            tag, expect = "threshold_B", "plus"
        else:
            tag = "threshold_compare"
            if abs(k - data.kappa) <= _TIE_RTOL:
                expect = "tie"
            else:
                expect = "minus" if k > data.kappa else "plus"
        direct = "minus" if winners[0] is candidates[0] else "plus"
        if len(winners) == 1 and expect != "tie" and direct != expect:
            raise RuntimeError(f"threshold prediction {expect} contradicts direct comparison at n={n}, D={D}")
    return ClassificationResult(case_tag=tag, candidates=candidates, winners=winners, tie_flag=len(winners) > 1)
