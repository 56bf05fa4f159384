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

from typing import NamedTuple, Sequence

from .roots import spider_lambda2, threshold_data
from .trees import SpiderProfile, _as_profile

# Two lambda_2 values this close (relatively) are reported as tied
# rather than ordered.  The threshold check needs no band of its own:
# over every threshold-regime (r, t) with r <= 400, kappa comes within
# 1e-6 of an integer only at (6, 2) and (9, 1), both below s, and the
# check runs only for k >= s; a real tie shows as two winners, which skip it.
_TIE_RTOL = 1e-9


class ClassificationResult(NamedTuple):
    """Winner set for (n, D), with the case of the decision recorded.

    candidates holds every candidate as its branch-length profile with
    its lambda_2; the path is the two-branch profile (r+1, r).  winners
    is the sublist attaining the maximum, with ties (gap below 1e-9
    relative) kept whole and flagged.  make_spider builds the trees.  A
    NamedTuple, compared as a tuple.
    """

    case_tag: str
    candidates: tuple[tuple[SpiderProfile, float], ...]
    winners: tuple[tuple[SpiderProfile, float], ...]
    tie_flag: bool


def _odd_case(n: int, D: int) -> tuple[int, int]:
    """Radius r = (D-1)/2 and lateral mass M = n-D-1 of an order and odd diameter in scope."""
    if D % 2 == 0:
        raise ValueError(
            f"diameter {D} is even; even-diameter maximizers are classified by "
            "Lin and Zhao (Bull. London Math. Soc., 2025), this package covers odd diameters"
        )
    if D < 3:
        raise ValueError(f"need diameter >= 3, got {D}")
    if n < D + 1:
        raise ValueError(f"order {n} cannot carry diameter {D}; need n >= {D + 1}")
    return (D - 1) // 2, n - D - 1


def _predicted_counts(r: int, M: int) -> tuple[int, int, int]:
    """s = ceil(r/2) and the two branch counts nearest M/s that can win."""
    s = (r + 1) // 2
    return s, max(1, M // s), -(-M // s)


def _near_argmax(rows: Sequence[tuple[object, float]], rtol: float) -> tuple[tuple, float]:
    """Keys of the (key, positive value) rows within rtol of the maximum, and the maximum."""
    best = max(val for _, val in rows)
    return tuple(key for key, val in rows if best - val <= rtol * best), best


def classify(n: int, D: int) -> ClassificationResult:
    """Maximizer set for order n and odd diameter D.

    The case tag records which branch decided: path (M = 0),
    single_small (M < s), divisible (s | M), the three threshold
    regimes for k >= s, or initial_orders (k < s, settled by direct
    comparison of the two candidate roots).  Threshold decisions are
    additionally verified against the direct comparison; disagreement
    is an internal error, never silently resolved.
    """
    r, M = _odd_case(n, D)
    s, q_minus, q_plus = _predicted_counts(r, M)
    if M == 0:
        tag, profiles = "path", (SpiderProfile((r + 1, r)),)
    elif q_minus == q_plus:
        tag, profiles = ("single_small" if M < s else "divisible"), (_as_profile(r, q_minus, M),)
    else:
        tag, profiles = "initial_orders", (_as_profile(r, q_minus, M), _as_profile(r, q_plus, M))
    candidates = tuple((p, spider_lambda2(p)) for p in profiles)
    keys, _ = _near_argmax(candidates, _TIE_RTOL)
    winners = tuple(row for row in candidates if row[0] in keys)

    k, t = divmod(M, s)
    if len(candidates) == 2 and k >= s:
        data = threshold_data(r, t)
        if data.regime == "A_always":
            tag, expect = "threshold_A", "minus"
        elif data.regime == "B_always":
            tag, expect = "threshold_B", "plus"
        else:
            tag, expect = "threshold_compare", "minus" if k > data.kappa else "plus"
        direct = "minus" if winners[0] is candidates[0] else "plus"
        if len(winners) == 1 and direct != expect:
            raise RuntimeError(f"threshold prediction {expect} contradicts direct comparison at n={n}, D={D}")
    return ClassificationResult(case_tag=tag, candidates=candidates, winners=winners, tie_flag=len(winners) > 1)
