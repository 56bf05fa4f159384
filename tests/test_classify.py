"""Candidate generation and the odd-diameter maximizer classification."""

import importlib
import math

import pytest

from steklov_trees import (
    SpiderProfile,
    canonical_code,
    classify,
    diameter,
    make_spider,
    recognize_spider,
    render_shorthand,
    spider_lambda2,
    threshold_data,
    verify_unimodality,
)
from steklov_trees.cli import run

from oracles import ASParams, bracket_contains, candidate_profiles, sigma_exact, spider_lambda2_exact

# The package's `classify` function shadows its module of that name.
CLASSIFY_MODULE = importlib.import_module("steklov_trees.classify")


def _winner_names(result):
    return sorted(render_shorthand(make_spider(p)) for p, _ in result.winners)


# --------------------------- candidate profiles ---------------------------


def test_candidate_profiles_path_marker():
    assert candidate_profiles(6, 5) is None


def test_candidate_profiles_coinciding():
    pair = candidate_profiles(9, 5)
    assert (pair.M, pair.s, pair.q_minus, pair.q_plus) == (3, 1, 3, 3)
    assert pair.as_minus == pair.as_plus == ASParams(2, 3, 1, 0)


def test_candidate_profiles_split():
    pair = candidate_profiles(15, 9)
    assert (pair.M, pair.s, pair.q_minus, pair.q_plus) == (5, 2, 2, 3)
    assert pair.as_minus == ASParams(4, 2, 2, 1)
    assert pair.as_plus == ASParams(4, 3, 1, 2)


def test_candidate_profiles_ceiling_is_exact_above_2_53():
    # M = 3 * 2^53 + 1 and s = 2^53: M / s rounds to 3.0, but q_plus is 4.
    pair = candidate_profiles(63050394783186947, 36028797018963969)
    M = 3 * 2**53 + 1
    assert (pair.M, pair.s, pair.q_minus, pair.q_plus) == (M, 2**53, 3, 4)
    assert pair.as_plus == ASParams(2**54, 4, M // 4, 1)


def test_candidate_profiles_rejects_out_of_scope():
    with pytest.raises(ValueError, match="Lin and Zhao"):
        candidate_profiles(8, 4)
    with pytest.raises(ValueError):
        candidate_profiles(3, 1)
    with pytest.raises(ValueError):
        candidate_profiles(5, 5)


def test_classify_candidates_are_the_candidate_pairs_profiles():
    # classify reads its candidates off the division M = q*c + t without
    # building the pair; every odd D <= 41 and M <= 200 gives the pair's profiles.
    for D in range(3, 42, 2):
        r = (D - 1) // 2
        for M in range(201):
            got = [p for p, _ in classify(M + D + 1, D).candidates]
            pair = candidate_profiles(M + D + 1, D)
            if pair is None:
                assert got == [SpiderProfile((r + 1, r))]
                continue
            params = [pair.as_minus] if pair.as_minus == pair.as_plus else [pair.as_minus, pair.as_plus]
            assert got == [a.spider_profile() for a in params]
            for p, a in zip(got, params):
                assert p.lengths == (r + 1, r) + (a.c + 1,) * a.t + (a.c,) * (a.q - a.t)
                assert (len(p.lengths) - 2, sum(p.lengths) - 2 * r - 1) == (a.q, M)


# ------------------------------- classify ---------------------------------


def test_classify_path_case():
    result = classify(6, 5)
    assert result.case_tag == "path"
    assert _winner_names(result) == ["path:5"]
    assert abs(result.winners[0][1] - 0.4) <= 1e-11


def test_classify_divisible_cases():
    result = classify(7, 5)
    assert result.case_tag == "divisible"
    assert _winner_names(result) == ["spider:3,2,1"]
    assert abs(result.winners[0][1] - (6 - math.sqrt(3)) / 11) <= 1e-11

    result = classify(9, 5)
    assert result.case_tag == "divisible"
    assert _winner_names(result) == ["spider:3,2,1,1,1"]

    result = classify(10, 7)
    assert result.case_tag == "divisible"
    assert _winner_names(result) == ["spider:4,3,2"]


def test_classify_single_small_case():
    result = classify(9, 7)
    assert result.case_tag == "single_small"
    assert _winner_names(result) == ["spider:4,3,1"]


def test_classify_threshold_compare_case():
    result = classify(15, 9)
    assert result.case_tag == "threshold_compare"
    assert not result.tie_flag
    assert _winner_names(result) == ["spider:5,4,3,2"]
    res = spider_lambda2((5, 4, 3, 2))
    assert bracket_contains(spider_lambda2_exact((5, 4, 3, 2)), result.winners[0][1], 1e-10)
    assert abs(result.winners[0][1] - res) <= 1e-11


def test_classify_keeps_tied_candidates_whole(monkeypatch):
    # Equal roots must make both winners, with no contradiction.
    monkeypatch.setattr(CLASSIFY_MODULE, "spider_lambda2", lambda p: 0.25)
    result = classify(15, 9)
    assert result.case_tag == "threshold_compare"
    assert len(result.candidates) == 2
    assert result.winners == result.candidates
    assert result.tie_flag


def test_threshold_prediction_that_contradicts_the_roots_raises(capsys, monkeypatch):
    # (13, 7) is always-B: the q_plus root wins.  A regime that names the other candidate is an internal error.
    assert classify(13, 7).case_tag == "threshold_B"
    real = CLASSIFY_MODULE.threshold_data
    monkeypatch.setattr(CLASSIFY_MODULE, "threshold_data", lambda r, t: real(r, t)._replace(regime="A_always"))
    line = "threshold prediction minus contradicts direct comparison at n=13, D=7"
    with pytest.raises(RuntimeError, match=f"^{line}$"):
        classify(13, 7)
    assert run(["classify", "13", "7"]) == 4
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_kappa_meets_an_integer_only_below_s():
    # classify's threshold check (k >= s) has no tie band: a kappa near an integer k >= s would need one.
    near = []
    for r in range(3, 401):
        s = (r + 1) // 2
        for t in range(1, s):
            data = threshold_data(r, t)
            if data.regime == "threshold" and abs(data.kappa - round(data.kappa)) <= 1e-6:
                assert data.kappa < s
                near.append((r, t))
    assert near == [(6, 2), (9, 1)]


def test_classify_constant_regime_cases():
    # r=6, t=1 sits in the always-A regime once k reaches s.
    n = 2 * 6 + 2 + (3 * 3 + 1)
    result = classify(n, 13)
    assert result.case_tag == "threshold_A"
    assert _winner_names(result) == ["spider:7,6,4,3,3"]

    # r=5, t=1 is always-B; the winner is the q_plus candidate.
    n = 2 * 5 + 2 + (3 * 3 + 1)
    result = classify(n, 11)
    assert result.case_tag == "threshold_B"
    assert _winner_names(result) == ["spider:6,5,3,3,2,2"]


def test_classify_initial_orders_cases():
    result = classify(11, 7)
    assert result.case_tag == "initial_orders"
    assert _winner_names(result) == ["spider:4,3,2,1"]
    result = classify(13, 9)
    assert result.case_tag == "initial_orders"
    assert _winner_names(result) == ["spider:5,4,3"]


def test_classify_rejects_out_of_scope():
    with pytest.raises(ValueError, match="Lin and Zhao"):
        classify(10, 6)
    with pytest.raises(ValueError):
        classify(4, 1)
    with pytest.raises(ValueError):
        classify(7, 9)


def test_classify_winners_attain_max():
    for n, d in [(7, 5), (12, 5), (14, 7), (15, 9), (16, 9), (13, 7)]:
        result = classify(n, d)
        best = max(lam for _, lam in result.candidates)
        for p, lam in result.winners:
            tree = make_spider(p)
            assert abs(lam - best) <= 1e-9 * max(1.0, best)
            assert tree.n == n
            assert diameter(tree) == d
        winner_codes = {canonical_code(make_spider(p)) for p, _ in result.winners}
        for p, lam in result.candidates:
            if canonical_code(make_spider(p)) in winner_codes:
                continue
            assert lam < best


def test_classify_winner_realizable_grid():
    for d in (3, 5, 7, 9):
        for n in range(d + 1, d + 9):
            result = classify(n, d)
            for p, _ in result.winners:
                tree = make_spider(p)
                assert tree.n == n
                assert diameter(tree) == d
                assert recognize_spider(tree) == p


@pytest.mark.parametrize("n,d", [(141, 3), (217, 5), (321, 7), (304, 3), (1006, 5), (3042, 41)])
def test_classify_large_lateral_mass_matches_exact_root(n, d):
    # Near a steep pole even the float closest to the root leaves a
    # residual far from zero; the root must still be certified to an ulp.
    result = classify(n, d)
    pair = candidate_profiles(n, d)
    params = [pair.as_minus] if pair.as_minus == pair.as_plus else [pair.as_minus, pair.as_plus]
    assert len(result.candidates) == len(params)
    for p, (_, lam) in zip(params, result.candidates):
        assert bracket_contains(sigma_exact(p.r, p.lateral_mass, p.q), lam, 1e-13)


# --------------------------- candidate comparison --------------------------
# The q-comparison of the balanced family is verify_unimodality's peak rule.


def test_compare_candidates_small():
    (rep,) = verify_unimodality(2, [2])
    assert [q for q, _ in rep.rows] == [1, 2]
    assert abs(rep.rows[0][1] - 3 / 8) <= 1e-11
    assert abs(rep.rows[1][1] - (17 - math.sqrt(17)) / 34) <= 1e-11
    assert rep.peak_q == (2,)
    assert rep.passed


def test_compare_candidates_single_feasible():
    (rep,) = verify_unimodality(1, [3])
    assert [q for q, _ in rep.rows] == [3]
    assert rep.peak_q == (3,)


def test_compare_candidates_predicted_peak():
    (rep,) = verify_unimodality(4, [5])  # r = 4, M = 5: D = 9, n = 15
    pair = candidate_profiles(15, 9)
    assert set(rep.peak_q) <= {2, 3}
    assert (pair.q_minus, pair.q_plus) == (2, 3)


def test_constant_regimes_agree_with_direct_comparison():
    """Where the quadratic has constant sign the ordering is unconditional."""
    for r in range(3, 10):
        s = (r + 1) // 2
        for t in range(1, s):
            td = threshold_data(r, t)
            if td.regime == "threshold":
                continue
            for k in range(s, s + 9):
                a = spider_lambda2((r + 1, r) + (s + 1,) * t + (s,) * (k - t))
                b = spider_lambda2(
                    (r + 1, r) + (s,) * (k + t - s + 1) + (s - 1,) * (s - t)
                )
                if td.regime == "A_always":
                    assert a > b
                else:
                    assert b > a
