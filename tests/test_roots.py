"""Scalar root equations: spider, balanced family, double spider, thresholds."""

import hashlib
import inspect
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    classify,
    double_spider_rho,
    greedy_ascent_trace,
    lambda2_numeric,
    make_double_spider,
    make_spider,
    parse_tree_text,
    q_range_integer,
    spider_lambda2,
    threshold_data,
)
from steklov_trees import roots, verify

from oracles import (
    BoundaryFlux,
    bisect_reference,
    bracket_contains,
    candidate_profiles,
    double_spider_maximizer,
    double_spider_rho_exact,
    q_form,
    q_range_continuous,
    sigma_exact,
    sigma_rM,
    sigma_table_rows,
    spider_lambda2_exact,
)

RTOL = 1e-10


def _checked_root(solve, *args):
    """solve(*args), checked to lie inside its bracket with its equation under 1e-11 there."""
    ((f, lo, hi, root, _),) = _bisect_calls(solve, *args)
    assert lo < root < hi
    assert abs(f(root)) <= 1e-11
    return root


# ----------------------------- spider equation ----------------------------


@pytest.mark.parametrize(
    "lengths,want",
    [((2, 1), 2 / 3), ((2, 1, 1), 3 / 5), ((3, 2, 2), 3 / 8), ((4, 1, 1), 1 / 3)],
)
def test_spider_lambda2_linear_cases(lengths, want):
    res = _checked_root(spider_lambda2, lengths)
    assert abs(res - want) <= 1e-11


def test_spider_lambda2_quadratic_case():
    ((f, lo, hi, res, _),) = _bisect_calls(spider_lambda2, SpiderProfile((3, 2, 1)))
    assert lo < res < hi
    assert abs(f(res)) <= 1e-11
    assert abs(res - (6 - math.sqrt(3)) / 11) <= 1e-11
    assert (lo, hi) == (1 / 3, 1 / 2)


@pytest.mark.parametrize(
    "lengths", [(3, 2, 1), (5, 4, 4, 2), (7, 1, 1, 1, 1, 1), (12, 11, 3, 2, 1), (2, 1) + (1,) * 1000]
)
def test_spider_lambda2_exact_oracle(lengths):
    res = spider_lambda2(lengths)
    assert bracket_contains(spider_lambda2_exact(lengths), res, 1e-13)


@pytest.mark.parametrize("n,d", [(141, 3), (217, 5), (321, 7), (304, 3), (1006, 5), (3042, 41)])
def test_spider_lambda2_exact_oracle_former_stalls(n, d):
    # The balanced candidates at which the bisection once stalled.
    pair = candidate_profiles(n, d)
    for p in (pair.as_minus, pair.as_plus):
        lengths = p.spider_profile().lengths
        res = spider_lambda2(lengths)
        assert bracket_contains(spider_lambda2_exact(lengths), res, 1e-13)


def test_spider_lambda2_rejects_tied_longest():
    with pytest.raises(ValueError):
        spider_lambda2((3, 3, 1))


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.integers(min_value=1, max_value=11), min_size=1, max_size=7),
    top=st.integers(min_value=1, max_value=12),
)
def test_spider_root_matches_matrix(raw, top):
    longest = max(max(raw) + 1, top)
    profile = SpiderProfile((longest, *raw))
    res = _checked_root(spider_lambda2, profile)
    numeric = lambda2_numeric(make_spider(profile))
    assert abs(res - numeric) <= RTOL * numeric


# ----------------------------- balanced family ----------------------------


def test_q_ranges():
    assert q_range_integer(2, 2) == (1, 2)
    assert q_range_integer(4, 5) == (2, 5)
    assert q_range_integer(1, 3) == (3, 3)
    # M / r rounds to 3.0 here; the integer ceiling is 4.
    assert q_range_integer(2**53, 3 * 2**53 + 1) == (4, 3 * 2**53 + 1)
    lo, hi = q_range_continuous(2, 2)
    assert (lo, hi) == (1.0, 2.0)


@pytest.mark.parametrize(
    "r,m,q,want",
    [
        (2, 2, 1, 3 / 8),
        (2, 2, 2, (17 - math.sqrt(17)) / 34),
        (1, 3, 3, 5 / 9),
        (1, 7, 7, 9 / 17),
    ],
)
def test_sigma_closed_forms(r, m, q, want):
    res = _checked_root(sigma_rM, r, m, q)
    assert abs(res - want) <= 1e-11


def test_sigma_matches_exact_oracle():
    for r, m, q in [(2, 5, 3), (3, 7, 4), (4, 5, 2), (4, 5, 3), (5, 12, 5), (8, 60, 23)]:
        res = sigma_rM(r, m, q)
        assert bracket_contains(sigma_exact(r, m, q), res, 1e-13)


def test_sigma_monotone_toward_balance():
    assert sigma_rM(2, 2, 1) < sigma_rM(2, 2, 2)


def test_sigma_rejects_out_of_range():
    with pytest.raises(ValueError):
        sigma_rM(2, 2, 0.5)
    with pytest.raises(ValueError):
        sigma_rM(2, 2, 3)


def test_sigma_degenerate_endpoint():
    # q = M/r pins every lateral branch at length r; the family formula
    # must degrade to the two-pole form without a zero-division.
    res = _checked_root(sigma_rM, 2, 4, 2)
    assert abs(res - spider_lambda2((3, 2, 2, 2))) <= 1e-11


def test_sigma_agrees_with_spider_at_integer_q():
    # At integer q the family value is the eigenvalue of the AS spider.
    for r, m, q in [(2, 5, 3), (4, 5, 2), (4, 5, 3)]:
        c, t = divmod(m, q)
        profile = (r + 1, r) + (c + 1,) * t + (c,) * (q - t)
        assert abs(sigma_rM(r, m, q) - spider_lambda2(profile)) <= 1e-11


@settings(max_examples=120, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=2, max_value=40),
    c=st.integers(min_value=1, max_value=7),
)
def test_sigma_continuous_across_block_boundaries(r, m, c):
    """At q = M/(c+1) the floor branch switches; the value must not jump."""
    if c + 1 > r or m % (c + 1) != 0:
        return
    q = m // (c + 1)
    if not (m / r) < q < m:
        return
    eps = 1e-9
    left = sigma_rM(r, m, q - eps)
    right = sigma_rM(r, m, q + eps)
    assert abs(left - right) <= 1e-6  # continuity; O(eps) slope both sides
    at = sigma_rM(r, m, q)
    assert abs(at - left) <= 1e-6


def _assert_tables_equal_sigma_rM(r, masses):
    for m, rows in zip(masses, sigma_table_rows(r, masses)):
        lo, hi = q_range_integer(r, m)
        assert rows == tuple((q, sigma_rM(r, m, q)) for q in range(lo, hi + 1)), (r, m)


def test_sigma_tables_equal_sigma_rM_bit_for_bit():
    for r in range(1, 10):
        _assert_tables_equal_sigma_rM(r, range(1, 83))


@pytest.mark.parametrize("e", [48, 51, 54, 63])
def test_sigma_tables_equal_sigma_rM_where_midpoints_hit_poles(e):
    # Brackets of a few floats, where some midpoints divide by zero: both
    # bisections stop on that midpoint.  From 2**63 on, r does not fit the
    # table's int64 lengths, so the length cap of its zero-weight lateral
    # compares with r instead of storing it.
    for r in range(2**e - 3, 2**e + 4):
        _assert_tables_equal_sigma_rM(r, range(1, 6))


@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=400),
    masses=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=3),
)
def test_sigma_tables_equal_sigma_rM_on_random_masses(r, masses):
    _assert_tables_equal_sigma_rM(r, masses)


@pytest.mark.parametrize("r", range(2, 9))
def test_sigma_tables_equal_spider_lambda2(r):
    # One term rule: each table entry is spider_lambda2 of its balanced
    # profile, bit for bit, also where a lateral is as long as the branch r.
    masses = range(1, 83)
    for m, rows in zip(masses, sigma_table_rows(r, masses)):
        for q, sigma in rows:
            c, t = divmod(m, q)
            lam = spider_lambda2((r + 1, r) + (c + 1,) * t + (c,) * (q - t))
            assert sigma.hex() == lam.hex(), (r, m, q)


def test_sigma_tables_golden_bits():
    # Every root of the r <= 9, M <= 82 tables, down to its last bit:
    # SHA-256 of their .hex() strings in (r, M, q) order.
    digest = hashlib.sha256()
    for r in range(1, 10):
        for rows in sigma_table_rows(r, range(1, 83)):
            digest.update("".join(sigma.hex() for _, sigma in rows).encode())
    assert digest.hexdigest() == "5426aa2d84b972e6f4dd531d573ff455d7a40cf92328464db561bffacbae6359"


def _stacked_passes(monkeypatch, r, masses):
    """(the table's rows per mass, its stacked passes), counted as calls of the _pole_sum that verify's table calls."""
    calls = 0
    pole_sum = verify._pole_sum

    def counted(terms, lam):
        nonlocal calls
        calls += 1
        if calls > 100:
            raise AssertionError("stacked bisection did not stop")
        return pole_sum(terms, lam)

    monkeypatch.setattr(verify, "_pole_sum", counted)
    rows = sigma_table_rows(r, masses)
    assert calls >= 2, "the counter saw no stacked pass"
    return rows, calls


@pytest.mark.parametrize("r", range(2, 9))
def test_sigma_tables_walk_from_an_estimate(monkeypatch, r):
    # Evaluating every midpoint takes 50-52 stacked passes on these tables.
    _, passes = _stacked_passes(monkeypatch, r, range(1, 83))
    assert passes <= 8


@pytest.mark.parametrize("r,m", [(1, 300), (2, 211), (3, 313)])
def test_sigma_tables_stop_at_exhausted_brackets(monkeypatch, r, m):
    # The balanced candidates of the former stalls (n, D) = (304, 3), (217, 5),
    # (321, 7): there some roots end on two adjacent floats with a residual
    # above 1e-11, so no residual tolerance could have stopped them.
    lo, hi = q_range_integer(r, m)
    scalar = [_bisect_calls(sigma_rM, r, m, q)[0] for q in range(lo, hi + 1)]
    assert any(abs(f(root)) > 1e-11 for f, _, _, root, _ in scalar)

    # A bracket of relative width 1/r runs out of floats within about 53
    # halvings, one evaluation each.
    (rows,), _ = _stacked_passes(monkeypatch, r, [m])
    assert rows == tuple((q, root) for q, (_, _, _, root, _) in zip(range(lo, hi + 1), scalar))


def _divides_by_zero_at_half(x):
    return x - 0.3 + 0.0 / (x - 0.5)


def test_bisections_stop_on_a_midpoint_that_divides_by_zero():
    # On a root equation such a midpoint lies a few ulps from a pole that
    # bounds the bracket left; every loop returns it as it is.
    f = _divides_by_zero_at_half
    lo, hi = [0.0, 0.0, 0.25], [1.0, 0.5, 1.0]
    stacked = verify._bisect_stacked(f, np.array(lo), np.array(hi), lambda: np.nan).tolist()
    assert stacked[0] == 0.5
    assert stacked == [roots._bisect(f, a, b, lambda: math.nan) for a, b in zip(lo, hi)]
    assert stacked == [bisect_reference(f, a, b) for a, b in zip(lo, hi)]


@pytest.mark.parametrize(
    "estimate",
    [
        math.nan,
        math.inf,
        -math.inf,
        -1.0,
        2.0,
        1e300,
        [0.0, 0.0, 0.25],
        [1.0, 0.5, 1.0],
        [math.nan, 0.01, 0.99],
        [-0.5, 0.49, 0.26],
        [math.inf, 5e-324, 0.9999],
    ],
)
def test_stacked_bad_estimate_gives_the_same_roots(estimate):
    # NaN, out-of-bracket and, where no pole stop is in reach, far-off
    # estimates: the first entry's plain bisection stops on the pole 0.5.
    lo, hi = np.array([0.0, 0.0, 0.25]), np.array([1.0, 0.5, 1.0])
    want = verify._bisect_stacked(_divides_by_zero_at_half, lo, hi, lambda: np.nan)
    got = verify._bisect_stacked(_divides_by_zero_at_half, lo, hi, lambda: np.broadcast_to(estimate, lo.shape))
    assert got.tobytes() == want.tobytes()


def test_spider_strictly_below_path_bound():
    # Odd-diameter spiders with a side branch sit strictly under 2/D.
    for profile in [(2, 1, 1), (3, 2, 2), (4, 3, 1), (6, 5, 5, 4, 3)]:
        d = profile[0] + profile[1]
        assert spider_lambda2(profile) < 2.0 / d


# ----------------------------- double spiders -----------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 5, 9])
def test_double_spider_rho_path(r):
    res = _checked_root(double_spider_rho, DoubleSpiderProfile((r,), (r,)))
    assert abs(res - (r + 0.5)) <= 1e-11


def test_double_spider_rho_closed_forms():
    res = double_spider_rho(DoubleSpiderProfile((2, 1), (2,)))
    assert abs(res - (2 + 1 / math.sqrt(3))) <= 1e-11
    assert abs(1 / res - spider_lambda2((3, 2, 1))) <= 1e-11
    res = double_spider_rho(DoubleSpiderProfile((3, 1), (3, 1)))
    assert abs(res - (5 + math.sqrt(5)) / 2) <= 1e-11


def test_double_spider_rho_exact_oracle():
    for a, b in [((2, 1), (2, 1)), ((4, 2, 1), (4, 3)), ((5, 5, 1), (5, 2, 2))]:
        res = double_spider_rho(DoubleSpiderProfile(a, b))
        assert bracket_contains(double_spider_rho_exact(a, b), res, 1e-12)


def test_double_spider_rho_rejects_unequal_principals():
    with pytest.raises(ValueError):
        double_spider_rho(DoubleSpiderProfile((3, 1), (2,)))


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=9),
    a_extra=st.lists(st.integers(min_value=1, max_value=9), max_size=4),
    b_extra=st.lists(st.integers(min_value=1, max_value=9), max_size=4),
)
def test_double_spider_root_matches_matrix(r, a_extra, b_extra):
    a = (r, *[min(x, r) for x in a_extra])
    b = (r, *[min(x, r) for x in b_extra])
    p = DoubleSpiderProfile(a, b)
    res = _checked_root(double_spider_rho, p)
    numeric = lambda2_numeric(make_double_spider(p))
    assert abs(1.0 / res - numeric) <= RTOL * numeric


def test_double_spider_maximizer_structure():
    p = DoubleSpiderProfile((2, 1), (2,))
    rho = double_spider_rho(p)
    z = double_spider_maximizer(p)
    xs, ys = z.z[:2], z.z[2:]
    assert all(x > 0 for x in xs) and all(y < 0 for y in ys)
    assert abs(sum(xs) - 1.0) <= 1e-12 and abs(sum(ys) + 1.0) <= 1e-12
    assert abs(xs[0] / xs[1] - (rho - 1) / (rho - 2)) <= 1e-10
    # The flux attains the inverse Rayleigh bound.
    t = make_double_spider(p)
    arr = z.z
    assert abs(q_form(t, z) / sum(v * v for v in arr) - rho) <= 1e-9 * rho


def test_double_spider_maximizer_symmetric_case():
    z = double_spider_maximizer(DoubleSpiderProfile((1,), (1,)))
    assert z.z == (1.0, -1.0)
    rho = double_spider_rho(DoubleSpiderProfile((3, 1), (3, 1)))
    z = double_spider_maximizer(DoubleSpiderProfile((3, 1), (3, 1)))
    xs, ys = z.z[:2], z.z[2:]
    assert abs(xs[0] / xs[1] - (rho - 1) / (rho - 3)) <= 1e-10
    assert abs(xs[0] + ys[0]) <= 1e-12 and abs(xs[1] + ys[1]) <= 1e-12


# ------------------------------- thresholds -------------------------------


def test_threshold_data_known_values():
    td = threshold_data(4, 1)
    assert td.regime == "threshold"
    assert (td.r, td.s, td.t) == (4, 2, 1)
    assert abs(td.zeta - (3 - math.sqrt(2)) / 7) <= 1e-11
    assert abs(td.kappa - (-(1 + math.sqrt(2)))) <= 1e-11
    td = threshold_data(6, 2)
    assert td.regime == "threshold"
    assert abs(td.zeta - (9 - math.sqrt(17)) / 32) <= 1e-11
    assert abs(td.kappa - 1.0) <= 1e-11


def test_threshold_data_constant_regimes():
    td = threshold_data(6, 1)
    assert td.regime == "A_always" and td.zeta is None and td.kappa is None
    td = threshold_data(3, 1)
    assert td.regime == "B_always" and td.zeta is None and td.kappa is None


def test_threshold_data_rejects_bad_input():
    with pytest.raises(ValueError):
        threshold_data(2, 1)
    with pytest.raises(ValueError):
        threshold_data(5, 0)
    with pytest.raises(ValueError):
        threshold_data(5, 3)


@pytest.mark.parametrize("r", range(3, 10))
def test_threshold_zeta_is_a_root_in_range(r):
    s = (r + 1) // 2
    for t in range(1, s):
        td = threshold_data(r, t)
        if td.regime != "threshold":
            continue
        lead = 2 * s * s + s - 2 * t - 1
        p = 1.0 - 3 * s * td.zeta + lead * td.zeta * td.zeta
        assert abs(p) <= 1e-12 * max(1.0, lead)
        assert 1.0 / (r + 1) < td.zeta < 1.0 / r


def test_threshold_sign_predicts_comparison():
    """sign(lambda(A) - lambda(B)) = sign(k - kappa) across the threshold."""
    for r in range(3, 10):
        s = (r + 1) // 2
        for t in range(1, s):
            td = threshold_data(r, t)
            if td.regime != "threshold":
                continue
            for k in range(s, s + 11):
                a = spider_lambda2((r + 1, r) + (s + 1,) * t + (s,) * (k - t))
                b = spider_lambda2((r + 1, r) + (s,) * (k + t - s + 1) + (s - 1,) * (s - t))
                if abs(k - td.kappa) <= 1e-9:
                    continue  # exact tie candidates are flagged, not ordered
                assert math.copysign(1.0, a - b) == math.copysign(1.0, k - td.kappa)


# ---------------------- monotonicity of the equations ----------------------

# Bisection trusts each equation to increase across its bracket, and its
# root is the same float whatever the points evaluated only if the float
# evaluation never decreases from one float to the next outside the pole
# bands; these properties probe evenly spaced interior points, then
# consecutive floats on each side of the root and just inside each pole
# band.
_MONOTONE_SAMPLES = 100
_FLOAT_WALK = 64


def _floats(x, toward, count):
    """The count floats after x in the direction of toward."""
    out = []
    for _ in range(count):
        x = math.nextafter(x, toward)
        out.append(x)
    return out


def _assert_increasing(f, lo, hi, root):
    step = (hi - lo) / (_MONOTONE_SAMPLES + 1)
    values = [f(lo + i * step) for i in range(1, _MONOTONE_SAMPLES + 1)]
    for i, (prev, cur) in enumerate(zip(values, values[1:]), start=2):
        assert cur > prev, f"not strictly increasing near {lo + i * step}"

    inner_lo, inner_hi = lo + roots._POLE_ULPS * math.ulp(lo), hi - roots._POLE_ULPS * math.ulp(hi)
    for run in (
        _floats(root, lo, _FLOAT_WALK)[::-1] + [root] + _floats(root, hi, _FLOAT_WALK),
        _floats(inner_lo, hi, _FLOAT_WALK),
        _floats(inner_hi, lo, _FLOAT_WALK)[::-1],
    ):
        xs = [x for x in run if inner_lo < x < inner_hi]
        values = [f(x) for x in xs]
        for x, prev, cur in zip(xs[1:], values, values[1:]):
            assert cur >= prev, f"float evaluation decreases at {x!r}"


@settings(max_examples=200, deadline=None)
@given(
    rest=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=60),
    gap=st.integers(min_value=1, max_value=8),
)
def test_spider_equation_increases_on_its_bracket(rest, gap):
    ls = sorted([max(rest) + gap, *rest], reverse=True)
    ((f, lo, hi, root, _),) = _bisect_calls(spider_lambda2, ls)
    _assert_increasing(f, lo, hi, root)


@st.composite
def _balanced_triples(draw):
    r = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=2000))
    lo_q, hi_q = q_range_continuous(r, m)
    q = draw(st.one_of(st.integers(*q_range_integer(r, m)), st.floats(min_value=lo_q, max_value=hi_q)))
    return r, m, q


@settings(max_examples=200, deadline=None)
@given(triple=_balanced_triples())
def test_balanced_equation_increases_on_its_bracket(triple):
    ((f, lo, hi, root, _),) = _bisect_calls(sigma_rM, *triple)
    _assert_increasing(f, lo, hi, root)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=12),
    a_extra=st.lists(st.integers(min_value=1, max_value=12), max_size=30),
    b_extra=st.lists(st.integers(min_value=1, max_value=12), max_size=30),
)
def test_double_spider_equation_increases_on_its_bracket(r, a_extra, b_extra):
    p = DoubleSpiderProfile((r, *[min(x, r) for x in a_extra]), (r, *[min(x, r) for x in b_extra]))
    ((_, lo, hi, root, _),) = _bisect_calls(double_spider_rho, p)
    _assert_increasing(lambda rho: roots._double_spider_equation(p, rho), lo, hi, root)


# ------------------- walks from an estimate, same roots --------------------

# Evaluations of its equation that one root may cost inside _bisect, the
# walk from the estimate included; plain bisection takes 46-55.
_MAX_EVALUATIONS = 12

def _bisect_calls(solve, *args):
    """(f, lo, hi, root, evaluations) of every _bisect call that solve(*args) makes.

    Each call is also run through bisect_reference on the same equation
    and bracket, and must return its value bit for bit.  That value is
    the largest float in (lo, hi) with f <= 0, unless f divides by zero
    there (a pole stop) or is positive on every float but lo's successor.
    """
    real, calls = roots._bisect, []

    def checked(f, lo, hi, estimate):
        evaluations = 0

        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return f(x)

        got = real(counted, lo, hi, estimate)
        want = bisect_reference(f, lo, hi)
        assert got.hex() == want.hex(), (lo, hi, estimate)
        try:
            at_root = f(got)
        except ZeroDivisionError:  # the pole stop
            pass
        else:
            above = math.nextafter(got, hi)
            if at_root <= 0.0:
                assert above == hi or f(above) > 0.0, (lo, hi, got)
            else:  # no float of the bracket has f <= 0
                assert got == math.nextafter(lo, hi), (lo, hi, got)
        calls.append((f, lo, hi, got, evaluations))
        return got

    roots._bisect = checked
    try:
        solve(*args)
    finally:
        roots._bisect = real
    return calls


@settings(max_examples=200, deadline=None)
@given(
    rest=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=40),
    gap=st.integers(min_value=1, max_value=20),
)
def test_spider_root_is_plain_bisection_bit_for_bit(rest, gap):
    _bisect_calls(spider_lambda2, sorted([max(rest) + gap, *rest], reverse=True))


@settings(max_examples=200, deadline=None)
@given(triple=_balanced_triples())
def test_balanced_root_is_plain_bisection_bit_for_bit(triple):
    _bisect_calls(sigma_rM, *triple)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=300),
    a_extra=st.lists(st.integers(min_value=1, max_value=300), max_size=20),
    b_extra=st.lists(st.integers(min_value=1, max_value=300), max_size=20),
)
def test_double_spider_root_is_plain_bisection_bit_for_bit(r, a_extra, b_extra):
    a = (r, *sorted((min(x, r) for x in a_extra), reverse=True))
    b = (r, *sorted((min(x, r) for x in b_extra), reverse=True))
    _bisect_calls(double_spider_rho, DoubleSpiderProfile(a, b))


@pytest.mark.parametrize("n,d", [(141, 3), (217, 5), (321, 7), (304, 3), (1006, 5), (3042, 41)])
def test_former_stall_roots_are_plain_bisection_bit_for_bit(n, d):
    pair = candidate_profiles(n, d)
    for p in (pair.as_minus, pair.as_plus):
        _bisect_calls(spider_lambda2, p.spider_profile())
        _bisect_calls(sigma_rM, p.r, p.lateral_mass, p.q)


def test_huge_double_spider_root_is_exact():
    # The equation is 2 (rho - r) - 1, zero in floats at the float r + 1/2.
    r = 2**40
    ((_, lo, _, root, _),) = _bisect_calls(double_spider_rho, DoubleSpiderProfile((r,), (r,)))
    assert lo == r
    assert root == r + 0.5


@pytest.mark.parametrize(
    "solve,args",
    [
        (spider_lambda2, ((7, 6, 3, 3, 1),)),
        (spider_lambda2, ((16, 15, 4, 4, 4) + (2,) * 8 + (1,) * 8,)),
        (sigma_rM, (3, 25, 16)),
        (sigma_rM, (4, 37, 11.3)),
        (double_spider_rho, (DoubleSpiderProfile((4, 2, 1), (4, 3)),)),
        (double_spider_rho, (DoubleSpiderProfile((2**40,), (2**40,)),)),
        # The Newton estimate's first point rounds onto the pole 1/r and divides by zero.
        (sigma_rM, (2**46, 100, 64)),
        (sigma_rM, (2**46 + 3, 100, 70)),
    ],
)
def test_bisect_estimate_only_saves_evaluations(solve, args):
    ((f, lo, hi, _, _),) = _bisect_calls(solve, *args)
    want = bisect_reference(f, lo, hi)
    other = math.nextafter(want, lo if f(want) > 0.0 else hi)  # the final pair's other float
    estimates = [math.nextafter(lo, hi), math.nextafter(hi, lo), want, other, 0.5 * (lo + hi)]
    estimates += [math.nan, math.inf, -math.inf, lo, hi, lo - 1.0, hi + 1.0]
    for estimate in estimates:
        got = roots._bisect(f, lo, hi, lambda: estimate)
        assert got.hex() == want.hex(), estimate


def test_reduce_trace_roots_take_few_evaluations(benchmark_batch):
    # Every profile of the reduce traces on the single_tree benchmark inputs.
    evaluations = []
    for op in benchmark_batch("single_tree"):
        if op.argv[0] == "reduce":
            tree = parse_tree_text(Path(op.argv[2]).read_text())
            evaluations += [e for *_, e in _bisect_calls(greedy_ascent_trace, tree)]
    assert len(evaluations) > 400
    assert max(evaluations) <= _MAX_EVALUATIONS


def test_classify_roots_take_few_evaluations(benchmark_batch):
    # Every candidate of the classify operations of the classify_scale benchmark.
    evaluations = []
    for op in benchmark_batch("classify_scale"):
        if op.argv[0] == "classify":
            evaluations += [e for *_, e in _bisect_calls(classify, int(op.argv[1]), int(op.argv[2]))]
    assert len(evaluations) > 600
    assert max(evaluations) <= _MAX_EVALUATIONS


def _count_newton_passes(monkeypatch, module, name):
    """[calls, passes] of the Newton estimate module.name from here on; a pass is one run of its `nxt = ` line."""
    estimate = getattr(module, name)
    source, first = inspect.getsourcelines(estimate)
    line = first + next(i for i, text in enumerate(source) if "nxt = " in text)
    counts = [0, 0]

    def trace(frame, event, arg):
        counts[1] += event == "line" and frame.f_lineno == line
        return trace

    def counted(*args):
        counts[0] += 1
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: trace if frame.f_code is estimate.__code__ else None)
        try:
            return estimate(*args)
        finally:
            sys.settrace(previous)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_newton_estimates_stop_after_a_converged_step(monkeypatch, benchmark_batch):
    # A step of at most _CONVERGED of x ends the estimate: the pass after it only confirmed
    # convergence, and these totals were 2452, 1678 and 41 with it.  The roots do not move
    # (the bisection alone decides each float), nor does any sweep's count of evaluations.
    counts = _count_newton_passes(monkeypatch, roots, "_pole_sum_estimate")
    for op in benchmark_batch("classify_scale"):
        if op.argv[0] == "classify":
            classify(int(op.argv[1]), int(op.argv[2]))
    assert counts == [629, 1755]
    counts[:] = [0, 0]
    for op in benchmark_batch("single_tree"):
        if op.argv[0] == "reduce":
            greedy_ascent_trace(parse_tree_text(Path(op.argv[2]).read_text()))
    assert counts == [414, 1242]
    stacked = _count_newton_passes(monkeypatch, verify, "_stacked_estimate")
    for r in range(2, 9):
        verify._sigma_tables(r, range(1, 83))
    assert stacked == [7, 28]
