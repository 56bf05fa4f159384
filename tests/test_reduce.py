"""Monotone moves: domination, arm transfer, balancing, greedy ascent."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    arm_transfer,
    balance_side_step,
    canonical_code,
    classify,
    diameter,
    dominating_double_spider,
    double_spider_rho,
    greedy_ascent_trace,
    lambda2_numeric,
    make_double_spider,
    make_path,
    make_spider,
    recognize_spider,
    spider_lambda2,
)

import steklov_trees.reduce as reduce_module
from steklov_trees.cli import run

from oracles import balance_main_step, double_spider_split, enumerate_trees, prufer_to_edges

INCREASE_MARGIN = 1e-10
DOMINATION_SLACK = 1e-9


# ------------------------------- domination -------------------------------


def test_domination_is_identity_on_double_spiders():
    t = make_spider(SpiderProfile((3, 2, 1)))
    p = dominating_double_spider(t)
    assert (p.a_lengths, p.b_lengths) == ((2, 1), (2,))
    assert abs(lambda2_numeric(t) - 1.0 / double_spider_rho(p)) <= 1e-10


def test_domination_of_path():
    p = dominating_double_spider(make_path(5))
    assert (p.a_lengths, p.b_lengths) == ((2,), (2,))


def test_domination_of_caterpillar():
    # Path 0..5 with a pendant leaf hanging at vertex 2.
    t = Tree(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)))
    p = dominating_double_spider(t)
    assert (p.a_lengths, p.b_lengths) == ((2, 1), (2,))
    assert lambda2_numeric(t) <= (6 - math.sqrt(3)) / 11 + 1e-11


def test_domination_rejects_even_diameter():
    with pytest.raises(ValueError):
        dominating_double_spider(make_path(4))


@pytest.mark.parametrize("n", range(4, 11))
def test_domination_inequality_exhaustive(n):
    for d in range(3, n, 2):
        for t in enumerate_trees(n, d):
            p = dominating_double_spider(t)
            assert p.order == n
            assert p.diameter == d
            bound = 1.0 / double_spider_rho(p)
            lam = lambda2_numeric(t)
            assert lam <= bound + DOMINATION_SLACK
            if abs(lam - bound) <= DOMINATION_SLACK:
                assert double_spider_split(t) is not None


# ------------------------------ arm transfer ------------------------------


def test_arm_transfer_example():
    p = DoubleSpiderProfile((2, 1), (2, 1))
    before = 1.0 / double_spider_rho(p)
    assert abs(before - 1.0 / (2 + math.sqrt(2) / 2)) <= 1e-11
    q, _ = arm_transfer(p, double_spider_rho(p), 2)
    assert (q.a_lengths, q.b_lengths) == ((2, 1, 1), (2,))
    after = 1.0 / double_spider_rho(q)
    assert abs(after - (17 - math.sqrt(17)) / 34) <= 1e-11
    assert after > before + INCREASE_MARGIN


def test_arm_transfer_symmetric_case():
    p = DoubleSpiderProfile((3, 1), (3, 1))
    q, _ = arm_transfer(p, double_spider_rho(p), 2)
    assert (q.a_lengths, q.b_lengths) == ((3, 1, 1), (3,))


def test_arm_transfer_rejects_single_branch_donor():
    for p in (DoubleSpiderProfile((3,), (3, 1)), DoubleSpiderProfile((4,), (4,))):
        with pytest.raises(ValueError):
            arm_transfer(p, double_spider_rho(p), 2)


def test_arm_transfer_rejects_bad_index():
    p = DoubleSpiderProfile((3, 2), (3, 1))
    rho = double_spider_rho(p)
    with pytest.raises(ValueError):
        arm_transfer(p, rho, 1)
    with pytest.raises(ValueError):
        arm_transfer(p, rho, 5)


def test_arm_transfer_preserves_shape():
    p = DoubleSpiderProfile((4, 2, 1), (4, 3))
    q, _ = arm_transfer(p, double_spider_rho(p), 2)
    assert q.order == p.order
    assert q.diameter == p.diameter


# ----------------------------- balancing moves -----------------------------


def _spider_move(move, lengths):
    """move applied to the spider profile of lengths, given that profile's own lambda_2."""
    p = SpiderProfile(lengths)
    return move(p, spider_lambda2(p))


def test_balance_main_examples():
    q, _ = _spider_move(balance_main_step, (4, 1, 1))
    assert q.lengths == (3, 2, 1)
    before = 1.0 / 3.0
    after = spider_lambda2(q)
    assert abs(after - (6 - math.sqrt(3)) / 11) <= 1e-11
    assert after > before + INCREASE_MARGIN

    q, _ = _spider_move(balance_main_step, (5, 2, 2, 1))
    assert q.lengths == (4, 3, 2, 1)


def test_balance_main_rejects_bad_shapes():
    with pytest.raises(ValueError):
        _spider_move(balance_main_step, (4, 1))  # two branches only
    with pytest.raises(ValueError):
        _spider_move(balance_main_step, (3, 2, 1))  # gap below 2
    with pytest.raises(ValueError):
        _spider_move(balance_main_step, (4, 2, 1))  # even principal sum


def test_balance_side_examples():
    q, _ = _spider_move(balance_side_step, (4, 3, 3, 1))
    assert q.lengths == (4, 3, 2, 2)
    q, _ = _spider_move(balance_side_step, (5, 4, 4, 1, 1))
    assert q.lengths == (5, 4, 3, 2, 1)


def test_balance_side_rejects_bad_shapes():
    with pytest.raises(ValueError):
        _spider_move(balance_side_step, (4, 3, 2, 2))  # sides already balanced
    with pytest.raises(ValueError):
        _spider_move(balance_side_step, (5, 3, 3, 1))  # principal not (r+1, r)
    with pytest.raises(ValueError):
        _spider_move(balance_side_step, (4, 3))  # no side branches


def test_moves_strictly_increase_lambda2():
    for profile in [(6, 1, 1), (7, 2, 2, 1), (9, 4, 3)]:
        p = SpiderProfile(profile)
        q, _ = _spider_move(balance_main_step, profile)
        assert q.order == p.order and q.diameter == p.diameter
        assert spider_lambda2(q) > spider_lambda2(p) + INCREASE_MARGIN
    for profile in [(5, 4, 4, 1), (4, 3, 3, 1, 1), (6, 5, 5, 2, 1)]:
        p = SpiderProfile(profile)
        q, _ = _spider_move(balance_side_step, profile)
        assert q.order == p.order and q.diameter == p.diameter
        assert spider_lambda2(q) > spider_lambda2(p) + INCREASE_MARGIN


# ------------------------------ greedy ascent ------------------------------


def test_greedy_ascent_path_fixpoint():
    t = make_path(5)
    out = make_spider(greedy_ascent_trace(t)[-1][1])
    assert canonical_code(out) == canonical_code(t)


def test_greedy_ascent_caterpillar():
    t = Tree(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)))
    out = make_spider(greedy_ascent_trace(t)[-1][1])
    assert canonical_code(out) == canonical_code(make_spider(SpiderProfile((3, 2, 1))))


def test_greedy_ascent_balances_spider():
    out = make_spider(greedy_ascent_trace(make_spider(SpiderProfile((4, 1, 1))))[-1][1])
    assert canonical_code(out) == canonical_code(make_spider(SpiderProfile((3, 2, 1))))


def test_greedy_ascent_trace_shape():
    t = make_double_spider(DoubleSpiderProfile((2, 1), (2, 1)))
    trace = greedy_ascent_trace(t)
    labels = [label for label, _, _ in trace]
    assert labels[0] == "input"
    assert labels[-1] == "result"
    assert len(trace) <= t.n * t.n
    lams = [lam for _, _, lam in trace]
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
    # The input is priced by the distance form, every later profile by its own root.
    assert trace[0][1:] == (t, lambda2_numeric(t))
    for _, shape, lam in trace[1:]:
        if isinstance(shape, SpiderProfile):
            assert lam == spider_lambda2(shape)
        else:
            assert lam == 1.0 / double_spider_rho(shape)
    assert [shape for _, shape, _ in trace[1:]] == [
        DoubleSpiderProfile((2, 1), (2, 1)),
        DoubleSpiderProfile((2, 1, 1), (2,)),
        SpiderProfile((3, 2, 1, 1)),
    ]


def test_increase_check_raises_only_on_a_certified_decrease():
    # The reverse of a legal side step, and of a legal arm transfer.
    p, q = SpiderProfile((4, 3, 2, 2)), SpiderProfile((4, 3, 3, 1))
    assert _spider_move(balance_side_step, q.lengths)[0] == p
    x = spider_lambda2(p)
    with pytest.raises(RuntimeError, match="lowers lambda_2"):
        reduce_module._checked_root(p, x, q)
    a, b = DoubleSpiderProfile((2, 1, 1), (2,)), DoubleSpiderProfile((2, 1), (2, 1))
    assert arm_transfer(b, double_spider_rho(b))[0] == a
    rho = double_spider_rho(a)
    with pytest.raises(RuntimeError, match="lowers lambda_2"):
        reduce_module._checked_root(a, rho, b)
    # An identical pair passes, also when the floats disagree by an ulp.
    assert reduce_module._checked_root(p, x, p) == x
    assert reduce_module._checked_root(p, math.nextafter(x, 1.0), p) == x
    assert reduce_module._checked_root(a, rho, a) == rho
    assert reduce_module._checked_root(a, math.nextafter(rho, 0.0), a) == rho


@pytest.mark.parametrize("excess, raises", [(1e-8, True), (1e-12, False)])
def test_ascent_guard_is_relative(monkeypatch, capsys, excess, raises):
    # On path:41 lambda_2 is below 0.05, so a 1e-8 relative loss is under 1e-9 absolute.
    exact = reduce_module.lambda2_numeric
    monkeypatch.setattr(reduce_module, "lambda2_numeric", lambda t: exact(t) * (1 + excess))
    t = make_path(41)
    assert exact(t) < 0.05
    if raises:
        with pytest.raises(RuntimeError, match="lost ground"):
            greedy_ascent_trace(t)
        code, err = run(["reduce", "path:41"]), capsys.readouterr().err
        assert code == 4 and err.startswith("error: ascent lost ground") and err.count("\n") == 1
    else:
        assert greedy_ascent_trace(t)[-1][0] == "result"
        assert run(["reduce", "path:41"]) == 0 and capsys.readouterr().err == ""


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    seq=st.lists(st.integers(0, 11), min_size=10, max_size=10),
)
def test_greedy_ascent_random_trees(n, seq):
    t = Tree(n, tuple(prufer_to_edges([x % n for x in seq[: n - 2]], n)))
    d = diameter(t)
    if d % 2 == 0 or d < 3:
        return
    out = make_spider(greedy_ascent_trace(t)[-1][1])
    assert out.n == n
    assert diameter(out) == d
    assert lambda2_numeric(out) >= lambda2_numeric(t) - 1e-9
    assert recognize_spider(out) is not None
    best = max(lam for _, lam in classify(n, d).candidates)
    assert lambda2_numeric(out) <= best + 1e-9
