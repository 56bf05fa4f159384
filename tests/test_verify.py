"""Certification runs: brute force vs classifier, sweeps, cross-checks."""

import concurrent.futures
import json
import math

import numpy as np
import pytest

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    dtn_matrix,
    lambda2_numeric,
    make_double_spider,
    make_path,
    make_spider,
    recognize_spider,
    verify_classification,
    verify_unimodality,
)
import steklov_trees.verify as verify_module
from steklov_trees import roots
from steklov_trees.cli import run

import oracles
from oracles import enumerate_trees, verify_cross_methods, verify_domination


def _spider_code(*lengths):
    return canonical_code(make_spider(SpiderProfile(lengths)))


# ----------------------------- brute force -----------------------------


def test_brute_force_path_only_order():
    report = verify_classification(6, 5)
    assert report.argmax_codes == (canonical_code(make_path(5)),)
    assert abs(report.argmax_lambda2 - 0.4) <= 1e-12


def test_brute_force_small_orders():
    report = verify_classification(7, 5)
    assert report.argmax_codes == (_spider_code(3, 2, 1),)
    assert abs(report.argmax_lambda2 - (6 - math.sqrt(3)) / 11) <= 1e-11

    assert verify_classification(9, 5).argmax_codes == (_spider_code(3, 2, 1, 1, 1),)


def test_brute_force_deterministic_across_jobs():
    # Every value, not only the maximum, is the same bits for any job count.
    assert verify_module._evaluate_all(12, 5, 3) == verify_module._evaluate_all(12, 5, 1)


def test_brute_force_rejects_bad_jobs():
    with pytest.raises(ValueError):
        verify_classification(6, 5, jobs=0)


@pytest.mark.parametrize("cpus, workers", [(3, [3]), (1, []), (None, [])])
def test_jobs_are_capped_at_the_cpu_count(monkeypatch, cpus, workers):
    # A huge job count must not fork that many processes; never run one for real.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: cpus)
    rows = verify_module._evaluate_all(12, 5, 10**6)
    assert started == workers
    assert rows == verify_module._evaluate_all(12, 5, 1)


# ------------------------- classification runs -------------------------


def test_verify_classification_trivial_order():
    report = verify_classification(6, 5)
    assert report.verdict == "match"
    assert report.trees_enumerated == 1
    assert report.argmax_codes == report.classifier_codes
    assert abs(report.argmax_lambda2 - 0.4) <= 1e-12


def test_verify_classification_divisible_case():
    report = verify_classification(12, 7)
    assert report.verdict == "match"
    assert report.classifier_codes == (_spider_code(4, 3, 2, 2),)


def test_verify_classification_threshold_case():
    report = verify_classification(15, 9)
    assert report.verdict == "match"
    assert report.classifier_codes == (_spider_code(5, 4, 3, 2),)
    assert report.classifier_winners == (SpiderProfile((5, 4, 3, 2)),)


def test_verify_classification_reports_match_small_grid():
    for d in (3, 5):
        for n in range(d + 1, 11):
            report = verify_classification(n, d)
            assert report.verdict == "match", (n, d, report)
            assert report.n == n and report.D == d
            assert report.trees_enumerated >= 1


def test_verify_classification_deterministic_across_jobs():
    a = verify_classification(12, 5, jobs=1)
    b = verify_classification(12, 5, jobs=3)
    assert a.trees_enumerated == b.trees_enumerated
    assert a.argmax_codes == b.argmax_codes
    assert a.argmax_lambda2 == b.argmax_lambda2
    assert a.classifier_codes == b.classifier_codes
    assert a.verdict == b.verdict


def test_brute_force_winners_are_spiders():
    for d in (3, 5):
        for n in range(d + 1, 11):
            by_code = {canonical_code(t): t for t in enumerate_trees(n, d)}
            for code in verify_classification(n, d).argmax_codes:
                assert recognize_spider(by_code[code]) is not None


# ----------------------------- unimodality -----------------------------


def test_unimodality_two_candidate_example():
    (report,) = verify_unimodality(2, [2])
    assert report.passed
    assert report.peak_q == (2,)
    assert dict(report.rows)[1] == pytest.approx(3.0 / 8.0, abs=1e-12)
    assert dict(report.rows)[2] == pytest.approx((17 - math.sqrt(17)) / 34, abs=1e-12)


def test_unimodality_single_feasible_q():
    (report,) = verify_unimodality(1, [5])
    assert report.passed
    assert report.rows == ((5, pytest.approx(7.0 / 13.0, abs=1e-12)),)
    assert report.peak_q == (5,)


def test_unimodality_interior_peak():
    (report,) = verify_unimodality(5, [12])
    assert report.passed
    assert report.peak_q == (4,)


def test_unimodality_small_grid():
    for r in range(1, 7):
        for m in range(1, 21):
            (report,) = verify_unimodality(r, [m])
            assert report.passed, (r, m, report.detail)
            assert report.detail == ""


@pytest.mark.parametrize("r", [1, 4, 8])
def test_unimodality_rows_are_the_sweep_rows(capsys, r):
    m_max = 30
    assert run(["sweep", "--r", str(r), "--M-max", str(m_max), "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert [entry["M"] for entry in printed] == list(range(1, m_max + 1))
    for entry in printed:
        (report,) = verify_unimodality(r, [entry["M"]])
        assert entry["rows"] == [{"q": q, "sigma": f"{lam:.12g}"} for q, lam in report.rows]
        assert (entry["peak_q"], entry["passed"]) == (list(report.peak_q), report.passed)
    # The sweep's one stacked call gives each mass the report of its own call.
    masses = range(1, m_max + 1)
    assert verify_unimodality(r, masses) == [verify_unimodality(r, [m])[0] for m in masses]


def test_unimodality_of_no_masses_is_empty():
    assert roots._sigma_tables(3, []) == []
    assert verify_unimodality(3, []) == []


# ------------------------------ domination ------------------------------


def test_domination_trivial_order():
    report = verify_domination(6, 5)
    assert report.passed
    assert report.trees_checked == 1
    assert report.equality_count == 1
    assert abs(report.worst_margin) <= 1e-9


def test_domination_full_enumeration():
    for n in (7, 11):
        report = verify_domination(n, 5)
        assert report.passed, report.detail
        assert report.trees_checked == sum(1 for _ in enumerate_trees(n, 5))
        assert report.worst_margin >= -1e-9


# ----------------------------- cross methods -----------------------------


def test_cross_methods_on_path():
    report = verify_cross_methods(make_path(7))
    assert report.passed
    names = [name for name, _ in report.values]
    assert names == ["matrix", "distance", "spider_root", "double_spider_root"]
    for _, lam in report.values:
        assert abs(lam - 2.0 / 7.0) <= 1e-10


def test_cross_methods_on_spider():
    report = verify_cross_methods(make_spider(SpiderProfile((5, 4, 3, 2))))
    assert report.passed
    assert dict(report.values).keys() == {"matrix", "distance", "spider_root", "double_spider_root"}


def test_cross_methods_on_double_spider():
    report = verify_cross_methods(make_double_spider(DoubleSpiderProfile((3, 2, 1), (3, 3))))
    assert report.passed
    names = [name for name, _ in report.values]
    assert "double_spider_root" in names
    assert "spider_root" not in names


def test_cross_methods_on_generic_tree():
    t = Tree(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
    report = verify_cross_methods(t)
    assert report.passed
    assert [name for name, _ in report.values] == ["matrix", "distance"]


def test_cross_methods_pass_on_catalog():
    for n in range(2, 10):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                report = verify_cross_methods(t)
                assert report.passed, (n, report.detail)


def test_cross_methods_take_the_schur_value_from_the_dtn_matrix(monkeypatch):
    # The "matrix" entry must come from neither lambda2_numeric nor
    # steklov_spectrum, or the check would compare the distance form with itself.
    t = make_spider(SpiderProfile((5, 4, 3, 2)))
    values = dict(verify_cross_methods(t).values)
    assert values["matrix"] == np.linalg.eigvalsh(dtn_matrix(t))[1]
    assert values["distance"] == lambda2_numeric(t)
    monkeypatch.setattr(oracles, "lambda2_numeric", lambda tree: 2.0 * lambda2_numeric(tree))
    report = verify_cross_methods(t)
    assert not report.passed
    assert dict(report.values)["matrix"] == values["matrix"]
    assert "matrix=" in report.detail and "distance=" in report.detail
