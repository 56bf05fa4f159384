"""Certification runs: brute force vs classifier, sweeps, cross-checks."""

import concurrent.futures
import contextlib
import io
import json
import math
import tracemalloc

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
    spider_lambda2,
    verify_classification,
    verify_unimodality,
)
import steklov_trees.verify as verify_module
from steklov_trees.cli import run

import oracles
from oracles import enumerate_trees, sigma_table_rows, unimodality_verdict, verify_cross_methods, verify_domination


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


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of every pool _evaluate_all opens; the pool maps in process, never forking."""
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
    return started


@pytest.mark.parametrize("cpus, workers", [(3, [3]), (1, []), (None, [])])
def test_jobs_are_capped_at_the_cpu_count(monkeypatch, pools_started, cpus, workers):
    # A huge job count must not fork that many processes.  The 110 trees of (12, 5) span 7 chunks.
    monkeypatch.setattr(verify_module, "_CHUNK", 16)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: cpus)
    rows = verify_module._evaluate_all(12, 5, 10**6)
    assert pools_started == workers
    assert rows == verify_module._evaluate_all(12, 5, 1)


def test_chunks_are_shared_equally_between_workers(monkeypatch, pools_started):
    # 110 codes need 7 chunks of at most 16; three workers get 9 chunks of 12 or 13, three each.
    monkeypatch.setattr(verify_module, "_CHUNK", 16)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 3)
    sizes = []
    batch = verify_module._lambda2_batch
    monkeypatch.setattr(verify_module, "_lambda2_batch", lambda codes: sizes.append(len(codes)) or batch(codes))
    rows = verify_module._evaluate_all(12, 5, 3)
    assert pools_started == [3]
    assert len(sizes) == 9 and sum(sizes) == 110 and set(sizes) == {12, 13}
    assert rows == verify_module._evaluate_all(12, 5, 1)


def test_one_chunk_starts_no_pool(monkeypatch, pools_started):
    # The 110 trees of (12, 5) are one chunk: three jobs would have nothing to share.
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 4)
    rows = verify_module._evaluate_all(12, 5, 3)
    assert pools_started == []
    assert len(rows) == 110


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


def test_a_non_maximal_winner_is_a_mismatch(capsys, monkeypatch):
    # At (12, 7) the maximum is spider:4,3,2,2 alone; a classifier that names spider:4,3,2,1,1 must fail.
    wrong = SpiderProfile((4, 3, 2, 1, 1))
    real = verify_module.classify
    monkeypatch.setattr(
        verify_module, "classify", lambda n, d: real(n, d)._replace(winners=((wrong, spider_lambda2(wrong)),))
    )
    report = verify_classification(12, 7)
    assert report.verdict == "mismatch"
    assert report.argmax_codes == (_spider_code(4, 3, 2, 2),)
    assert report.classifier_codes == (_spider_code(4, 3, 2, 1, 1),)
    assert run(["verify", "12", "7"]) == 3
    line = "n=12 D=7 trees=128 winners=spider:4,3,2,1,1 lambda2=0.27469597861 verdict=mismatch\n"
    assert capsys.readouterr() == (line, "")


def test_a_winner_set_short_of_the_tie_band_is_unresolved(capsys, monkeypatch):
    # A band of 1.0 relative puts every tree of (12, 7) within it; one named winner leaves the tie unresolved.
    monkeypatch.setattr(verify_module, "_TIE_RTOL", 1.0)
    report = verify_classification(12, 7)
    assert report.verdict == "tie_unresolved"
    assert len(report.argmax_codes) == report.trees_enumerated == 128
    assert report.classifier_codes == (_spider_code(4, 3, 2, 2),)
    # Only a mismatch fails the command.
    assert run(["verify", "12", "7"]) == 0
    line = "n=12 D=7 trees=128 winners=spider:4,3,2,2 lambda2=0.27469597861 verdict=tie_unresolved\n"
    assert capsys.readouterr() == (line, "")


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
    assert list(verify_unimodality(r, masses)) == [next(verify_unimodality(r, [m])) for m in masses]


def test_unimodality_of_no_masses_is_empty():
    assert sigma_table_rows(3, []) == []
    assert list(verify_unimodality(3, [])) == []


def test_array_verdicts_equal_the_loop_oracle_on_every_table():
    # Every table of r <= 9, M <= 82 (21,481 roots): peaks, verdict and detail.
    for r in range(1, 10):
        for report in verify_unimodality(r, range(1, 83)):
            assert (report.peak_q, report.passed, report.detail) == unimodality_verdict(r, report.M, report.rows)


# A tie at the band's edge: EDGE_BEST - EDGE_VAL equals _STRICT_RTOL * EDGE_BEST exactly.
EDGE_BEST = 2252 * 10**12 * 2.0**-54
EDGE_VAL = EDGE_BEST - 1e-12 * EDGE_BEST

# r = 5, so s = 3: M = 12 must peak at q = 4 and M = 13 at q = 4 or 5.  No real
# table fails, so these (M, q values, sigma values, expected verdict) pin the detail text.
SYNTHETIC_TABLE = [
    (12, [1, 2, 4, 5], [0.2, 0.1, 0.3, 0.25], ((4,), False, "drop before the peak at q=2")),
    (12, [3, 4, 5, 6], [0.1, 0.3, 0.2, 0.25], ((4,), False, "rise after the peak at q=6")),
    (12, [4, 5, 6], [EDGE_VAL, EDGE_BEST, 0.1], ((4, 5), True, "")),
    (13, [2, 3, 4], [0.1, 0.3, 0.2], ((3,), False, "peak at q=(3,), predicted [4, 5]")),
    (
        12,
        [2, 3, 4, 5, 6],
        [0.1, 0.3, 0.2, 0.3, 0.1],
        ((3, 5), False, "rise after the peak at q=5; peak at q=(3, 5), predicted [4]"),
    ),
    # Starts below the last entry of the mass before it: no drop.
    (12, [3, 4, 5], [0.05, 0.2, 0.15], ((4,), True, "")),
    # Starts above the last entry of the mass before it, at its own maximum: no rise.
    (12, [4, 5], [0.3, 0.29], ((4,), True, "")),
]


def test_array_verdicts_on_synthetic_tables(monkeypatch):
    assert EDGE_BEST - EDGE_VAL == verify_module._STRICT_RTOL * EDGE_BEST
    masses = [m for m, _, _, _ in SYNTHETIC_TABLE]
    q = np.array([k for _, qs, _, _ in SYNTHETIC_TABLE for k in qs])
    sigma = np.array([v for _, _, vals, _ in SYNTHETIC_TABLE for v in vals])
    starts = np.cumsum([0] + [len(qs) for _, qs, _, _ in SYNTHETIC_TABLE[:-1]])
    monkeypatch.setattr(verify_module, "_sigma_tables", lambda r, run: (q, sigma, starts))
    ((_, verdicts),) = verify_module._sweep_tables(5, masses)
    for (m, qs, vals, want), verdict in zip(SYNTHETIC_TABLE, verdicts, strict=True):
        assert verdict == (m, *want)
        assert want == unimodality_verdict(5, m, list(zip(qs, vals)))


def _sweep_outputs(capsys):
    reports, printed = {}, {}
    for r in range(1, 10):
        reports[r] = list(verify_unimodality(r, range(1, 83)))
        for fmt in ("text", "csv", "json"):
            printed[r, fmt] = (run(["sweep", "--r", str(r), "--M-max", "82", "--format", fmt]), capsys.readouterr())
    return reports, printed


@pytest.mark.parametrize("entries", [1, 7, 64])
def test_sweeps_are_table_size_independent(monkeypatch, capsys, entries):
    # As the batched kernel is chunk-independent: cutting the masses into
    # more, smaller stacked tables moves no report and no output byte.
    whole = _sweep_outputs(capsys)
    monkeypatch.setattr(verify_module, "_ENTRIES", entries)
    for r in (2, 9):
        tables = [(len(q), len(verdicts)) for (q, _, _), verdicts in verify_module._sweep_tables(r, range(1, 83))]
        assert len(tables) > 1 and all(size <= entries or masses == 1 for size, masses in tables)
    assert _sweep_outputs(capsys) == whole


def _sweep_peak_bytes(m_max):
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert run(["sweep", "--r", "5", "--M-max", str(m_max)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_bounded_by_its_tables():
    # One stacked table of every mass grows with M^2: about 26 MB at M <= 600.
    # Tables of at most _ENTRIES entries hold the peak level as M grows.
    assert _sweep_peak_bytes(900) <= 1.15 * _sweep_peak_bytes(600)


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
