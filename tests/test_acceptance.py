"""Acceptance gate: nine headline guarantees, each timed and reported.

Every test prints exactly one pass/fail line, checks its stated numeric
tolerance, and asserts its wall-clock budget.  Nothing here is mocked:
brute-force enumeration, root solvers, and matrix routes are compared
against each other at full strength, and the production spectrum, from
the leaf distance form, against the Jacobi oracle on the boundary
operator.
"""

import math
import random
import time

import numpy as np
import pytest

from steklov_trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    arm_transfer,
    balance_side_step,
    canonical_code,
    double_spider_rho,
    dtn_matrix,
    lambda2_numeric,
    leaf_distance_matrix,
    leaf_set,
    make_path,
    recognize_spider,
    spider_lambda2,
    steklov_spectrum,
    threshold_data,
    verify_classification,
    verify_unimodality,
)

from oracles import (
    BoundaryFlux,
    balance_main_step,
    cut_sums,
    double_spider_split,
    enumerate_trees,
    jacobi_eigenvalues,
    q_form,
    verify_cross_methods,
    verify_domination,
)

# (D, largest order) grid for the classification certification.
CERTIFICATION_GRID = ((3, 16), (5, 16), (7, 15), (9, 14))

PATH_TOL = 1e-12
BOUND_SLACK = 1e-9
CLOSED_FORM_TOL = 1e-11
MOVE_MARGIN = 1e-10
CROSS_RTOL = 1e-10
# Entrywise agreement of the Jacobi oracle on the boundary operator A with
# the production spectrum, relative to max(1, max|A|): about 4500 float64
# ulps (the worst gap on the criterion 8 trees is 12 ulps).
JACOBI_RTOL = 1e-12


def _report(number: int, name: str, ok: bool, elapsed: float) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} in {elapsed:.2f} s")


def _partitions(total: int, largest: int | None = None):
    """Descending tuples of positive integers summing to `total`."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for tail in _partitions(total - head, head):
            yield (head,) + tail


@pytest.fixture(scope="module")
def certification_runs():
    start = time.monotonic()
    runs = []
    for d, n_max in CERTIFICATION_GRID:
        for n in range(d + 1, n_max + 1):
            runs.append(verify_classification(n, d, jobs=4))
    return runs, time.monotonic() - start


def _jacobi_disagreement(t) -> float | None:
    """Largest entrywise gap between the Jacobi oracle and steklov_spectrum, if too big."""
    a = dtn_matrix(t)
    gap = float(np.max(np.abs(jacobi_eigenvalues(a) - np.array(steklov_spectrum(t).eigenvalues))))
    return gap if gap > JACOBI_RTOL * max(1.0, float(np.max(np.abs(a)))) else None


def test_criterion_1_path_sharpness():
    start = time.monotonic()
    problems = []
    for d in range(2, 16):
        t = make_path(d)
        expect = 2.0 / d
        # Three independent routes: Schur complement, leaf distance form, root equation.
        routes = [float(np.linalg.eigvalsh(dtn_matrix(t))[1]), lambda2_numeric(t)]
        if d % 2 == 1:
            routes.append(1.0 / double_spider_rho(double_spider_split(t)))
        for lam in routes:
            if abs(lam - expect) > PATH_TOL:
                problems.append((d, lam, expect))
        gap = _jacobi_disagreement(t)
        if gap is not None:
            problems.append((d, "jacobi", gap))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    _report(1, "path sharpness", ok, elapsed)
    assert not problems, problems[:5]
    assert elapsed < 1.0


def test_criterion_2_diameter_bound():
    start = time.monotonic()
    problems = []
    for n in range(2, 15):
        for d in range(1, n):
            bound = 2.0 / d + BOUND_SLACK
            for t in enumerate_trees(n, d):
                lam = lambda2_numeric(t)
                if lam > bound:
                    problems.append((n, d, lam))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    _report(2, "He-Hua diameter bound", ok, elapsed)
    assert not problems, problems[:5]
    assert elapsed < 120.0


def test_criterion_3_classification_certification(certification_runs):
    runs, elapsed = certification_runs
    bad = [(r.n, r.D, r.verdict) for r in runs if r.verdict != "match"]
    ok = not bad and elapsed < 600.0
    _report(3, "classification certification", ok, elapsed)
    assert not bad, bad
    assert elapsed < 600.0


def test_criterion_4_closed_forms():
    start = time.monotonic()
    checks = [
        (spider_lambda2(SpiderProfile((3, 2, 1))), (6 - math.sqrt(3)) / 11),
        (spider_lambda2(SpiderProfile((2, 1, 1))), 3.0 / 5.0),
        (double_spider_rho(DoubleSpiderProfile((2, 1), (2,))), 2 + 1 / math.sqrt(3)),
        (double_spider_rho(DoubleSpiderProfile((3, 1), (3, 1))), (5 + math.sqrt(5)) / 2),
        (threshold_data(4, 1).zeta, (3 - math.sqrt(2)) / 7),
        (threshold_data(4, 1).kappa, -(1 + math.sqrt(2))),
        (threshold_data(6, 2).kappa, 1.0),
    ]
    problems = [(got, want) for got, want in checks if abs(got - want) > CLOSED_FORM_TOL]
    elapsed = time.monotonic() - start
    ok = not problems
    _report(4, "closed-form spot checks", ok, elapsed)
    assert not problems, problems


def test_criterion_5_unimodality_sweep():
    start = time.monotonic()
    problems = []
    for r in range(1, 9):
        for report in verify_unimodality(r, range(1, 61)):
            if not report.passed:
                problems.append((r, report.M, report.detail))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    _report(5, "unimodality sweep", ok, elapsed)
    assert not problems, problems[:5]
    assert elapsed < 30.0


def test_criterion_6_monotone_moves():
    start = time.monotonic()
    problems = []
    wrong_roots = []  # a returned root that differs from the result's own, solved from scratch

    spiders = [
        SpiderProfile(p)
        for total in range(2, 15)
        for p in _partitions(total)
        if len(p) >= 2
    ]
    for p in spiders:
        for move in (balance_main_step, balance_side_step):
            try:
                before = spider_lambda2(p)
                q, root = move(p, before)
            except ValueError:
                continue
            after = spider_lambda2(q)
            if after - before <= MOVE_MARGIN:
                problems.append((move.__name__, p.lengths, after - before))
            if root.hex() != after.hex():
                wrong_roots.append((move.__name__, p.lengths, root, after))

    doubles = {
        DoubleSpiderProfile(a, b)
        for total in range(2, 15)
        for split in range(1, total)
        for a in _partitions(split)
        for b in _partitions(total - split)
    }
    for p in sorted(doubles, key=lambda d: (d.a_lengths, d.b_lengths)):
        for k in range(2, len(p.a_lengths + p.b_lengths) + 1):
            try:
                rho_before = double_spider_rho(p)
                q, root = arm_transfer(p, rho_before, k)
            except ValueError:
                continue
            before = 1.0 / rho_before
            rho = double_spider_rho(q)
            after = 1.0 / rho
            if after - before <= MOVE_MARGIN:
                problems.append(("arm_transfer", (p.a_lengths, p.b_lengths, k), after - before))
            if root.hex() != rho.hex():
                wrong_roots.append(("arm_transfer", (p.a_lengths, p.b_lengths, k), root, rho))

    elapsed = time.monotonic() - start
    ok = not problems and not wrong_roots and elapsed < 120.0
    _report(6, "monotone moves", ok, elapsed)
    assert not problems, problems[:5]
    assert not wrong_roots, wrong_roots[:5]
    assert elapsed < 120.0


def test_criterion_7_domination_and_rigidity():
    start = time.monotonic()
    problems = []
    for d in (3, 5, 7, 9, 11):
        for n in range(d + 1, 14):
            report = verify_domination(n, d)
            if not report.passed:
                problems.append((n, d, report.detail))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 300.0
    _report(7, "domination and rigidity", ok, elapsed)
    assert not problems, problems[:5]
    assert elapsed < 300.0


def test_criterion_8_cross_method_agreement():
    start = time.monotonic()
    rng = random.Random(20260816)
    problems = []
    for n in range(2, 13):
        for d in range(1, n):
            for t in enumerate_trees(n, d):
                report = verify_cross_methods(t)
                if not report.passed:
                    problems.append((n, d, report.detail))
                    continue
                gap = _jacobi_disagreement(t)
                if gap is not None:
                    problems.append((n, d, "jacobi", gap))
                m = len(leaf_set(t))
                dist = leaf_distance_matrix(t)
                for _ in range(20):
                    raw = [rng.uniform(-1.0, 1.0) for _ in range(m - 1)]
                    raw.append(-sum(raw))
                    flux = BoundaryFlux(tuple(raw))
                    via_energy = q_form(t, flux)
                    via_cuts = cut_sums(t, flux).total
                    arr = np.array(raw)
                    via_distance = -0.5 * float(arr @ dist @ arr)
                    scale = max(1.0, abs(via_cuts))
                    if (
                        abs(via_energy - via_cuts) > CROSS_RTOL * scale
                        or abs(via_energy - via_distance) > CROSS_RTOL * scale
                    ):
                        problems.append((n, d, via_energy, via_cuts, via_distance))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    _report(8, "cross-method agreement", ok, elapsed)
    assert not problems, problems[:5]
    assert elapsed < 120.0


def test_criterion_9_spider_rigidity(certification_runs):
    start = time.monotonic()
    runs, _ = certification_runs
    problems = []
    for report in runs:
        by_code = {canonical_code(t): t for t in enumerate_trees(report.n, report.D)}
        for code in report.argmax_codes:
            if recognize_spider(by_code[code]) is None:
                problems.append((report.n, report.D, code))
    elapsed = time.monotonic() - start
    ok = not problems
    _report(9, "spider rigidity of winners", ok, elapsed)
    assert not problems, problems
