"""Brute-force certification of the classification and the balanced family.

Everything the classifier claims is checkable at desk scale by exhaustion:
enumerate every unlabeled tree of a given order and diameter as its
canonical code, compute lambda_2 from the leaf distance form P(-D/2)P
straight from those codes, one batch (spectral._lambda2_batch) per chunk
of at most _CHUNK codes, shared equally over at most one process per CPU
and chunk, and compare winner sets; and sweep the balanced family for
unimodality, every mass of a radius in one call, as `steklov sweep` does.
Reports never hide a failure: verdicts are match / tie_unresolved /
mismatch, with ties flagged only below the resolution of floating point.
The root equations that a tree's shape admits are listed here too, for
`lambda2 --method root`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .classify import _STRICT_RTOL, _TIE_RTOL, _near_argmax, _predicted_counts, classify
from .roots import _sigma_tables, double_spider_rho, spider_lambda2
from .spectral import _lambda2_batch
from .trees import SpiderProfile, Tree, _center_codes, canonical_code, make_spider, recognize_double_spider, recognize_spider

# Trees per stacked batch; bounds the kernel's memory at O(_CHUNK n^2) bytes.
_CHUNK = 4096


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one classification certification run."""

    n: int
    D: int
    trees_enumerated: int
    argmax_codes: tuple[bytes, ...]
    argmax_lambda2: float
    classifier_codes: tuple[bytes, ...]
    classifier_winners: tuple[SpiderProfile, ...]
    verdict: str


@dataclass(frozen=True)
class UnimodalityReport:
    """Shape check of the balanced family over integer branch counts."""

    r: int
    M: int
    rows: tuple[tuple[int, float], ...]
    peak_q: tuple[int, ...]
    passed: bool
    detail: str


# ------------------------- sharded evaluation --------------------------


def _evaluate_all(n: int, d: int, jobs: int) -> list[tuple[bytes, float]]:
    """(canonical code, lambda_2) for every tree of order n, diameter d, in code order.

    The generator's codes are cut into chunks of at most _CHUNK, equal to
    within one code and, past one chunk, a multiple of the workers in
    number; each is one batch, built from codes alone, mapped in order,
    serially or over at most one process per job, CPU and chunk, so the
    result is byte-identical for any job count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    codes = _center_codes(n, d)
    workers = min(jobs, os.cpu_count() or 1)
    count = -(-len(codes) // (_CHUNK * workers)) * workers if len(codes) > _CHUNK else 1
    chunks = [codes[i * len(codes) // count : (i + 1) * len(codes) // count] for i in range(count)]
    if min(workers, count) == 1:
        parts = map(_lambda2_batch, chunks)
    else:
        # Imported here: the pool machinery costs every other command start-up time and memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_lambda2_batch, chunks))
    return list(zip(codes, (lam for part in parts for lam in part.tolist())))


def verify_classification(n: int, d: int, jobs: int = 1) -> VerificationReport:
    """Compare the classifier's winner set against exhaustive search."""
    # classify checks the domain; an empty enumeration would have no maximum.
    result = classify(n, d)
    rows = _evaluate_all(n, d, jobs)
    argmax, best = _near_argmax(rows, _TIE_RTOL)
    winners = tuple(profile for profile, _ in result.winners)
    classifier = tuple(sorted({canonical_code(make_spider(profile)) for profile in winners}))

    # A classifier winner outside the tie band of the brute-force maximum
    # is a mismatch; naming only part of that band leaves a tie unresolved.
    if set(classifier) == set(argmax):
        verdict = "match"
    elif set(classifier) < set(argmax):
        verdict = "tie_unresolved"
    else:
        verdict = "mismatch"
    return VerificationReport(
        n=n,
        D=d,
        trees_enumerated=len(rows),
        argmax_codes=argmax,
        argmax_lambda2=best,
        classifier_codes=classifier,
        classifier_winners=winners,
        verdict=verdict,
    )


# --------------------------- family sweeps -----------------------------


def verify_unimodality(r: int, masses: Sequence[int]) -> list[UnimodalityReport]:
    """Check rise-then-fall shape and peak position of q -> Sigma_{r,M}(q), for each M in masses.

    One stacked bisection solves every table.  A report passes iff its
    sequence over feasible integer q is unimodal within a 1e-12 band and
    its maximum sits at one of the two branch counts nearest M/s.
    """
    reports = []
    for M, rows in zip(masses, _sigma_tables(r, masses)):
        vals = [lam for _, lam in rows]
        peak_q, best = _near_argmax(rows, _STRICT_RTOL)
        band = _STRICT_RTOL * best
        i_star = vals.index(best)

        problems = []
        for i in range(i_star):
            if vals[i + 1] < vals[i] - band:
                problems.append(f"drop before the peak at q={rows[i + 1][0]}")
        for i in range(i_star, len(vals) - 1):
            if vals[i + 1] > vals[i] + band:
                problems.append(f"rise after the peak at q={rows[i + 1][0]}")

        predicted = set(_predicted_counts(r, M)[1:])
        if not predicted.intersection(peak_q):
            problems.append(f"peak at q={peak_q}, predicted {sorted(predicted)}")

        reports.append(
            UnimodalityReport(r=r, M=M, rows=rows, peak_q=peak_q, passed=not problems, detail="; ".join(problems))
        )
    return reports


# ----------------------------- root routes -----------------------------


def _root_routes(t: Tree) -> Iterator[tuple[str, float]]:
    """lambda_2 from each root equation that t's shape admits, spider first.

    The spider equation needs a strict longest branch; the double-spider
    equation needs equal longest sides.  Values are solved only as drawn.
    """
    spider = recognize_spider(t)
    if spider is not None and spider.lengths[0] > spider.lengths[1]:
        yield "spider_root", spider_lambda2(spider)
    double = recognize_double_spider(t)
    if double is not None and double.a_lengths[0] == double.b_lengths[0]:
        yield "double_spider_root", 1.0 / double_spider_rho(double)
