"""Brute-force certification of the classification and the balanced family.

Everything the classifier claims is checkable at desk scale by exhaustion:
enumerate every unlabeled tree of a given order and diameter as its
canonical code, compute lambda_2 from the leaf distance form P(-D/2)P
straight from those codes, one batch (spectral._lambda2_batch) per chunk
of at most _CHUNK codes, shared equally over at most one process per CPU
and chunk, and compare winner sets; and sweep the balanced family for
unimodality, one stacked table of at most _ENTRIES roots at a time, with
verdicts read off its arrays, as `steklov sweep` does.
Reports never hide a failure: verdicts are match / tie_unresolved /
mismatch, where trees within the relative band _TIE_RTOL (1e-9) of the
maximum count as tied.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .classify import _TIE_RTOL, _near_argmax, _predicted_counts, classify
from .roots import _NEWTON_PASSES, _POLE_ULPS, _pole_sum, q_range_integer
from .spectral import _lambda2_batch
from .trees import SpiderProfile, _center_codes, canonical_code, make_spider

# Trees per stacked batch; bounds the kernel's memory at O(_CHUNK n^2) bytes.
_CHUNK = 4096

# Balanced-family entries per stacked table; bounds a sweep's memory at O(_ENTRIES) floats.
_ENTRIES = 65536


class VerificationReport(NamedTuple):
    """Outcome of one classification certification run; a NamedTuple, compared as a tuple."""

    n: int
    D: int
    trees_enumerated: int
    argmax_codes: tuple[bytes, ...]
    argmax_lambda2: float
    classifier_codes: tuple[bytes, ...]
    classifier_winners: tuple[SpiderProfile, ...]
    verdict: str


class UnimodalityReport(NamedTuple):
    """Shape check of the balanced family over integer branch counts; a NamedTuple, compared as a tuple."""

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


def _bisect_stacked(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, estimate: Callable[[], np.ndarray]
) -> np.ndarray:
    """_bisect run elementwise over arrays of brackets, from an array estimate.

    Each entry walks from its estimate and halves between its own a and b
    as _bisect does, and stops where _bisect stops: when no float is left
    between them, or on a point where f is not finite, a division by zero,
    which it returns.  Every other entry returns a, or b when a is still lo.
    The estimate is computed only if some bracket has inner floats; an
    entry whose estimate is NaN or outside them halves from its midpoint.
    """
    inner_lo, inner_hi = lo + _POLE_ULPS * np.spacing(np.abs(lo)), hi - _POLE_ULPS * np.spacing(np.abs(hi))
    a, b = lo, hi
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = estimate() if (inner_lo < inner_hi).any() else np.nan
        walk = (inner_lo < guess) & (guess < inner_hi)
        value = np.where(walk, guess, 0.5 * (a + b))
        step = np.where(walk, np.spacing(np.abs(guess)), np.inf)
        active = (a < value) & (value < b)
        while active.any():
            y = f(value)
            active &= np.isfinite(y)
            up = active & (y > 0.0)
            b = np.where(up, value, b)
            a = np.where(active ^ up, value, a)
            nxt = np.where(up, b - step, a + step)
            step = 2 * step
            halve = (lo < a) & (b < hi) | ~((inner_lo < nxt) & (nxt < inner_hi))
            value = np.where(active, np.where(halve, 0.5 * (a + b), nxt), value)
            active &= (a < value) & (value < b)
    return np.where((a < value) & (value < b), value, np.where(a > lo, a, b))


def _stacked_estimate(terms: Sequence[tuple[np.ndarray | int, np.ndarray | int]]) -> np.ndarray:
    """_pole_sum_estimate elementwise, for terms of array (or scalar) lengths and weights.

    The same upper model read the same way: l1 and l2 from the first two
    terms, every later term a lateral whose length is at most l2 in every
    entry.  Each entry stops descending where the scalar loop would.
    """
    (l1, w1), (l2, w2), *laterals = terms
    lateral = sum(w * float(l1) / (l1 - l) for l, w in laterals)
    p = w1 * l2 + (w2 + lateral) * l1 + lateral * l2
    q = w1 + w2 + lateral
    x = 2 * q / (p + np.sqrt(np.maximum(p * p - 4 * lateral * l1 * l2 * q, 0.0)))
    rest = [(l, w, w * l) for l, w in terms[1:]]
    for _ in range(_NEWTON_PASSES):
        g = slope = 0.0
        for l, w, wl in rest:
            d = 1 - l * x
            g = g + w / d
            slope = slope + wl / (d * d)
        d = 1 - l1 * x
        nxt = x - (w1 + d * g) / (d * slope - l1 * g)
        down = nxt < x
        if not down.any():
            break
        x = np.where(down, nxt, x)
    return x


def _sigma_tables(r: int, masses: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, sigma, starts): every feasible integer q and its root, for each M in masses, in one flat table.

    Mass i's entries run from starts[i] up to the next start, q rising.
    sigma is the root in (1/(r+1), 1/r) of the balanced-family equation:
    the spider equation of principal branches (r+1, r) and q lateral
    branches of total length M spread as evenly as possible, c = M // q
    long or one longer, with its terms in _spider_terms' order.  One
    stacked bisection solves every root from a stacked estimate.  Where q
    divides M the weight on the longer laterals is zero instead of
    dropped, and their length is capped at r so that the term never sits
    on the pole 1/(r+1): it adds +-0.0 inside the open bracket, and each
    value equals spider_lambda2's of its balanced profile bit for bit.
    """
    spans = np.array([q_range_integer(r, M) for M in masses], dtype=np.int64).reshape(-1, 2)
    counts = spans[:, 1] - spans[:, 0] + 1
    starts = np.cumsum(counts) - counts
    q = np.arange(counts.sum()) + np.repeat(spans[:, 0] - starts, counts)
    m = np.repeat(spans[:, 1], counts)
    c = m // q
    terms = ((r + 1, 1), (r, 1), (c + (c < r), m - c * q), (c, (c + 1) * q - m))
    brackets = np.full(len(q), 1.0 / (r + 1)), np.full(len(q), 1.0 / r)
    sigma = _bisect_stacked(lambda lam: _pole_sum(terms, lam), *brackets, lambda: _stacked_estimate(terms))
    return q, sigma, starts


# Relative band inside which values on the sigma table count as equal
# when the peak and the rise-then-fall shape are checked.
_STRICT_RTOL = 1e-12


def _mass_runs(r: int, masses: Iterable[int]) -> Iterator[list[int]]:
    """The masses cut greedily, as they arrive, into runs of at most _ENTRIES entries (a larger mass alone)."""
    run, size = [], 0
    for M in masses:
        lo, hi = q_range_integer(r, M)
        if run and size + hi - lo + 1 > _ENTRIES:
            yield run
            run, size = [], 0
        run.append(M)
        size += hi - lo + 1
    if run:
        yield run


def _sweep_tables(r: int, masses: Iterable[int]) -> Iterator[tuple[tuple[np.ndarray, ...], list[tuple]]]:
    """Each _sigma_tables of a sweep, in order, with (M, peak_q, passed, detail) for each of its masses.

    Each run is solved and yielded as soon as _mass_runs closes it, on
    the first mass that does not fit, so a sweep holds O(_ENTRIES + M)
    floats at a time and never a list of its masses.
    Peaks are _near_argmax's within _STRICT_RTOL, and each entry is held
    against the one before it in its mass with that band: drops up to the
    first maximum, rises after it.  Detail text is built only on a failure.
    """
    for run in _mass_runs(r, masses):
        q, sigma, starts = table = _sigma_tables(r, run)
        counts = np.diff(starts, append=len(q))
        best = np.maximum.reduceat(sigma, starts)
        top = np.repeat(best, counts)
        band = _STRICT_RTOL * top
        peak = top - sigma <= band
        maxima = np.flatnonzero(sigma == top)
        after = np.arange(len(q)) > np.repeat(maxima[np.searchsorted(maxima, starts)], counts)
        prev = np.roll(sigma, 1)
        drop, rise = ~after & (sigma < prev - band), after & (sigma > prev + band)
        drop[starts] = False
        predicted = np.repeat([_predicted_counts(r, M)[1:] for M in run], counts, axis=0)
        placed = np.logical_or.reduceat(peak & ((q == predicted[:, 0]) | (q == predicted[:, 1])), starts)
        passed = (placed & ~np.logical_or.reduceat(drop | rise, starts)).tolist()

        peaks = np.flatnonzero(peak)
        peak_q, cuts = q[peaks].tolist(), np.searchsorted(peaks, [*starts, len(q)]).tolist()
        verdicts = []
        for i, M in enumerate(run):
            peaks_i, problems = tuple(peak_q[cuts[i] : cuts[i + 1]]), []
            if not passed[i]:
                span = slice(starts[i], starts[i] + counts[i])
                problems += [f"drop before the peak at q={k}" for k in q[span][drop[span]].tolist()]
                problems += [f"rise after the peak at q={k}" for k in q[span][rise[span]].tolist()]
                if not placed[i]:
                    problems.append(f"peak at q={peaks_i}, predicted {sorted(set(_predicted_counts(r, M)[1:]))}")
            verdicts.append((M, peaks_i, passed[i], "; ".join(problems)))
        yield table, verdicts


def verify_unimodality(r: int, masses: Iterable[int]) -> Iterator[UnimodalityReport]:
    """Check rise-then-fall shape and peak position of q -> Sigma_{r,M}(q), for each M in masses.

    Yields the reports in order, one stacked table at a time.  A report
    passes iff its sequence over feasible integer q is unimodal within a
    1e-12 band and its maximum sits at one of the two branch counts nearest M/s.
    """
    for (q, sigma, starts), verdicts in _sweep_tables(r, masses):
        rows, bounds = list(zip(q.tolist(), sigma.tolist())), [*starts.tolist(), len(q)]
        for (M, peak_q, passed, detail), a, b in zip(verdicts, bounds, bounds[1:]):
            yield UnimodalityReport(r, M, tuple(rows[a:b]), peak_q, passed, detail)

