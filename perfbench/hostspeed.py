"""Host speed samples, so that operation times can be read at a fixed host speed.

On a shared virtual machine the same code runs up to 1.8x slower for
stretches of a fraction of a second to minutes, as other tenants load the
host.  A run cannot wait that out, so the host's speed is sampled around
every timed operation: just before it, every INTERVAL_S while it runs
(from a SIGALRM handler in the process that runs it) and just after it.
A sample is the best of two timings of a small fixed loop that does what
the package's Python code does.  The operation's time divided by the
mean sample, times REFERENCE_SAMPLE_S, is its time on a host that runs
the loop in REFERENCE_SAMPLE_S: "reference seconds".

The loop is the benchmark's own code, so it is the same at every commit
of the package; only the operation's share of the ratio can move.

Run as a script, this file is the fresh interpreter of a timed operation:

    python3 perfbench/hostspeed.py <samples.json> <subcommand args...>

imports the checkout's CLI and runs the subcommand under a Sampler, then
writes the samples as a JSON list.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

# Time of one sample on a Xeon host at 2.1 GHz running Python 3.11 at its
# quickest; slow stretches read up to about 105 us.
REFERENCE_SAMPLE_S = 50e-6
INTERVAL_S = 0.025


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: float) -> None:
        self.x = x
        self.y = y


def _step(acc: float, value: float) -> float:
    return acc * 0.5 + value


def _loop() -> float:
    """Calls, attribute reads, allocation, a dict, a sort and float arithmetic.

    On slow stretches the package's pure-Python operations slow down in
    proportion to this loop (a log-log slope of 1.0); a bare arithmetic
    loop slows less (slope 1.25) and would under-correct.
    """
    acc = 0.0
    seen: dict[int, float] = {}
    points = []
    for i in range(120):
        p = _Point(i, i * 0.25)
        acc = _step(acc, p.x * p.y)
        points.append(p)
        seen[i % 17] = acc
    points.sort(key=lambda q: -q.y)
    return acc + len(seen) + sum(q.x for q in points[:20])


def sample() -> float:
    """Best of two timings of the loop, in seconds (the best drops interrupts)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds(elapsed: float, samples: list[float]) -> float:
    """elapsed, scaled from the sampled host speed to the reference speed."""
    return elapsed * REFERENCE_SAMPLE_S * len(samples) / sum(samples)


class Sampler:
    """Samples the host speed before, during (on a timer) and after a block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())


def child_main(argv: list[str]) -> int:
    """Fresh-interpreter timed operation: <samples.json> <subcommand args...>."""
    out_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sampler = Sampler()
    try:
        with sampler:
            from steklov_trees import cli

            code = cli.run(cli_args)
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps(sampler.samples))
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
