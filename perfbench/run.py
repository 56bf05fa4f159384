"""Benchmark of the `steklov` command: certification, classification at scale, single trees.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

The run builds its batch of operations from the seed, then repeats the
whole batch in rounds, each in a fresh seeded order, until --seconds
have passed (at least two rounds).  Every operation's output is checked
against an independent computation.  Each timed pass of an operation is
read in reference seconds (see hostspeed.py): on a shared host the same
code runs up to 1.8x slower for stretches of seconds to minutes, and
scaling by the host speed sampled while the operation ran takes most of
that out.  An operation's time is the median of its passes.  The last
line of stdout is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 2
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150


def log(message: str) -> None:
    print(message, file=sys.stderr)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["STEKLOV_JOBS"] = "1"
    return env


def _import_cli():
    """Import the checkout's CLI module, refusing any other copy of the package."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("steklov_trees.cli")
    if Path(cli.__file__).resolve().parent != SRC / "steklov_trees":
        raise SystemExit(f"steklov_trees imported from {cli.__file__}, not from {SRC}")
    return cli


class Harness:
    """Runs one operation at a time and checks its output."""

    def __init__(self, workdir: Path, cli=None, trace: tracer.Tracer | None = None) -> None:
        self.workdir = workdir
        self.cli = cli
        self.tracer = trace
        self.env = _child_env()

    def _fresh(self, op: workloads.Op, traced: bool) -> tuple[float, int | None, str, str, list]:
        """Run op in a fresh interpreter; the last item is its spans or host samples."""
        record = self.workdir / "record.json"
        record.unlink(missing_ok=True)
        script = "tracer.py" if traced else "hostspeed.py"
        cmd = [sys.executable, str(HERE / script), str(record), *op.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, "", f"timed out after {OP_TIMEOUT_S} s", []
        elapsed = time.perf_counter() - start
        recorded = json.loads(record.read_text()) if record.exists() else []
        err = proc.stderr.strip().splitlines()
        return elapsed, proc.returncode, proc.stdout, err[-1] if err else "", recorded

    def _inprocess(self, op: workloads.Op, traced: bool) -> tuple[float, int | None, str, str, list]:
        """Run op in this process; the last item is its spans or host samples."""
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        if traced:
            self.tracer.reset()
        gc.collect()
        # Traced passes are not sampled: the samples would land in the spans.
        sampler = hostspeed.Sampler()
        with contextlib.nullcontext() if traced else sampler:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if traced:
                        idx = self.tracer.open("cli.run")
                        try:
                            code = self.cli.run(list(op.argv))
                        except BaseException:
                            self.tracer.close(idx, tracer.RAISED)
                            raise
                        self.tracer.close(idx)
                    else:
                        code = self.cli.run(list(op.argv))
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        recorded = self.tracer.reset() if traced else sampler.samples
        return elapsed, code, out.getvalue(), error or err.getvalue().strip(), recorded

    def execute(self, op: workloads.Op, traced: bool) -> tuple[float, str | None, bool, list]:
        """(seconds, failure reason or None, output correct, spans or host samples)."""
        run = self._fresh if op.fresh else self._inprocess
        elapsed, code, stdout, error, recorded = run(op, traced)
        if code is None or (code != 0 and not stdout):
            return elapsed, f"exit {code}: {error}", True, recorded
        try:
            op.check(stdout)
        except checks.CheckError as exc:
            return elapsed, f"wrong output: {exc}", False, recorded
        if code != 0:
            return elapsed, f"exit {code}: {error}", True, recorded
        return elapsed, None, True, recorded


def build_ops(workload: str, seed: int, workdir: Path) -> list[workloads.Op]:
    return workloads.WORKLOADS[workload](random.Random(f"{workload}-{seed}"), workdir)


def measure_setup(args: argparse.Namespace) -> float:
    """Median time, in reference seconds, of fresh interpreters that import the CLI and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, timeout=OP_TIMEOUT_S, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        times.append(hostspeed.reference_seconds(elapsed, json.loads(proc.stdout.splitlines()[-1])))
    return statistics.median(times)


def run_rounds(ops, harness: Harness, seconds: float, seed: int, traced_rounds: bool) -> dict:
    """Repeat the batch in whole rounds; keep every untraced time of each operation.

    With traced_rounds, rounds alternate untraced / traced (in pairs), and
    the spans of each operation's fastest traced round are kept.
    """
    order_rng = random.Random(f"order-{seed}")
    wall: list[list[float]] = [[] for _ in ops]
    ref: list[list[float]] = [[] for _ in ops]
    traced_ref: list[list[float]] = [[] for _ in ops]
    best_traced = [float("inf")] * len(ops)
    kept_spans: list[list] = [[] for _ in ops]
    attempted = failed = 0
    correct = True
    rounds = 0
    min_rounds = 2 * MIN_ROUNDS if traced_rounds else MIN_ROUNDS
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds or (traced_rounds and rounds % 2):
        traced = traced_rounds and rounds % 2 == 1
        # Fresh-interpreter operations install their wrappers in the child.
        in_process = harness.cli is not None
        if traced and in_process:
            harness.tracer.install()
        try:
            order = list(range(len(ops)))
            order_rng.shuffle(order)
            for i in order:
                # Traced passes sample the host only outside their spans.
                before = hostspeed.sample() if traced else 0.0
                elapsed, failure, ok, recorded = harness.execute(ops[i], traced)
                attempted += 1
                if failure is not None:
                    failed += 1
                    correct = correct and ok
                    log(f"round {rounds} {' '.join(ops[i].argv)[:80]}: {failure[:200]}")
                if traced:
                    traced_ref[i].append(hostspeed.reference_seconds(elapsed, [before, hostspeed.sample()]))
                    if elapsed < best_traced[i]:
                        best_traced[i], kept_spans[i] = elapsed, recorded
                else:
                    wall[i].append(elapsed)
                    # A child that died before writing its samples: sample here.
                    ref[i].append(hostspeed.reference_seconds(elapsed, recorded or [hostspeed.sample()]))
        finally:
            if traced and in_process:
                harness.tracer.uninstall()
        rounds += 1
    return {
        "wall": wall,
        "ref": ref,
        "traced_ref": traced_ref,
        "best_traced": best_traced,
        "spans": kept_spans,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "rounds": rounds,
    }


def peak_rss_mb(fresh: bool) -> float:
    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def op_times(result: dict) -> list[float]:
    """Each operation's time: the median of its passes, in reference seconds."""
    return [statistics.median(times) for times in result["ref"]]


def end_to_end(ops, result: dict, setup_s: float, fresh: bool) -> dict[str, float]:
    times = op_times(result)
    return {
        "setup_s": setup_s,
        "batch_s": sum(times),
        "op_p50_ms": tracer.percentile(times, 0.5) * 1e3,
        "peak_rss_mb": peak_rss_mb(fresh),
    }


def per_layer(ops, result: dict, import_s: float, fresh: bool, label: str) -> dict[str, float]:
    totals: dict[str, list] = {}
    solve_times: list[float] = []
    other_s = 0.0
    lines = []
    for op, elapsed, spans in zip(ops, result["best_traced"], result["spans"]):
        other_s += elapsed - tracer.summarize(spans, totals, solve_times)
        lines.append(json.dumps({"argv": list(op.argv), "seconds": elapsed, "spans": spans}))
    traced_batch = sum(result["best_traced"])
    metrics = tracer.layer_metrics(totals, solve_times, other_s)
    in_op_import = totals.get("cli.import", [0, 0.0])[tracer.INCL]
    metrics["cli.import_s"] = in_op_import if fresh else import_s

    times = op_times(result)

    def subcommand_ms(kind: str, p: float) -> float:
        return tracer.percentile([t for op, t in zip(ops, times) if op.kind == kind], p) * 1e3

    metrics.update(
        {
            "cli.verify_ms": subcommand_ms("verify", 0.5),
            "cli.classify_p50_ms": subcommand_ms("classify", 0.5),
            "cli.classify_p90_ms": subcommand_ms("classify", 0.9),
            "cli.sweep_p50_ms": subcommand_ms("sweep", 0.5),
            "cli.reduce_p50_ms": subcommand_ms("reduce", 0.5),
            "cli.lambda2_p50_ms": subcommand_ms("lambda2", 0.5),
            "wall.batch_s": sum(statistics.median(passes) for passes in result["wall"]),
            "trace.batch_s": traced_batch,
            "trace.overhead_s": sum(statistics.median(passes) for passes in result["traced_ref"]) - sum(times),
        }
    )
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) + in_op_import + other_s
    if abs(accounted - traced_batch) > 1e-6 * max(1.0, traced_batch):
        raise RuntimeError(f"layer self times add up to {accounted}, traced batch is {traced_batch}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{label}.jsonl").write_text("\n".join(lines) + "\n")
    table = [f"{name:32s} {value:.6g}" for name, value in sorted(metrics.items())]
    table.append(f"{'self times + import + other_s':32s} {accounted:.6g} (traced batch_s {traced_batch:.6g})")
    (OUT / f"layers-{label}.txt").write_text("\n".join(table) + "\n")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "steklov_trees" / "cli.py").is_file():
        print(f"error: no steklov_trees package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    label = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"inputs-{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            with hostspeed.Sampler() as sampler:
                _import_cli()
                build_ops(args.workload, args.seed, workdir)
            print(json.dumps(sampler.samples))
            return 0
        setup_s = 0.0 if args.trace else measure_setup(args)
        ops = build_ops(args.workload, args.seed, workdir)
        fresh = all(op.fresh for op in ops)
        cli, import_s = None, 0.0
        if not fresh:
            start = time.perf_counter()
            cli = _import_cli()
            import_s = time.perf_counter() - start
        harness = Harness(workdir, cli, tracer.Tracer())
        # Each in-process operation starts from a collected heap; freezing
        # what import and set-up left keeps that collection to microseconds.
        gc.collect()
        gc.freeze()
        result = run_rounds(ops, harness, args.seconds, args.seed, bool(args.trace))
        if args.trace:
            metrics = per_layer(ops, result, import_s, fresh, label)
        else:
            metrics = end_to_end(ops, result, setup_s, fresh)
        log(f"{args.workload}: {len(ops)} operations x {result['rounds']} rounds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
