"""Timing spans around the package's public functions, from outside the package.

Tracer.install replaces every public function name in every
steklov_trees module namespace with a wrapper that records a span, so a
call is timed as its caller sees it (cli's `classify`, verify's
`lambda2_numeric`, spectral's own `jacobi_eigenvalues`, ...).  Two public
Tree methods, bfs_distances and path_between, are wrapped on the class.
Generator functions get one span per item drawn.  Names that a later
version of the package no longer has are simply not wrapped; their time
stays in the enclosing span's self time.

Run as a script, this file is the fresh interpreter of a traced
operation: it imports the CLI under a span, installs the wrappers, runs
the subcommand and writes its spans as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "steklov_trees"
MODULES = ("trees", "spectral", "flux", "roots", "classify", "reduce", "verify", "cli")
TREE_METHODS = ("bfs_distances", "path_between")

# Spans that also record a size: the dense Laplacian's computed bytes.
_SIZE_OF = {"spectral.laplacian_matrix": lambda args: 8 * args[0].n * args[0].n}

# Span flags: how the wrapped call ended.
RETURNED, RAISED, EXHAUSTED = 0, 1, 2


class Tracer:
    """Owns the span list of the current operation and the installed wrappers.

    A span is [parent index, name, start, end, flag, size]; parent -1 marks
    a top-level span of the operation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ---------------------------- recording ----------------------------

    def reset(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, name, time.perf_counter(), 0.0, RETURNED, size])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, flag: int = RETURNED) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = flag
        self._stack.pop()

    # ----------------------------- wrapping ----------------------------

    def _wrap(self, fn, name: str):
        size_of = _SIZE_OF.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.close(idx, EXHAUSTED)
                        return
                    except BaseException:
                        self.close(idx, RAISED)
                        raise
                    self.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, size_of(args) if size_of else 0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, RAISED)
                raise
            self.close(idx)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every package module, once each."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                # The harness times cli.run itself; cli's own functions stay bare.
                if not obj.__module__.startswith(PACKAGE + ".") or obj.__module__ == f"{PACKAGE}.cli":
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._originals.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])
        tree_cls = getattr(importlib.import_module(f"{PACKAGE}.trees"), "Tree", None)
        for attr in TREE_METHODS:
            method = getattr(tree_cls, attr, None)
            if inspect.isfunction(method):
                self._originals.append((tree_cls, attr, method))
                setattr(tree_cls, attr, self._wrap(method, f"trees.Tree.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals = []


# ------------------------------ layers -------------------------------

SOLVERS = ("roots.spider_lambda2", "roots.sigma_rM", "roots.double_spider_rho")
MOVES = ("reduce.arm_transfer", "reduce.balance_main_step", "reduce.balance_side_step")
BFS = ("trees.Tree.bfs_distances", "trees.Tree.path_between")
LAYERS = ("cli", "trees", "spectral", "flux", "roots", "classify", "reduce", "verify")

# Per name: calls, inclusive s (outermost spans of that name), self s,
# calls that raised, items a generator yielded, largest recorded size.
CALLS, INCL, SELF, RAISES, ITEMS, SIZE = range(6)


def summarize(spans: list[list], into: dict[str, list], solve_times: list[float]) -> float:
    """Fold one operation's spans into per-name totals; return top-level span time."""
    child = [0.0] * len(spans)
    for parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    top = 0.0
    for i, (parent, name, start, end, flag, size) in enumerate(spans):
        dur = end - start
        rec = into.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
        rec[CALLS] += 1
        rec[SELF] += dur - child[i]
        rec[RAISES] += flag == RAISED
        rec[ITEMS] += flag == RETURNED
        rec[SIZE] = max(rec[SIZE], size)
        up = parent
        while up >= 0 and spans[up][1] != name:
            up = spans[up][0]
        if up < 0:
            rec[INCL] += dur
            if name in SOLVERS:
                solve_times.append(dur)
        if parent < 0:
            top += dur
    return top


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def layer_metrics(totals: dict[str, list], solve_times: list[float], other_s: float) -> dict[str, float]:
    """Per-layer figures from the merged spans of every operation's kept round."""
    zero = [0, 0.0, 0.0, 0, 0, 0]

    def get(name: str, field: int) -> float:
        return totals.get(name, zero)[field]

    def self_of(layer: str) -> float:
        return sum((rec[SELF] for name, rec in totals.items() if name.split(".")[0] == layer and name != "cli.import"), 0.0)

    enumerated = get("trees.enumerate_trees", ITEMS)
    verify_s = get("verify.verify_classification", INCL)
    out = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
    out.update(
        {
            "trees.catalog_s": get("trees.enumerate_trees", INCL),
            "trees.enumerated": enumerated,
            "trees.canonical_code_calls": get("trees.canonical_code", CALLS),
            "trees.canonical_code_s": get("trees.canonical_code", INCL),
            "trees.bfs_calls": sum(get(name, CALLS) for name in BFS),
            "trees.bfs_s": sum(get(name, INCL) for name in BFS),
            "spectral.dtn_calls": get("spectral.dtn_matrix", CALLS),
            "spectral.dtn_s": get("spectral.dtn_matrix", INCL),
            "spectral.eigensolve_calls": get("spectral.jacobi_eigenvalues", CALLS),
            "spectral.eigensolve_s": get("spectral.jacobi_eigenvalues", INCL),
            "spectral.laplacian_mb": get("spectral.laplacian_matrix", SIZE) / 2**20,
            "flux.distance_calls": get("flux.lambda2_via_distance", CALLS),
            "flux.distance_s": get("flux.lambda2_via_distance", INCL),
            "roots.solves": sum(get(name, CALLS) for name in SOLVERS),
            "roots.solve_s": sum(get(name, INCL) for name in SOLVERS),
            "roots.solve_p50_us": percentile(solve_times, 0.5) * 1e6,
            "roots.solve_p90_us": percentile(solve_times, 0.9) * 1e6,
            "roots.failed": sum(get(name, RAISES) for name in SOLVERS),
            "classify.calls": get("classify.classify", CALLS),
            "reduce.ascent_s": get("reduce.greedy_ascent_trace", INCL),
            "reduce.dominate_s": get("reduce.dominating_double_spider", INCL),
            "reduce.moves": sum(get(name, CALLS) for name in MOVES),
            "verify.trees_per_s": enumerated / verify_s if verify_s > 0 else 0.0,
            "verify.unimodality_s": get("verify.verify_unimodality", INCL),
            "other_s": other_s,
        }
    )
    return out


def child_main(argv: list[str]) -> int:
    """Fresh-interpreter traced operation: <spans.json> <subcommand args...>."""
    out_path, cli_args = argv[0], argv[1:]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    tracer = Tracer()
    idx = tracer.open("cli.import")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.close(idx)
    tracer.install()
    idx = tracer.open("cli.run")
    try:
        code = cli.run(cli_args)
        tracer.close(idx)
    except BaseException:
        tracer.close(idx, RAISED)
        raise
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
