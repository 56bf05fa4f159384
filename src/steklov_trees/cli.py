"""Command-line front end for spectra, classification, and certification.

One executable with one subcommand per library entry point.  Output is
deterministic byte-for-byte for a fixed input and format: floats are
printed to 12 significant digits, JSON carries them as decimal strings,
and verification results come in canonical code order for any job
count.  Exit codes: 0 success, 1 usage error, 2 domain error,
3 verification mismatch, 4 internal numeric or resource failure.  Every
error is one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .classify import candidate_profiles, classify
from .reduce import greedy_ascent_trace
from .spectral import dtn_matrix, lambda2_numeric, steklov_spectrum
from .trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    _double_spider_shorthand,
    _spider_shorthand,
    canonical_code,
    format_tree_text,
    make_double_spider,
    make_spider,
    parse_tree,
    parse_tree_text,
    render_shorthand,
)
from .verify import _root_routes, verify_classification, verify_unimodality


class _UsageError(Exception):
    """Bad invocation, distinct from a bad value inside a valid one."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _print_json(obj: object) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _tree_name(t: Tree) -> str:
    return render_shorthand(t) or canonical_code(t).decode("ascii")


# How `reduce` names a trace step's shape, and builds its tree for json's tree_text.
_REDUCE_SHAPES = {
    Tree: (_tree_name, lambda t: t),
    SpiderProfile: (_spider_shorthand, make_spider),
    DoubleSpiderProfile: (_double_spider_shorthand, make_double_spider),
}


def _load_tree(args: argparse.Namespace) -> Tree:
    if args.file is not None:
        if args.tree is not None:
            raise _UsageError("give either a tree shorthand or --file, not both")
        with open(args.file, encoding="utf-8") as fh:
            return parse_tree_text(fh.read())
    if args.tree is None:
        raise _UsageError("a tree shorthand or --file is required")
    return parse_tree(args.tree)


# ----------------------------- subcommands -----------------------------


def _cmd_spectrum(args: argparse.Namespace) -> int:
    tree = _load_tree(args)
    lams = steklov_spectrum(tree).eigenvalues
    if args.format == "text":
        for lam in lams:
            print(_fmt(lam))
    elif args.format == "csv":
        _print_csv(["index", "lambda"], [[str(i + 1), _fmt(lam)] for i, lam in enumerate(lams)])
    else:
        _print_json(
            {
                "tree": _tree_name(tree),
                "tree_text": format_tree_text(tree),
                "eigenvalues": [_fmt(lam) for lam in lams],
            }
        )
    return 0


def _cmd_lambda2(args: argparse.Namespace) -> int:
    tree = _load_tree(args)
    if args.method == "distance":
        lam = lambda2_numeric(tree)
    elif args.method == "matrix":
        lam = float(np.linalg.eigvalsh(dtn_matrix(tree))[1])
    else:
        route = next(_root_routes(tree), None)
        if route is None:
            raise ValueError(
                "root method needs a spider with a strict longest branch "
                "or a double spider with equal longest sides"
            )
        lam = route[1]
    if args.format == "text":
        print(_fmt(lam))
    elif args.format == "csv":
        _print_csv(["method", "lambda2"], [[args.method, _fmt(lam)]])
    else:
        _print_json(
            {
                "tree": _tree_name(tree),
                "tree_text": format_tree_text(tree),
                "method": args.method,
                "lambda2": _fmt(lam),
            }
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    result = classify(args.n, args.D)
    rows = [(_spider_shorthand(p), lam, len(p.lengths) - 2, (p, lam) in result.winners) for p, lam in result.candidates]
    if args.format == "text":
        print(f"n={args.n} D={args.D} case={result.case_tag} tie={str(result.tie_flag).lower()}")
        for name, lam, q, won in rows:
            mark = "winner" if won else "loser"
            print(f"{mark} q={q} tree={name} lambda2={_fmt(lam)}")
    elif args.format == "csv":
        _print_csv(
            ["case", "q", "candidate", "lambda2", "winner"],
            [[result.case_tag, str(q), name, _fmt(lam), str(won).lower()] for name, lam, q, won in rows],
        )
    else:
        _print_json(
            {
                "n": args.n,
                "D": args.D,
                "case": result.case_tag,
                "tie": result.tie_flag,
                "candidates": [
                    {
                        "tree": name,
                        "tree_text": format_tree_text(parse_tree(name)),
                        "q": q,
                        "lambda2": _fmt(lam),
                        "winner": won,
                    }
                    for name, lam, q, won in rows
                ],
            }
        )
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    pair = candidate_profiles(args.n, args.D)
    if pair is None:
        name = f"path:{args.D}"
        if args.format == "text":
            print(f"n={args.n} D={args.D} M=0 path tree={name}")
        elif args.format == "csv":
            _print_csv(["slot", "q", "c", "t", "tree"], [["path", "", "", "", name]])
        else:
            _print_json({"n": args.n, "D": args.D, "M": 0, "candidates": [{"slot": "path", "tree": name}]})
        return 0

    slots = [("minus", pair.q_minus, pair.as_minus), ("plus", pair.q_plus, pair.as_plus)]
    named = [(slot, q, p, _spider_shorthand(p.spider_profile())) for slot, q, p in slots]
    if args.format == "text":
        print(f"n={args.n} D={args.D} M={pair.M} s={pair.s} q_minus={pair.q_minus} q_plus={pair.q_plus}")
        for slot, q, p, name in named:
            print(f"{slot} q={q} c={p.c} t={p.t} tree={name}")
    elif args.format == "csv":
        _print_csv(
            ["slot", "q", "c", "t", "tree"],
            [[slot, str(q), str(p.c), str(p.t), name] for slot, q, p, name in named],
        )
    else:
        _print_json(
            {
                "n": args.n,
                "D": args.D,
                "M": pair.M,
                "s": pair.s,
                "q_minus": pair.q_minus,
                "q_plus": pair.q_plus,
                "candidates": [
                    {"slot": slot, "q": q, "c": p.c, "t": p.t, "tree": name}
                    for slot, q, p, name in named
                ],
            }
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.r < 1 or args.m_max < 1:
        raise ValueError(f"need --r >= 1 and --M-max >= 1, got --r {args.r}, --M-max {args.m_max}")
    reports = verify_unimodality(args.r, range(1, args.m_max + 1))
    failed = [rep for rep in reports if not rep.passed]
    if args.format == "text":
        for rep in reports:
            peaks = ",".join(str(q) for q in rep.peak_q)
            verdict = "pass" if rep.passed else f"FAIL ({rep.detail})"
            print(f"r={rep.r} M={rep.M} peak_q={peaks} {verdict}")
    elif args.format == "csv":
        rows = []
        for rep in reports:
            for q, sigma in rep.rows:
                rows.append(
                    [
                        str(rep.r),
                        str(rep.M),
                        str(q),
                        _fmt(sigma),
                        str(q in rep.peak_q).lower(),
                        str(rep.passed).lower(),
                    ]
                )
        _print_csv(["r", "M", "q", "sigma", "peak", "passed"], rows)
    else:
        _print_json(
            [
                {
                    "r": rep.r,
                    "M": rep.M,
                    "rows": [{"q": q, "sigma": _fmt(sigma)} for q, sigma in rep.rows],
                    "peak_q": list(rep.peak_q),
                    "passed": rep.passed,
                    "detail": rep.detail,
                }
                for rep in reports
            ]
        )
    return 3 if failed else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    trace = greedy_ascent_trace(_load_tree(args))
    steps = [(i, move, shape, _REDUCE_SHAPES[type(shape)][0](shape), lam) for i, (move, shape, lam) in enumerate(trace)]
    if args.format == "text":
        for i, move, _, name, lam in steps:
            print(f"step={i} move={move} tree={name} lambda2={_fmt(lam)}")
    elif args.format == "csv":
        _print_csv(
            ["step", "move", "tree", "lambda2"],
            [[str(i), move, name, _fmt(lam)] for i, move, _, name, lam in steps],
        )
    else:
        _print_json(
            {
                "steps": [
                    {
                        "step": i,
                        "move": move,
                        "tree": name,
                        "tree_text": format_tree_text(_REDUCE_SHAPES[type(shape)][1](shape)),
                        "lambda2": _fmt(lam),
                    }
                    for i, move, shape, name, lam in steps
                ]
            }
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all_orders:
        orders = range(args.D + 1, args.n + 1)
    else:
        orders = [args.n]
    lines = []
    worst = 0
    for n in orders:
        report = verify_classification(n, args.D, jobs=args.jobs)
        winners = ";".join(_spider_shorthand(p) for p in report.classifier_winners)
        lines.append((report, winners))
        if report.verdict == "mismatch":
            worst = 3
    if args.format == "text":
        for report, winners in lines:
            print(
                f"n={report.n} D={report.D} trees={report.trees_enumerated} "
                f"winners={winners} lambda2={_fmt(report.argmax_lambda2)} verdict={report.verdict}"
            )
    elif args.format == "csv":
        _print_csv(
            ["n", "D", "trees", "winners", "lambda2", "verdict"],
            [
                [str(r.n), str(r.D), str(r.trees_enumerated), winners, _fmt(r.argmax_lambda2), r.verdict]
                for r, winners in lines
            ],
        )
    else:
        _print_json(
            [
                {
                    "n": r.n,
                    "D": r.D,
                    "trees": r.trees_enumerated,
                    "winners": winners.split(";"),
                    "argmax_codes": [code.decode("ascii") for code in r.argmax_codes],
                    "classifier_codes": [code.decode("ascii") for code in r.classifier_codes],
                    "lambda2": _fmt(r.argmax_lambda2),
                    "verdict": r.verdict,
                }
                for r, winners in lines
            ]
        )
    return worst


# ------------------------------- parser --------------------------------


def _add_tree_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("tree", nargs="?", help="shorthand: path:L, spider:3,2,1, ds:2,1/2, as:r,q,c,t")
    sub.add_argument("--file", help="read the tree from an edge-list file instead")


def _add_format_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["text", "csv", "json"], default="text")


@functools.cache  # one parser per process, built on first use; parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="steklov", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("spectrum", help="full Steklov spectrum of a tree")
    _add_tree_arguments(sub)
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_spectrum)

    sub = subs.add_parser("lambda2", help="first nonzero Steklov eigenvalue")
    _add_tree_arguments(sub)
    sub.add_argument(
        "--method",
        choices=["matrix", "distance", "root"],
        default="distance",
        help="distance: leaf distance form, as in spectrum; matrix: DtN Schur complement; root: root equation",
    )
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_lambda2)

    sub = subs.add_parser("classify", help="maximizer set for order n and odd diameter D")
    sub.add_argument("n", type=int)
    sub.add_argument("D", type=int)
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_classify)

    sub = subs.add_parser("candidates", help="balanced candidate parameters for (n, D)")
    sub.add_argument("n", type=int)
    sub.add_argument("D", type=int)
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_candidates)

    sub = subs.add_parser("sweep", help="balanced-family tables and unimodality verdicts")
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--M-max", dest="m_max", type=int, required=True)
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_sweep)

    sub = subs.add_parser("reduce", help="greedy ascent trace from a tree to an almost seesaw tree")
    _add_tree_arguments(sub)
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_reduce)

    sub = subs.add_parser("verify", help="certify the classifier against brute force")
    sub.add_argument("n", type=int, help="order, or the largest order with --all-orders")
    sub.add_argument("D", type=int)
    sub.add_argument("--all-orders", action="store_true", help="run every order from D+1 up to n")
    sub.add_argument(
        "--jobs", type=int, default=None, help="shard workers, at most the CPU count (default: STEKLOV_JOBS or 1)"
    )
    _add_format_argument(sub)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.error("a subcommand is required")
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        # Internal failures: a solver that cannot certify its answer, or
        # an input too large for the dense routes.
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
