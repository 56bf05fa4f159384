"""Command-line front end for spectra, classification, and certification.

One executable with one subcommand per library entry point; a process imports
only what its subcommand runs, so reduce, csv, json and the process pool load
on first use.  Output is deterministic byte-for-byte for a fixed input and
format: floats are printed to 12 significant digits, JSON carries them as
decimal strings, and verification results come in canonical code order for any
job count (`verify --jobs` starts at most one worker per CPU and per chunk of
4096 trees).  Exit codes: 0 success, 1 usage error, 2 domain error, 3
verification mismatch, 4 internal numeric or resource failure, such as an
order too large to build.  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .classify import _odd_case, _predicted_counts, classify
from .roots import double_spider_rho, spider_lambda2
from .spectral import dtn_matrix, lambda2_numeric, steklov_spectrum
from .trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    _as_profile,
    _double_spider_shorthand,
    _spider_shorthand,
    canonical_code,
    format_tree_text,
    make_double_spider,
    make_path,
    make_spider,
    parse_tree,
    parse_tree_text,
    recognize_double_spider,
    recognize_spider,
    render_shorthand,
)
from .verify import _sweep_tables, verify_classification, verify_unimodality


class _UsageError(Exception):
    """Bad invocation, distinct from a bad value inside a valid one."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_writer():
    """A csv writer straight onto stdout, in the one dialect of every csv output."""
    import csv  # only --format csv needs it
    return csv.writer(sys.stdout, lineterminator="\n")


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = _csv_writer()
    writer.writerow(header)
    writer.writerows(rows)


def _print_rows(fmt: str, header: list[str], rows: list[list[str]]) -> None:
    """csv: the header, then the rows; text: each row as one line of key=value pairs."""
    if fmt == "csv":
        _print_csv(header, rows)
    else:
        for row in rows:
            print(" ".join(f"{k}={v}" for k, v in zip(header, row)))


def _print_json(obj: object) -> None:
    import json  # only --format json needs it
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
    else:  # a spider has at most one branch vertex and a double spider two: at most one equation applies
        spider, double = recognize_spider(tree), recognize_double_spider(tree)
        if spider is not None and spider.lengths[0] > spider.lengths[1]:
            lam = spider_lambda2(spider)
        elif double is not None and double.a_lengths[0] == double.b_lengths[0]:
            lam = 1.0 / double_spider_rho(double)
        else:
            raise ValueError(
                "root method needs a spider with a strict longest branch "
                "or a double spider with equal longest sides"
            )
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
                        "tree_text": format_tree_text(make_spider(p) if q else make_path(args.D)),
                        "q": q,
                        "lambda2": _fmt(lam),
                        "winner": won,
                    }
                    for (p, _), (name, lam, q, won) in zip(result.candidates, rows)
                ],
            }
        )
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    r, M = _odd_case(args.n, args.D)
    head = {"n": args.n, "D": args.D, "M": M}
    if M == 0:
        rows = [{"slot": "path", "tree": f"path:{args.D}"}]
    else:
        s, q_minus, q_plus = _predicted_counts(r, M)
        head.update(s=s, q_minus=q_minus, q_plus=q_plus)
        # Every name is built before the first print, once per distinct q: an order too large to build prints nothing.
        names = {q: _spider_shorthand(_as_profile(r, q, M)) for q in dict.fromkeys((q_minus, q_plus))}
        rows = [
            {"slot": slot, "q": q, "c": M // q, "t": M % q, "tree": names[q]}
            for slot, q in (("minus", q_minus), ("plus", q_plus))
        ]
    if args.format == "text":  # the path's one row shares the head line
        lines = [" ".join(f"{k}={v}" for k, v in head.items())]
        lines += [" ".join([row["slot"], *(f"{k}={v}" for k, v in row.items() if k != "slot")]) for row in rows]
        print(*lines, sep=" " if M == 0 else "\n")
    elif args.format == "csv":
        header = ["slot", "q", "c", "t", "tree"]
        _print_csv(header, [[str(row.get(k, "")) for k in header] for row in rows])
    else:
        _print_json({**head, "candidates": rows})
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.r < 1 or args.m_max < 1:
        raise ValueError(f"need --r >= 1 and --M-max >= 1, got --r {args.r}, --M-max {args.m_max}")
    masses, passed = range(1, args.m_max + 1), True
    if args.format == "text":  # one write per stacked table, from its verdicts alone
        for _, verdicts in _sweep_tables(args.r, masses):
            passed = passed and all(ok for _, _, ok, _ in verdicts)
            lines = (
                f"r={args.r} M={M} peak_q={','.join(map(str, peaks))} {'pass' if ok else f'FAIL ({why})'}\n"
                for M, peaks, ok, why in verdicts
            )
            sys.stdout.write("".join(lines))
        return 0 if passed else 3
    if args.format == "csv":
        writer = _csv_writer()
    else:
        import json  # only --format json needs it
    for n, rep in enumerate(verify_unimodality(args.r, masses)):  # a report at a time, as its table is solved
        passed = passed and rep.passed
        if args.format == "csv":
            if n == 0:
                writer.writerow(["r", "M", "q", "sigma", "peak", "passed"])
            writer.writerows(
                [str(rep.r), str(rep.M), str(q), _fmt(sigma), str(q in rep.peak_q).lower(), str(rep.passed).lower()]
                for q, sigma in rep.rows
            )
        else:
            # The bytes of json.dumps(reports, indent=2): the report's fields in order, indented inside the brackets.
            item = {**rep._asdict(), "rows": [{"q": q, "sigma": _fmt(sigma)} for q, sigma in rep.rows]}
            sys.stdout.write(("[\n  " if n == 0 else ",\n  ") + json.dumps(item, indent=2).replace("\n", "\n  "))
    sys.stdout.write("\n]\n" if args.format == "json" else "")
    return 0 if passed else 3


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reduce import greedy_ascent_trace  # only this subcommand runs the reduction scheme
    trace = greedy_ascent_trace(_load_tree(args))
    rows = [
        [str(i), move, _REDUCE_SHAPES[type(shape)][0](shape), _fmt(lam)] for i, (move, shape, lam) in enumerate(trace)
    ]
    if args.format == "json":
        _print_json(
            {
                "steps": [
                    {
                        "step": i,
                        "move": move,
                        "tree": name,
                        "tree_text": format_tree_text(_REDUCE_SHAPES[type(shape)][1](shape)),
                        "lambda2": lam,
                    }
                    for i, ((move, shape, _), (_, _, name, lam)) in enumerate(zip(trace, rows))
                ]
            }
        )
    else:
        _print_rows(args.format, ["step", "move", "tree", "lambda2"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    orders = range(args.D + 1, args.n + 1) if args.all_orders else [args.n]
    reports = [verify_classification(n, args.D, jobs=args.jobs) for n in orders]
    rows = [
        [
            str(r.n),
            str(r.D),
            str(r.trees_enumerated),
            ";".join(_spider_shorthand(p) for p in r.classifier_winners),
            _fmt(r.argmax_lambda2),
            r.verdict,
        ]
        for r in reports
    ]
    if args.format == "json":
        _print_json(
            [
                {
                    "n": r.n,
                    "D": r.D,
                    "trees": r.trees_enumerated,
                    "winners": winners.split(";"),
                    "argmax_codes": [code.decode("ascii") for code in r.argmax_codes],
                    "classifier_codes": [code.decode("ascii") for code in r.classifier_codes],
                    "lambda2": lam,
                    "verdict": r.verdict,
                }
                for r, (_, _, _, winners, lam, _) in zip(reports, rows)
            ]
        )
    else:
        _print_rows(args.format, ["n", "D", "trees", "winners", "lambda2", "verdict"], rows)
    return 3 if any(r.verdict == "mismatch" for r in reports) else 0


# ------------------------------- parser --------------------------------


_TREE = [
    ("tree", dict(nargs="?", help="shorthand: path:L, spider:3,2,1, ds:2,1/2, as:r,q,c,t")),
    ("--file", dict(help="read the tree from an edge-list file instead")),
]
_ORDER = [("n", dict(type=int)), ("D", dict(type=int))]
_FORMAT = ("--format", dict(choices=["text", "csv", "json"], default="text"))
_METHOD = dict(
    choices=["matrix", "distance", "root"],
    default="distance",
    help="distance: leaf distance form, as in spectrum; matrix: DtN Schur complement; root: root equation",
)
_JOBS = dict(type=int, default=1, help="worker processes, at most one per CPU and 4096-tree chunk (default: 1)")

# Each subcommand's help line, handler and arguments, in the order its usage lists them.
_SUBCOMMANDS = {
    "spectrum": ("full Steklov spectrum of a tree", _cmd_spectrum, [*_TREE, _FORMAT]),
    "lambda2": ("first nonzero Steklov eigenvalue", _cmd_lambda2, [*_TREE, ("--method", _METHOD), _FORMAT]),
    "classify": ("maximizer set for order n and odd diameter D", _cmd_classify, [*_ORDER, _FORMAT]),
    "candidates": ("balanced candidate parameters for (n, D)", _cmd_candidates, [*_ORDER, _FORMAT]),
    "sweep": (
        "balanced-family tables and unimodality verdicts",
        _cmd_sweep,
        [("--r", dict(type=int, required=True)), ("--M-max", dict(dest="m_max", type=int, required=True)), _FORMAT],
    ),
    "reduce": ("greedy ascent trace from a tree to an almost seesaw tree", _cmd_reduce, [*_TREE, _FORMAT]),
    "verify": (
        "certify the classifier against brute force",
        _cmd_verify,
        [
            ("n", dict(type=int, help="order, or the largest order with --all-orders")),
            ("D", dict(type=int)),
            ("--all-orders", dict(action="store_true", help="run every order from D+1 up to n")),
            ("--jobs", _JOBS),
            _FORMAT,
        ],
    ),
}


def _add_arguments(sub: _Parser, name: str) -> _Parser:
    """Give sub the arguments and handler of the subcommand `name`, from its row of _SUBCOMMANDS."""
    _, handler, arguments = _SUBCOMMANDS[name]
    for flag, options in arguments:
        sub.add_argument(flag, **options)
    sub.set_defaults(handler=handler)
    return sub


@functools.cache  # one parser per subcommand and process, built on its first run; parse_args keeps no state
def _subcommand_parser(name: str) -> _Parser:
    return _add_arguments(_Parser(prog=f"steklov {name}"), name)


def _top_level_parser() -> _Parser:
    """`steklov` with every subcommand: built only for argv that names none first."""
    parser = _Parser(prog="steklov", description=__doc__)
    subs = parser.add_subparsers(dest="command")
    for name, (help_line, _, _) in _SUBCOMMANDS.items():
        _add_arguments(subs.add_parser(name, help=help_line), name)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    try:
        # A subcommand named first builds only its own parser, for the arguments after its name.
        if argv and argv[0] in _SUBCOMMANDS:
            args = _subcommand_parser(argv[0]).parse_args(argv[1:])
        else:
            parser = _top_level_parser()
            args = parser.parse_args(argv)
            if not hasattr(args, "handler"):
                parser.error("a subcommand is required")
        return args.handler(args)
    except SystemExit:  # argparse exits only after printing --help, as error() raises instead
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError, OverflowError) as exc:
        # Internal failures: a solver that cannot certify its answer, or an
        # input too large for the dense routes or for a tuple of branches.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
