"""Self-test of the benchmark's output checks.

Runs the checkout's CLI on small inputs, confirms that every check
accepts the genuine output, then feeds each check perturbed copies (a
wrong count, a nudged eigenvalue, a non-seesaw winner, a falling trace,
...) and confirms that each is rejected.  Usage, from the root of a
checkout:

    python3 perfbench/selftest.py

Exits 0 when every genuine output passes and every perturbed one fails.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
import tempfile
from functools import partial
from pathlib import Path

import checks
import run
import workloads


def cli_output(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"steklov {' '.join(argv)} exited {code}")
    return out.getvalue()


def nudge(text: str, key: str = "lambda2", factor: float = 1 + 1e-8, index: int = 0) -> str:
    """Scale the index-th `key=value` number by factor."""
    matches = list(re.finditer(rf"{key}=([0-9.e-]+)", text))
    m = matches[index]
    return text[: m.start(1)] + f"{float(m.group(1)) * factor:.12g}" + text[m.end(1) :]


def replace_line(text: str, index: int, new: str) -> str:
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def scale_line(text: str, index: int, factor: float) -> str:
    lines = text.splitlines()
    return replace_line(text, index, f"{float(lines[index]) * factor:.12g}")


def swap_trace_values(text: str) -> str:
    """Give the input step the result's lambda_2 and vice versa."""
    lines = text.splitlines()
    first = re.search(r"lambda2=(\S+)", lines[0]).group(1)
    last = re.search(r"lambda2=(\S+)", lines[-1]).group(1)
    lines[0] = lines[0].replace(f"lambda2={first}", f"lambda2={last}")
    lines[-1] = lines[-1].replace(f"lambda2={last}", f"lambda2={first}")
    return "\n".join(lines) + "\n"


def write_random_tree(path: Path, n: int, leaves: int, diameter: int) -> str:
    edges = workloads.random_tree(random.Random(f"selftest-{n}"), n, leaves, diameter)
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def cases(cli, workdir: Path) -> list[tuple[str, object, str, list[tuple[str, str]]]]:
    """(name, check, genuine output, [(perturbation, output), ...])."""
    out = []

    verify = cli_output(cli, ["verify", "11", "5"])
    check = partial(checks.check_verify, n=11, diameter=5, expected_trees=checks.bicentral_tree_count(11, 5))
    trees = re.search(r"trees=(\d+)", verify).group(1)
    out.append(
        (
            "verify 11 5",
            check,
            verify,
            [
                ("tree count off by one", verify.replace(f"trees={trees}", f"trees={int(trees) + 1}")),
                ("mismatch verdict", verify.replace("verdict=match", "verdict=mismatch")),
                ("lambda2 off by 1e-8", nudge(verify)),
                ("lambda2 at 2/D", re.sub(r"lambda2=\S+", "lambda2=0.4", verify)),
                ("winner order off by one", re.sub(r"(winners=\S+)", r"\1,1", verify)),
            ],
        )
    )

    for n, d in ((20, 7), (400, 41)):
        text = cli_output(cli, ["classify", str(n), str(d)])
        winner = text.splitlines()[1]
        lengths = re.search(r"tree=spider:(\S+)", winner).group(1).split(",")
        r = (d - 1) // 2
        unbalanced = ",".join([str(r + 1), str(r), str(int(lengths[2]) + 1)] + lengths[3:-1] + [str(int(lengths[-1]) - 1)]) if len(lengths) > 3 else None
        perturbed = [
            ("winner lambda2 off by 1e-8", nudge(text, index=0)),
            ("order off by one", text.replace(f"n={n} ", f"n={n + 1} ", 1)),
            ("principal branches (r+2, r-1)", text.replace(f"spider:{r + 1},{r},", f"spider:{r + 2},{r - 1},", 1)),
            ("lateral count misreported", re.sub(r"q=(\d+)", lambda m: f"q={int(m.group(1)) + 1}", text, count=1)),
        ]
        if unbalanced and int(lengths[-1]) > 1:
            perturbed.append(("laterals two apart", text.replace("spider:" + ",".join(lengths), "spider:" + unbalanced, 1)))
        if "loser" in text:
            perturbed.append(("loser beats winner", text.replace("winner", "@").replace("loser", "winner").replace("@", "loser")))
        out.append((f"classify {n} {d}", partial(checks.check_classify, n=n, diameter=d), text, perturbed))

    sweep = cli_output(cli, ["sweep", "--r", "5", "--M-max", "9"])
    out.append(
        (
            "sweep r=5",
            partial(checks.check_sweep, r=5, m_max=9),
            sweep,
            [
                ("peak moved", re.sub(r"M=9 peak_q=\S+", "M=9 peak_q=9", sweep)),
                ("failed verdict", replace_line(sweep, 3, sweep.splitlines()[3].replace(" pass", " FAIL (x)"))),
                ("line missing", "\n".join(sweep.splitlines()[:-1]) + "\n"),
            ],
        )
    )

    n, d = 30, 19
    path = write_random_tree(workdir / "random.txt", n, 6, d)
    for argv in (["reduce", "spider:4,1,1"], ["reduce", "--file", path]):
        tn, td = (7, 5) if argv[1].startswith("spider") else (n, d)
        text = cli_output(cli, argv)
        lines = text.splitlines()
        out.append(
            (
                " ".join(argv[:2]),
                partial(checks.check_reduce, n=tn, diameter=td),
                text,
                [
                    ("lambda2 falls", swap_trace_values(text)),
                    ("step changes the order", replace_line(text, 1, re.sub(r"tree=\S+", f"tree=path:{tn}", lines[1]))),
                    ("result not almost seesaw", replace_line(text, len(lines) - 1, re.sub(r"tree=\S+", f"tree=spider:{td - 1},1," + "1," * (tn - td - 2) + "1", lines[-1]))),
                    ("trace ends early", "\n".join(lines[:-1]) + "\n"),
                ],
            )
        )

    text = cli_output(cli, ["lambda2", "path:40"])
    out.append(
        (
            "lambda2 path:40",
            partial(checks.check_path_lambda2, length=40),
            text,
            [("off by 1e-9", scale_line(text, 0, 1 + 1e-9)), ("not a number", "nan\n"), ("garbage", "0.05x\n")],
        )
    )

    leafy = write_random_tree(workdir / "leafy.txt", 24, 14, 9)
    spectrum = cli_output(cli, ["spectrum", "--file", leafy])
    matrix = cli_output(cli, ["lambda2", "--file", leafy])
    distance = cli_output(cli, ["lambda2", "--method", "distance", "--file", leafy])

    def routes_check(distance_out: str) -> None:
        routes = checks.RouteAgreement()
        checks.check_spectrum_route(spectrum, leaves=14, diameter=9, routes=routes)
        checks.check_route_lambda2(matrix, diameter=9, routes=routes, route="matrix")
        checks.check_route_lambda2(distance_out, diameter=9, routes=routes, route="distance")

    out.append(
        (
            "leafy routes",
            routes_check,
            distance,
            [("distance route off by 1e-8", scale_line(distance, 0, 1 + 1e-8))],
        )
    )
    spectrum_check = partial(checks.check_spectrum, leaves=14, diameter=9)
    out.append(
        (
            "leafy spectrum",
            spectrum_check,
            spectrum,
            [
                ("value missing", "\n".join(spectrum.splitlines()[:-1]) + "\n"),
                ("bottom not zero", replace_line(spectrum, 0, "1e-3")),
                ("not ascending", replace_line(spectrum, 2, "1e-6")),
                ("lambda2 above 2/D", replace_line(spectrum, 1, "0.3")),
            ],
        )
    )
    return out


def main() -> int:
    if not (run.SRC / "steklov_trees" / "cli.py").is_file():
        print(f"error: no steklov_trees package under {run.SRC}", file=sys.stderr)
        return 2
    cli = run._import_cli()
    problems = []
    total = 0
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name, check, genuine, perturbed in cases(cli, Path(tmp)):
            total += 1
            try:
                check(genuine)
            except checks.CheckError as exc:
                problems.append(f"{name}: genuine output rejected: {exc}")
            for what, text in perturbed:
                total += 1
                try:
                    check(text)
                except checks.CheckError:
                    continue
                problems.append(f"{name}: perturbation '{what}' accepted")
    for line in problems:
        print(line)
    print(f"{total - len(problems)}/{total} self-test cases behaved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
