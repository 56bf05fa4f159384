"""Output checks for the benchmark, computed apart from the package.

Nothing here imports steklov_trees.  Tree counts come from the
rooted-trees-by-height recurrence, eigenvalue claims are bracketed in
exact Fraction arithmetic on the spider root equation, and tree names
are parsed back into order and diameter from the CLI's own text.  Every
check raises CheckError with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction


class CheckError(Exception):
    """An operation's output contradicts an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------ counting -------------------------------


def rooted_counts(height: int, nmax: int) -> list[int]:
    """counts[k] = rooted unlabeled trees with k vertices and height <= height.

    A rooted tree of height <= h is a root over a multiset of rooted trees
    of height <= h-1, so each level is the Euler transform of the last.
    """
    counts = [0] * (nmax + 1)
    counts[1] = 1
    for _ in range(height):
        # Multisets by total size: b[k] = (1/k) sum_j c[j] b[k-j].
        c = [0] * (nmax + 1)
        for d in range(1, nmax + 1):
            if counts[d]:
                for j in range(d, nmax + 1, d):
                    c[j] += d * counts[d]
        b = [1] + [0] * nmax
        for k in range(1, nmax + 1):
            b[k] = sum(c[j] * b[k - j] for j in range(1, k + 1)) // k
        counts = [0] + b[:nmax]
    return counts


def bicentral_tree_count(n: int, diameter: int) -> int:
    """Unlabeled trees of order n and odd diameter 2r+1.

    Cutting the central edge leaves an unordered pair of rooted trees of
    height exactly r whose orders sum to n.
    """
    require(diameter % 2 == 1, f"diameter {diameter} is not odd")
    r = (diameter - 1) // 2
    exact = [a - b for a, b in zip(rooted_counts(r, n), rooted_counts(r - 1, n))]
    total = sum(exact[a] * exact[n - a] for a in range(1, n) if a < n - a)
    if n % 2 == 0:
        half = exact[n // 2]
        total += half * (half + 1) // 2
    return total


# ---------------------------- number format ----------------------------


def number(text: str) -> Fraction:
    """A printed finite number, exactly."""
    try:
        return Fraction(Decimal(text))
    except (ArithmeticError, ValueError) as exc:
        raise CheckError(f"not a finite number: {text[:30]!r}") from exc


def last_place(text: str) -> Fraction:
    """One unit in the 12th significant digit of a printed value."""
    require(number(text) != 0, f"not a nonzero number: {text!r}")
    return Fraction(Decimal(1).scaleb(Decimal(text).adjusted() - 11))


# --------------------------- spider equation ---------------------------


def _spider_f(weights: Counter, x: Fraction) -> Fraction:
    return sum((Fraction(w) / (1 - length * x) for length, w in weights.items()), Fraction(0))


def check_spider_root(lengths: tuple[int, ...], text: str) -> None:
    """The printed lambda_2 brackets the root of sum_i 1/(1 - l_i x) = 0.

    The equation climbs from -inf to +inf on (1/l_1, 1/l_2); a sign
    change across printed +- one last-place unit puts the true root
    inside that interval.  Equal lengths are grouped into weights, so
    thousands of lateral branches cost a handful of Fraction terms.
    """
    ls = sorted(lengths, reverse=True)
    require(len(ls) >= 2 and ls[0] > ls[1], f"spider {ls} has no strict longest branch")
    unit = last_place(text)
    lam = number(text)
    lo, hi = lam - unit, lam + unit
    require(Fraction(1, ls[0]) < lo and hi < Fraction(1, ls[1]), f"lambda2={text} outside (1/{ls[0]}, 1/{ls[1]})")
    weights = Counter(ls)
    require(_spider_f(weights, lo) < 0 < _spider_f(weights, hi), f"lambda2={text} does not bracket the spider root of {ls[:4]}...")


# ----------------------------- tree names ------------------------------


def _lengths(body: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in body.split(","))
    except ValueError as exc:
        raise CheckError(f"bad branch list {body!r}") from exc
    require(all(v >= 1 for v in values), f"nonpositive branch in {body!r}")
    return values


def _rooted_code_shape(code: str) -> tuple[int, int, int]:
    """(vertices, height, characters used) of the AHU code opening code."""
    require(code.startswith("("), f"bad canonical code {code[:20]!r}")
    depth = height = vertices = 0
    for i, ch in enumerate(code):
        if ch == "(":
            depth += 1
            vertices += 1
            height = max(height, depth)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return vertices, height - 1, i + 1
        else:
            raise CheckError(f"bad character {ch!r} in canonical code")
    raise CheckError("unbalanced canonical code")


def name_order_diameter(name: str) -> tuple[int, int]:
    """Order and diameter of a tree from its CLI name.

    Names are shorthand (path:L, spider:..., ds:.../...) or, for other
    shapes of odd diameter, the canonical code: "2" and the two rooted
    codes at the ends of the central edge.
    """
    if name.startswith("path:"):
        (length,) = _lengths(name[5:])
        return length + 1, length
    if name.startswith("spider:"):
        ls = sorted(_lengths(name[7:]), reverse=True)
        require(len(ls) >= 2, f"spider {name} has fewer than two branches")
        return 1 + sum(ls), ls[0] + ls[1]
    if name.startswith("ds:"):
        a_part, sep, b_part = name[3:].partition("/")
        require(sep == "/", f"double spider {name} lacks a side separator")
        a, b = _lengths(a_part), _lengths(b_part)
        return 2 + sum(a) + sum(b), max(a) + max(b) + 1
    if name.startswith("2"):
        na, ha, used = _rooted_code_shape(name[1:])
        nb, hb, used_b = _rooted_code_shape(name[1 + used :])
        require(1 + used + used_b == len(name), f"trailing text after canonical code {name[:20]}")
        require(ha == hb, f"bicentral code with unequal halves {ha}, {hb}")
        return na + nb, ha + hb + 1
    raise CheckError(f"unrecognized tree name {name[:40]!r}")


def check_almost_seesaw(name: str, n: int, diameter: int, lateral_counts: set[int] | None = None) -> tuple[int, ...]:
    """A spider of order n, diameter 2r+1, principal branches (r+1, r), laterals within one."""
    require(name.startswith("spider:"), f"{name[:40]} is not a spider")
    ls = tuple(sorted(_lengths(name[7:]), reverse=True))
    r = (diameter - 1) // 2
    require(1 + sum(ls) == n, f"{name[:40]} has order {1 + sum(ls)}, expected {n}")
    require(ls[:2] == (r + 1, r), f"{name[:40]} principal branches {ls[:2]}, expected {(r + 1, r)}")
    lateral = ls[2:]
    require(bool(lateral), f"{name[:40]} has no lateral branch")
    require(lateral[0] - lateral[-1] <= 1, f"{name[:40]} laterals differ by more than one")
    if lateral_counts is not None:
        require(len(lateral) in lateral_counts, f"{name[:40]} has {len(lateral)} laterals, expected one of {sorted(lateral_counts)}")
    return ls


def predicted_lateral_counts(mass: int, s: int) -> set[int]:
    """The two branch counts nearest M/s, where the classification puts the maximum."""
    return {max(1, mass // s), math.ceil(mass / s)}


# ------------------------------ per command -----------------------------


def _fields(line: str, keys: tuple[str, ...]) -> dict[str, str]:
    parts = line.split(" ")
    require(len(parts) == len(keys), f"expected {len(keys)} fields in {line[:60]!r}")
    out = {}
    for part, key in zip(parts, keys):
        k, sep, v = part.partition("=")
        require(sep == "=" and k == key, f"expected {key}= in {line[:60]!r}")
        out[key] = v
    return out


def check_verify(out: str, n: int, diameter: int, expected_trees: int) -> None:
    """One verify line: exact tree count, a match, and a lambda_2 on the winner's root."""
    lines = out.splitlines()
    require(len(lines) == 1, f"verify printed {len(lines)} lines")
    f = _fields(lines[0], ("n", "D", "trees", "winners", "lambda2", "verdict"))
    require((f["n"], f["D"]) == (str(n), str(diameter)), f"verify answered for n={f['n']} D={f['D']}")
    require(f["trees"] == str(expected_trees), f"trees={f['trees']}, bicentral count is {expected_trees}")
    require(f["verdict"] == "match", f"verdict={f['verdict']}")
    require(number(f["lambda2"]) < Fraction(2, diameter), f"lambda2={f['lambda2']} not below 2/D")
    mass = n - diameter - 1
    counts = predicted_lateral_counts(mass, ((diameter - 1) // 2 + 1) // 2)
    winners = [check_almost_seesaw(w, n, diameter, counts) for w in f["winners"].split(";")]
    errors = []
    for ls in winners:
        try:
            check_spider_root(ls, f["lambda2"])
            return
        except CheckError as exc:
            errors.append(str(exc))
    raise CheckError(errors[0])


def check_classify(out: str, n: int, diameter: int) -> None:
    """Winners are almost seesaw spiders with lambda_2 bracketed exactly."""
    lines = out.splitlines()
    require(len(lines) >= 2, "classify printed no candidate")
    head = _fields(lines[0], ("n", "D", "case", "tie"))
    require((head["n"], head["D"]) == (str(n), str(diameter)), f"classify answered for n={head['n']} D={head['D']}")
    mass = n - diameter - 1
    counts = predicted_lateral_counts(mass, ((diameter - 1) // 2 + 1) // 2)
    best_loser = None
    winners = []
    for line in lines[1:]:
        mark, _, rest = line.partition(" ")
        require(mark in ("winner", "loser"), f"bad candidate line {line[:60]!r}")
        f = _fields(rest, ("q", "tree", "lambda2"))
        lam = number(f["lambda2"])
        if mark == "loser":
            best_loser = lam if best_loser is None else max(best_loser, lam)
            continue
        ls = check_almost_seesaw(f["tree"], n, diameter, counts)
        require(f["q"] == str(len(ls) - 2), f"q={f['q']} but {len(ls) - 2} laterals")
        check_spider_root(ls, f["lambda2"])
        winners.append(lam)
    require(bool(winners), "classify named no winner")
    if head["tie"] == "false":
        require(len(winners) == 1, f"{len(winners)} winners without a tie")
        if best_loser is not None:
            require(winners[0] >= best_loser, "a loser has the larger lambda2")
    else:
        require(head["tie"] == "true", f"tie={head['tie']}")


def check_sweep(out: str, r: int, m_max: int) -> None:
    """One passing line per M, each peaking at floor(M/s) or ceil(M/s)."""
    lines = out.splitlines()
    require(len(lines) == m_max, f"sweep printed {len(lines)} lines, expected {m_max}")
    s = (r + 1) // 2
    for mass, line in enumerate(lines, start=1):
        head, _, verdict = line.rpartition(" ")
        require(verdict == "pass", f"sweep line {line[:60]!r} does not pass")
        f = _fields(head, ("r", "M", "peak_q"))
        require((f["r"], f["M"]) == (str(r), str(mass)), f"sweep line {line[:40]!r} out of order")
        peaks = set(_lengths(f["peak_q"]))
        require(peaks <= predicted_lateral_counts(mass, s), f"r={r} M={mass} peaks at {sorted(peaks)}")


def check_reduce(out: str, n: int, diameter: int) -> None:
    """Trace keeps n and D, never lowers lambda_2, and ends at an almost seesaw spider."""
    steps = [_fields(line, ("step", "move", "tree", "lambda2")) for line in out.splitlines()]
    require(len(steps) >= 2, "reduce printed fewer than two steps")
    require(steps[0]["move"] == "input" and steps[-1]["move"] == "result", "trace must run from input to result")
    prev = None
    for i, f in enumerate(steps):
        require(f["step"] == str(i), f"step {f['step']} out of order")
        shape = name_order_diameter(f["tree"])
        require(shape == (n, diameter), f"step {i} has (n, D)={shape}, expected {(n, diameter)}")
        if prev is not None:
            require(
                number(f["lambda2"]) >= number(prev) - last_place(prev),
                f"lambda2 fell from {prev} to {f['lambda2']} at step {i}",
            )
        prev = f["lambda2"]
    check_almost_seesaw(steps[-1]["tree"], n, diameter)


def single_value(out: str) -> str:
    lines = out.splitlines()
    require(len(lines) == 1, f"expected one value, got {len(lines)} lines")
    number(lines[0])
    return lines[0]


# Agreement asked of two lambda_2 routes, and of a route with a closed form.
RTOL = Fraction(1, 10**10)


def check_path_lambda2(out: str, length: int) -> None:
    """lambda_2 of the path with L edges is 2/L.

    Within 1e-10 relative, not the 12th printed digit: the dense solve on
    an L-vertex path has condition number about L^2, and at L=3000 its
    error reaches the 12th digit.
    """
    value = single_value(out)
    exact = Fraction(2, length)
    require(abs(number(value) - exact) <= RTOL * exact, f"path:{length} lambda2={value}, exact 2/L")


def check_spectrum(out: str, leaves: int, diameter: int) -> str:
    """m ascending eigenvalues from 0, with lambda_2 under the He-Hua bound 2/D."""
    values = out.splitlines()
    require(len(values) == leaves, f"spectrum has {len(values)} values, tree has {leaves} leaves")
    exact = [number(v) for v in values]
    require(exact[0] == 0, f"bottom eigenvalue {values[0]} is not 0")
    require(all(a <= b for a, b in zip(exact, exact[1:])), "spectrum not ascending")
    require(0 < exact[1] <= Fraction(2, diameter), f"lambda2={values[1]} outside (0, 2/D]")
    return values[1]


class RouteAgreement:
    """lambda_2 of one tree by several routes must agree within 1e-10 relative."""

    def __init__(self) -> None:
        self.values: dict[str, Fraction] = {}

    def record(self, route: str, text: str) -> None:
        value = number(text)
        for other, seen in self.values.items():
            require(
                abs(value - seen) <= RTOL * max(value, seen),
                f"route {route} gives {text}, route {other} gave {float(seen)!r}",
            )
        self.values.setdefault(route, value)


def check_route_lambda2(out: str, diameter: int, routes: RouteAgreement, route: str) -> None:
    value = single_value(out)
    require(0 < number(value) <= Fraction(2, diameter), f"lambda2={value} outside (0, 2/D]")
    routes.record(route, value)


def check_spectrum_route(out: str, leaves: int, diameter: int, routes: RouteAgreement) -> None:
    routes.record("spectrum", check_spectrum(out, leaves, diameter))
