"""End-to-end command-line checks: goldens, exit codes, determinism."""

import ast
import contextlib
import csv
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import re
import resource
import select
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_trees import (
    SpiderProfile,
    Tree,
    canonical_code,
    classify,
    diameter,
    format_tree_text,
    make_path,
    make_spider,
    parse_tree_text,
    recognize_spider,
    render_shorthand,
)
from steklov_trees.cli import run
from steklov_trees.verify import VerificationReport
import steklov_trees
import steklov_trees.cli as cli_module
import steklov_trees.verify as verify_module

from oracles import candidate_profiles, prufer_to_edges, sigma_exact, spider_lambda2_exact

# The package's `classify` function shadows its module of that name.
CLASSIFY_MODULE = importlib.import_module("steklov_trees.classify")


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rounds_to(bracket, printed):
    """Whether every number in the exact bracket prints as `printed` at 12 significant digits."""
    lo, hi = bracket
    half = Fraction(10) ** (math.floor(math.log10(lo)) - 11) / 2
    return Fraction(printed) - half <= lo <= hi < Fraction(printed) + half


# ------------------------------- goldens -------------------------------


def test_lambda2_path_golden(capsys):
    code, out, _ = _capture(capsys, ["lambda2", "path:5"])
    assert code == 0
    assert out == "0.4\n"


@pytest.mark.parametrize(
    "tree, value",
    [("path:3003", "0.000666000666001"), ("path:3019", "0.000662471016893")],
)
def test_lambda2_long_path_goldens(capsys, tree, value):
    # 2/L to the last printed digit, also as the spectrum's second line; the
    # Schur complement's dense solve misses it.
    code, out, _ = _capture(capsys, ["lambda2", tree])
    assert code == 0
    assert out == value + "\n"
    code, out, _ = _capture(capsys, ["spectrum", tree])
    assert code == 0
    assert out.splitlines()[:2] == ["0", value]


def test_lambda2_default_method_is_distance_as_in_the_spectrum(capsys):
    code, out, _ = _capture(capsys, ["lambda2", "path:5", "--format", "csv"])
    assert code == 0
    assert out == "method,lambda2\ndistance,0.4\n"
    # Exactly 0.04870631197095005...: the two routes round to different last digits.
    lengths = (21, 20, 6, 5, 4, 3)
    tree = "spider:" + ",".join(map(str, lengths))
    _, distance, _ = _capture(capsys, ["lambda2", tree])
    _, spectrum, _ = _capture(capsys, ["spectrum", tree])
    _, matrix, _ = _capture(capsys, ["lambda2", tree, "--method", "matrix"])
    lo, hi = spider_lambda2_exact(lengths)
    assert Fraction("0.04870631197095") <= lo <= hi < Fraction("0.04870631197105")  # the digits of 0.048706311971
    assert distance == "0.048706311971\n"
    assert distance == spectrum.splitlines(keepends=True)[1] != matrix


@pytest.mark.parametrize("method", ["matrix", "distance", "root"])
def test_lambda2_methods_agree_on_spider(capsys, method):
    code, out, _ = _capture(capsys, ["lambda2", "spider:3,2,1", "--method", method])
    assert code == 0
    assert out == "0.38799538113\n"


def test_lambda2_root_on_double_spider(capsys):
    code, out, _ = _capture(capsys, ["lambda2", "ds:2,1/2", "--method", "root"])
    assert code == 0
    assert out == "0.38799538113\n"


# Exit code, stdout and stderr of `lambda2` by every method in every format: a spider, a double
# spider, an odd and an even path, and a spider with a repeated longest branch; the last two have
# no root equation.
LAMBDA2_GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli_lambda2.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", LAMBDA2_GOLDENS, ids=lambda golden: " ".join(golden["argv"][1:]))
def test_lambda2_goldens(capsys, golden):
    assert _capture(capsys, golden["argv"]) == (golden["code"], golden["stdout"], golden["stderr"])


def test_classify_text_golden(capsys):
    code, out, _ = _capture(capsys, ["classify", "7", "5"])
    assert code == 0
    assert out == (
        "n=7 D=5 case=divisible tie=false\n"
        "winner q=1 tree=spider:3,2,1 lambda2=0.38799538113\n"
    )


def test_classify_csv_golden(capsys):
    code, out, _ = _capture(capsys, ["classify", "15", "9", "--format", "csv"])
    assert code == 0
    assert out == (
        "case,q,candidate,lambda2,winner\n"
        'threshold_compare,2,"spider:5,4,3,2",0.216542364659,true\n'
        'threshold_compare,3,"spider:5,4,2,2,1",0.216351469037,false\n'
    )


def test_classify_prints_a_tie_as_two_winners(capsys, monkeypatch):
    monkeypatch.setattr(CLASSIFY_MODULE, "spider_lambda2", lambda p: 0.25)
    code, out, _ = _capture(capsys, ["classify", "15", "9"])
    assert code == 0
    assert out.splitlines()[0] == "n=15 D=9 case=threshold_compare tie=true"
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["winner", "winner"]
    code, out, _ = _capture(capsys, ["classify", "15", "9", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tie"] is True
    assert [entry["winner"] for entry in doc["candidates"]] == [True, True]
    assert out.count('"winner": true') == 2


def test_candidates_text_golden(capsys):
    code, out, _ = _capture(capsys, ["candidates", "15", "9"])
    assert code == 0
    assert out == (
        "n=15 D=9 M=5 s=2 q_minus=2 q_plus=3\n"
        "minus q=2 c=2 t=1 tree=spider:5,4,3,2\n"
        "plus q=3 c=1 t=2 tree=spider:5,4,2,2,1\n"
    )


def test_candidates_path_case(capsys):
    code, out, _ = _capture(capsys, ["candidates", "6", "5"])
    assert code == 0
    assert out == "n=6 D=5 M=0 path tree=path:5\n"


# Path cases (n = D + 1), M < s (D >= 5), the collapsed and the split pair, a long
# AS tree and the 2^54 radius; the digests were taken when candidates was built
# from CandidatePair and ASParams objects.
_CANDIDATES_GRID = [(n, d) for d in (3, 5, 7, 9, 21, 41) for n in range(d + 1, d + 61)] + [
    (3042, 41),
    (63050394783186947, 36028797018963969),
]


@pytest.mark.parametrize(
    "fmt, hexdigest",
    [
        ("text", "c281101c1dbbdc7e260075c29feb117803016420ed71469048acb8124e88ba77"),
        ("csv", "96bb50820dca5b22e8a38f9d7afa343921ecd06abccb0f76f819f7b78226f246"),
        ("json", "50f3f98524486b2a01a34053ab13dc2dd047deee249dbb934196ea3e9563dff7"),
    ],
)
def test_candidates_digest_golden(capsys, fmt, hexdigest):
    digest = hashlib.sha256()
    for n, d in _CANDIDATES_GRID:
        code, out, err = _capture(capsys, ["candidates", str(n), str(d), "--format", fmt])
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == hexdigest


@pytest.mark.parametrize(
    "fmt, hexdigest",
    [
        ("text", "d87cd6a28dba2cf132715febaf2523bc729c7385e25167129aefc2afe38af089"),
        ("csv", "64ca889cfb49270a3dc678a7ab982636d68eb370119e5f2fc34ac0c2134aaf88"),
        ("json", "5949b57d7f68725533154c2a589f724462dc3c05aaf5c0c4a50d8b2f97b40f0b"),
    ],
)
def test_classify_digest_golden(capsys, benchmark_batch, fmt, hexdigest):
    # classify over the candidates grid, then every classify operation of the seed-1 classify_scale
    # batch; exit code, stdout and stderr of each, as json at the 2^54 radius exits 4 on its tree text.
    argvs = [["classify", str(n), str(d)] for n, d in _CANDIDATES_GRID]
    argvs += [list(op.argv) for op in benchmark_batch("classify_scale") if op.argv[0] == "classify"]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = _capture(capsys, [*argv, "--format", fmt])
        digest.update(f"{code}\n{out}{err}".encode())
    assert len(argvs) == 768
    assert digest.hexdigest() == hexdigest


@pytest.mark.parametrize(
    "n, d, built",
    [
        (2000008, 7, [10**6]),  # s divides M: both slots are q = 10^6
        (13, 11, [1]),  # M < s: both slots are q = 1
        (13, 7, [2, 3]),  # the split pair
        (8, 7, []),  # the path
    ],
)
def test_candidates_build_each_distinct_profile_once(capsys, monkeypatch, n, d, built):
    # Each distinct q is named once, from its AS runs: no branch tuple is built.
    calls = []
    real = cli_module._as_shorthand
    monkeypatch.setattr(cli_module, "_as_shorthand", lambda r, q, m: (calls.append(q), real(r, q, m))[1])
    for fmt in ("text", "csv", "json"):
        code, out, _ = _capture(capsys, ["candidates", str(n), str(d), "--format", fmt])
        assert code == 0 and out.count("spider:") == 2 * bool(built)  # a collapsed pair still prints two rows
        assert calls == built
        calls.clear()


def test_spectrum_csv_golden(capsys):
    code, out, _ = _capture(capsys, ["spectrum", "path:3", "--format", "csv"])
    assert code == 0
    assert out == "index,lambda\n1,0\n2,0.666666666667\n"


def test_sweep_text_golden(capsys):
    code, out, _ = _capture(capsys, ["sweep", "--r", "2", "--M-max", "3"])
    assert code == 0
    assert out == (
        "r=2 M=1 peak_q=1 pass\n"
        "r=2 M=2 peak_q=2 pass\n"
        "r=2 M=3 peak_q=3 pass\n"
    )


def test_sweep_csv_digest_golden(capsys):
    # Every sweep row for r = 1..9 and M <= 82, 21,481 roots in all.
    digest = hashlib.sha256()
    for r in range(1, 10):
        code, out, _ = _capture(capsys, ["sweep", "--r", str(r), "--M-max", "82", "--format", "csv"])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "882f4b55406313aa29387c97b0043e291a0da9bcffa8ea7389a0954321b7f004"


def test_reduce_csv_golden(capsys):
    code, out, _ = _capture(capsys, ["reduce", "spider:4,1,1", "--format", "csv"])
    assert code == 0
    assert out == (
        "step,move,tree,lambda2\n"
        '0,input,"spider:4,1,1",0.333333333333\n'
        '1,dominate,"spider:3,2,1",0.38799538113\n'
        '2,result,"spider:3,2,1",0.38799538113\n'
    )


def _odd_diameter_prufer_tree(rng: random.Random, n: int) -> Tree:
    """The first of rng's Pruefer trees of order n whose diameter is odd."""
    while True:
        t = Tree(n, tuple(prufer_to_edges([rng.randrange(n) for _ in range(n - 2)], n)))
        if diameter(t) % 2:
            return t


@pytest.mark.parametrize(
    "fmt, hexdigest",
    [
        ("text", "8f512f1f9a8f68bc27c8634cbc5a2fd4d9c4e58b08ea69e4b4145f8d5427c0fc"),
        ("csv", "ed12c12a1c3d2282fddcc7af666017bd21e5564e10ca5ded0f8db687ce1c52c4"),
        ("json", "7af3daeb21a623650100d166e4c9c6f9e9f9d2804c62b910dbe7be46a2a8b91a"),
    ],
)
def test_reduce_digest_golden(capsys, tmp_path, fmt, hexdigest):
    # reduce on a seeded odd-diameter Pruefer tree of each order 60-120: inputs that no shorthand names.
    rng, path, digest = random.Random(6120), tmp_path / "tree.txt", hashlib.sha256()
    for n in range(60, 121):
        path.write_text(format_tree_text(_odd_diameter_prufer_tree(rng, n)), encoding="utf-8")
        code, out, err = _capture(capsys, ["reduce", "--file", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == hexdigest


@pytest.mark.parametrize(
    "groups",
    [
        # The 741-branch spider of order 2000, and the spider of order 1000 that
        # reducing a seeded Pruefer tree reaches: a side step gains about 1e-10.
        [(70, 1), (69, 1), (11, 22), (10, 3), (9, 3), (8, 9), (7, 9), (6, 20), (5, 26), (4, 30), (3, 74), (2, 291), (1, 252)],
        [(52, 1), (51, 1), (4, 55), (3, 44), (2, 272)],
    ],
)
def test_reduce_takes_side_steps_of_tiny_gain(capsys, groups):
    tree = "spider:" + ",".join(str(length) for length, count in groups for _ in range(count))
    code, out, err = _capture(capsys, ["reduce", tree])
    assert (code, err) == (0, "")
    values = [float(line.rpartition(" lambda2=")[2]) for line in out.splitlines()]
    assert len(values) > 3
    assert values == sorted(values)


@pytest.mark.parametrize(
    "r, m, q, sigma",
    [
        (2, 32, 22, "0.339684889735"),
        (3, 25, 16, "0.257713343622"),
        (6, 60, 26, "0.145855460961"),
        (7, 73, 46, "0.126869120737"),
        (9, 64, 31, "0.101944413262"),
    ],
)
def test_sweep_rows_are_correctly_rounded(capsys, r, m, q, sigma):
    # Each root lies within a few ulps of a rounding boundary of the 12th digit.
    code, out, _ = _capture(capsys, ["sweep", "--r", str(r), "--M-max", str(m), "--format", "csv"])
    assert code == 0
    (row,) = [line for line in out.splitlines() if line.startswith(f"{r},{m},{q},")]
    assert row.split(",")[3] == sigma
    assert _rounds_to(sigma_exact(r, m, q), sigma)


def test_lambda2_root_is_correctly_rounded(capsys):
    # Exactly 0.0638708527850499973...: a float root one ulp high prints 0.0638708527851.
    code, out, _ = _capture(
        capsys, ["lambda2", "--method", "root", "spider:16,15,4,4,4,2,2,2,2,2,2,2,2,1,1,1,1,1,1,1,1"]
    )
    assert (code, out) == (0, "0.063870852785\n")
    assert _rounds_to(spider_lambda2_exact((16, 15, 4, 4, 4) + (2,) * 8 + (1,) * 8), "0.063870852785")


def test_verify_text_golden(capsys):
    code, out, _ = _capture(capsys, ["verify", "6", "5"])
    assert code == 0
    assert out == "n=6 D=5 trees=1 winners=path:5 lambda2=0.4 verdict=match\n"


def test_verify_frozen_certification_goldens(capsys):
    code, out, _ = _capture(capsys, ["verify", "14", "7", "--format", "json"])
    assert code == 0
    assert out == (
        "[\n"
        "  {\n"
        '    "n": 14,\n'
        '    "D": 7,\n'
        '    "trees": 850,\n'
        '    "winners": [\n'
        '      "spider:4,3,2,2,2"\n'
        "    ],\n"
        '    "argmax_codes": [\n'
        '      "2(((()))(())(())(()))(((())))"\n'
        "    ],\n"
        '    "classifier_codes": [\n'
        '      "2(((()))(())(())(()))(((())))"\n'
        "    ],\n"
        '    "lambda2": "0.271010205144",\n'
        '    "verdict": "match"\n'
        "  }\n"
        "]\n"
    )
    code, out, _ = _capture(capsys, ["verify", "13", "5", "--all-orders"])
    assert code == 0
    assert out == (
        "n=6 D=5 trees=1 winners=path:5 lambda2=0.4 verdict=match\n"
        "n=7 D=5 trees=2 winners=spider:3,2,1 lambda2=0.38799538113 verdict=match\n"
        "n=8 D=5 trees=7 winners=spider:3,2,1,1 lambda2=0.378732187482 verdict=match\n"
        "n=9 D=5 trees=14 winners=spider:3,2,1,1,1 lambda2=0.371761315531 verdict=match\n"
        "n=10 D=5 trees=32 winners=spider:3,2,1,1,1,1 lambda2=0.366473057818 verdict=match\n"
        "n=11 D=5 trees=58 winners=spider:3,2,1,1,1,1,1 lambda2=0.362382148847 verdict=match\n"
        "n=12 D=5 trees=110 winners=spider:3,2,1,1,1,1,1,1 lambda2=0.359148360545 verdict=match\n"
        "n=13 D=5 trees=187 winners=spider:3,2,1,1,1,1,1,1,1 lambda2=0.356539559849 verdict=match\n"
    )


def test_verify_classifies_once_per_order(capsys, monkeypatch):
    calls = []
    real = verify_module.classify

    def counting(n, d):
        calls.append((n, d))
        return real(n, d)

    monkeypatch.setattr(verify_module, "classify", counting)
    monkeypatch.setattr(cli_module, "classify", counting)
    code, _, _ = _capture(capsys, ["verify", "9", "5", "--all-orders"])
    assert code == 0
    assert calls == [(6, 5), (7, 5), (8, 5), (9, 5)]


def test_verify_all_orders(capsys):
    code, out, _ = _capture(capsys, ["verify", "8", "5", "--all-orders", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,D,trees,winners,lambda2,verdict"
    assert len(lines) == 4
    assert all(line.endswith("match") for line in lines[1:])


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "n, d, message",
    [(5, 5, "error: order 5 cannot carry diameter 5; need n >= 6\n"), (3, 8, "error: diameter 8 is even;")],
)
def test_verify_all_orders_rejects_the_pair_of_an_empty_range(capsys, fmt, n, d, message):
    # No order lies between D+1 and n; the pair fails as it does without the flag, not with an empty answer.
    single = _capture(capsys, ["verify", str(n), str(d), "--format", fmt])
    assert single[:2] == (2, "") and single[2].startswith(message) and single[2].count("\n") == 1
    assert _capture(capsys, ["verify", str(n), str(d), "--all-orders", "--format", fmt]) == single


# ----------------------------- json output -----------------------------


def test_spectrum_json_round_trips_tree_text(capsys):
    code, out, _ = _capture(capsys, ["spectrum", "spider:3,2,1", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["tree"] == "spider:3,2,1"
    assert all(isinstance(lam, str) for lam in obj["eigenvalues"])
    recovered = parse_tree_text(obj["tree_text"])
    assert canonical_code(recovered) == canonical_code(make_spider(SpiderProfile((3, 2, 1))))


def test_classify_json_floats_are_strings(capsys):
    code, out, _ = _capture(capsys, ["classify", "7", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "divisible"
    entry = obj["candidates"][0]
    assert isinstance(entry["lambda2"], str)
    assert entry["winner"] is True


_LARGE_MASS_CASES = [(141, 3), (217, 5), (321, 7), (304, 3), (1006, 5), (3042, 41)]
_NAMING_GRID = [(n, d) for d in (3, 5, 7, 9, 21) for n in range(d + 1, d + 41)] + _LARGE_MASS_CASES


@pytest.mark.parametrize("n,d", _NAMING_GRID)
def test_candidates_are_named_as_their_trees(capsys, n, d):
    # classify hands out branch profiles; the names, lateral counts and
    # tree texts must be those of the path and AS trees they stand for.
    pair = candidate_profiles(n, d)
    if pair is None:
        trees = [make_path(d)]
    else:
        params = [pair.as_minus] if pair.as_minus == pair.as_plus else [pair.as_minus, pair.as_plus]
        trees = [make_spider(p.spider_profile()) for p in params]
    code, out, _ = _capture(capsys, ["classify", str(n), str(d), "--format", "json"])
    assert code == 0
    entries = json.loads(out)["candidates"]
    assert len(entries) == len(trees)
    for entry, tree in zip(entries, trees):
        assert entry["tree"] == render_shorthand(tree)
        assert entry["q"] == len(recognize_spider(tree).lengths) - 2
        assert entry["tree_text"] == format_tree_text(tree)
    if pair is not None:
        code, out, _ = _capture(capsys, ["candidates", str(n), str(d), "--format", "json"])
        assert code == 0
        named = [entry["tree"] for entry in json.loads(out)["candidates"]]
        assert named == [render_shorthand(make_spider(p.spider_profile())) for p in (pair.as_minus, pair.as_plus)]


def test_classify_builds_no_tree(capsys, monkeypatch):
    built = []
    real = Tree.__new__
    monkeypatch.setattr(Tree, "__new__", lambda cls, n, edges: (built.append(n), real(cls, n, edges))[1])
    classify(3042, 41)
    for fmt in ("text", "csv"):
        code, _, _ = _capture(capsys, ["classify", "3042", "41", "--format", fmt])
        assert code == 0
    assert built == []
    # The counter does see trees: json prints the one candidate's tree text.
    _capture(capsys, ["classify", "3042", "41", "--format", "json"])
    assert built == [3042]


def test_reduce_builds_only_its_input(capsys, monkeypatch, tmp_path):
    rng = random.Random(100)
    while True:
        t = Tree(100, tuple(prufer_to_edges([rng.randrange(100) for _ in range(98)], 100)))
        if diameter(t) % 2:
            break
    path = tmp_path / "tree.txt"
    path.write_text(format_tree_text(t), encoding="utf-8")
    built = []
    real = Tree.__new__
    monkeypatch.setattr(Tree, "__new__", lambda cls, n, edges: (built.append(n), real(cls, n, edges))[1])
    for fmt in ("text", "csv"):
        code, _, _ = _capture(capsys, ["reduce", "--file", str(path), "--format", fmt])
        assert code == 0
        assert built == [100]
        built.clear()
    # The counter does see trees: json prints every step's tree text.
    code, out, _ = _capture(capsys, ["reduce", "--file", str(path), "--format", "json"])
    assert code == 0
    steps = json.loads(out)["steps"]
    assert len(steps) > 3
    assert built == [100] * len(steps)


# ------------------------------ file input ------------------------------


def test_file_input(tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text(format_tree_text(make_spider(SpiderProfile((3, 2, 1)))), encoding="utf-8")
    code, out, _ = _capture(capsys, ["lambda2", "--file", str(path)])
    assert code == 0
    assert out == "0.38799538113\n"


def test_missing_file_is_domain_error(tmp_path, capsys):
    code, out, err = _capture(capsys, ["lambda2", "--file", str(tmp_path / "absent.txt")])
    assert code == 2
    assert out == ""
    assert "error" in err


# ------------------------------ exit codes ------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["lambda2"],
        ["lambda2", "--method", "bogus", "path:3"],
        ["classify", "seven", "5"],
        ["nonsense"],
    ],
)
def test_usage_errors(capsys, argv):
    code, _, err = _capture(capsys, argv)
    assert code == 1
    assert err.startswith("usage error:")


# Exit code, stdout and stderr of argv that the top-level parser parses, or
# that dispatch past it, as the two-level parse printed them; and of `reduce
# path:1`, the smallest input that a subcommand answers with a trace.
FRONT_END_GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli_front_end.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", FRONT_END_GOLDENS, ids=lambda golden: " ".join(golden["argv"]) or "no-arguments")
def test_front_end_goldens(capsys, monkeypatch, golden):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    assert _capture(capsys, golden["argv"]) == (golden["code"], golden["stdout"], golden["stderr"])
    monkeypatch.setattr(cli_module, "_plain_args", lambda name, tokens: None)  # every argv to argparse
    assert _capture(capsys, golden["argv"]) == (golden["code"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "7", "5"],
        ["candidates", "15", "9", "--format", "csv"],
        ["lambda2", "path:5"],
        ["classify", "10", "5", "--bogus"],
        ["verify", "9", "5", "--jobs", "x"],
        ["classify", "--help"],
    ],
)
def test_a_named_subcommand_never_reaches_the_top_level_parse(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _capture(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError(f"the top-level parser was built for {argv}")

    monkeypatch.setattr(cli_module, "_top_level_parser", refuse)
    assert _capture(capsys, argv) == expected
    with pytest.raises(AssertionError, match="top-level parser was built"):
        run(["nonsense"])


# Every long option of every subcommand and spellings the plain reader must leave to
# argparse; values of every kind, integer spellings that int() reads or refuses, and
# values starting with "-".
_ARGV_FLAGS = sorted({flag for _, _, rows in cli_module._SUBCOMMANDS.values() for flag, _ in rows if flag[0] == "-"})
_ARGV_FLAGS += ["--form", "--meth", "--all", "--M", "--format=csv", "--method=root", "--jobs=2", "--", "-h", "--help"]
_ARGV_INTS = ["9", "5", "15", "2", "0", "+7", " 9", "1_0", "\u0663", "\u0967\u096b"]
_ARGV_VALUES = ["text", "csv", "json", "matrix", "distance", "root", "path:3", "spider:3,2,1", "", "x", "9.0", "-1"]
_ARGV_VALUES += [*_ARGV_INTS, "-csv", "-x", "-path:3", "-", "--"]
_STRAY_PIECES = (
    st.sampled_from(_ARGV_VALUES).map(lambda value: [value])
    | st.tuples(st.sampled_from(_ARGV_FLAGS), st.sampled_from(_ARGV_VALUES)).map(list)
    | st.sampled_from(_ARGV_FLAGS).map(lambda flag: [flag])
    | st.text(alphabet="-=+_ 059\u0663csvr", max_size=4).map(lambda text: [text])
)


@st.composite
def _subcommand_argv(draw):
    """A subcommand and an argv for it: some of its own arguments, each with a value that fits
    its row or a stray one, plus a few stray tokens, in any order."""
    name = draw(st.sampled_from(sorted(cli_module._SUBCOMMANDS)))
    pieces = draw(st.lists(_STRAY_PIECES, max_size=1))
    for flag, options in cli_module._SUBCOMMANDS[name][2]:
        if draw(st.integers(0, 5)) == 0:
            continue
        fitting = options.get("choices") or (_ARGV_INTS if options.get("type") is int else ["path:3", ""])
        value = draw(st.sampled_from(fitting if draw(st.integers(0, 5)) else _ARGV_VALUES))
        if flag[0] != "-":
            pieces.append([value])
        elif options.get("action") or not draw(st.integers(0, 7)):  # a flag, or an option missing its value
            pieces.append([flag])
        else:
            pieces.append([flag, value])
    return name, [token for piece in draw(st.permutations(pieces)) for token in piece]


def _argparse_vars(name, tokens):
    """vars() of the namespace that the subcommand's argparse parser returns, or None if it stops instead."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli_module._subcommand_parser(name).parse_args(tokens))
    except (cli_module._UsageError, SystemExit):
        return None


@settings(max_examples=2000, deadline=None)
@given(argv=_subcommand_argv())
def test_plain_reader_reads_as_argparse_or_declines(argv):
    name, tokens = argv
    plain = cli_module._plain_args(name, tokens)
    assert plain is None or vars(plain) == _argparse_vars(name, tokens)


@pytest.mark.parametrize("workload", ["certify", "classify_scale", "single_tree"])
def test_benchmark_operations_read_plainly_and_print_as_argparse_reads_them(
    capsys, monkeypatch, benchmark_batch, workload
):
    argvs = [list(op.argv) for op in benchmark_batch(workload)]
    for argv in argvs:
        plain = cli_module._plain_args(argv[0], argv[1:])
        assert plain is not None and vars(plain) == _argparse_vars(argv[0], argv[1:]), argv
    runs = [_capture(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli_module, "_plain_args", lambda name, tokens: None)  # every argv to argparse
    assert [_capture(capsys, argv) for argv in argvs] == runs


def test_help_prints_to_stdout_and_returns_zero(capsys, monkeypatch):
    for argv, usage in [(["--help"], "usage: steklov [-h]"), (["lambda2", "--help"], "usage: steklov lambda2 [-h]")]:
        code, out, err = _capture(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
    monkeypatch.setattr(sys, "argv", ["steklov", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        cli_module.main()
    assert exit_info.value.code == 0


def test_both_tree_and_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text(format_tree_text(make_spider(SpiderProfile((2, 1, 1)))), encoding="utf-8")
    code, _, err = _capture(capsys, ["lambda2", "path:3", "--file", str(path)])
    assert code == 1
    assert "not both" in err


def test_even_diameter_is_domain_error(capsys):
    code, _, err = _capture(capsys, ["classify", "8", "4"])
    assert code == 2
    assert "Lin and Zhao" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "2", "1"], "need diameter >= 3, got 1"),
        (["verify", "3", "1"], "need diameter >= 3, got 1"),
        (["sweep", "--r", "2", "--M-max", "0"], "need --r >= 1 and --M-max >= 1, got --r 2, --M-max 0"),
        (["sweep", "--r", "0", "--M-max", "0"], "need --r >= 1 and --M-max >= 1, got --r 0, --M-max 0"),
        (["verify", "6", "5", "--jobs", "0"], "jobs must be >= 1, got 0"),
        (["lambda2", "path:0"], "bad tree shorthand 'path:0': path length must be >= 1, got 0"),
        (["spectrum", "--file", "{tmp}/one-vertex.txt"], "tree needs at least 2 vertices, got n=1"),
        (["reduce", "path:2"], "diameter 2 is even; ascent is defined for odd diameters"),
    ],
    ids=[
        "verify-2-1",
        "verify-3-1",
        "sweep-M-max-0",
        "sweep-r-0",
        "verify-jobs-0",
        "lambda2-path-0",
        "spectrum-one-vertex-file",
        "reduce-path-2",
    ],
)
def test_out_of_domain_arguments_are_one_line_errors(capsys, tmp_path, argv, message):
    (tmp_path / "one-vertex.txt").write_text("1\n", encoding="utf-8")
    code, out, err = _capture(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n0 0\n1 2\n", "self-loop at vertex 0"),
        ("3\n0 1\n1 3\n", "edge (1,3) out of range for n=3"),
        ("4\n0 4\n2 2\n1 2\n", "edge (0,4) out of range for n=4"),
        ("4\n0 1\n2 2\n1 4\n", "self-loop at vertex 2"),
        ("4\n0 1\n1 2\n", "expected 3 edges, got 2"),
        ("4\n0 1\n1 0\n2 3\n", "repeated edge"),
        ("3\n0 1\n1 two\n", "bad tree file: invalid literal for int() with base 10: 'two'"),
        ("3\n0 1 2\n1 2\n", "bad tree file: too many values to unpack (expected 2)"),
        ("3\n0 x\n1\n", "bad tree file: invalid literal for int() with base 10: 'x'"),
    ],
    ids=[
        "self-loop",
        "out-of-range",
        "out-of-range-before-self-loop",
        "self-loop-before-out-of-range",
        "edge-count",
        "repeated-edge-of-a-disconnected-list",
        "bad-integer",
        "three-tokens",
        "bad-integer-before-one-token",
    ],
)
def test_malformed_tree_files_are_one_line_errors(capsys, tmp_path, text, message):
    # The first fault in input order is reported, and the edge checks run before the connectivity walk.
    path = tmp_path / "tree.txt"
    path.write_text(text, encoding="utf-8")
    assert _capture(capsys, ["lambda2", "--file", str(path)]) == (2, "", f"error: {message}\n")


def test_bad_shorthand_is_domain_error(capsys):
    code, _, err = _capture(capsys, ["lambda2", "tri:3"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("tree", ["as:2,0,1,0", "as:2,3,1,3", "as:0,1,1,0", "as:2,1,0,0", "as:2,2,2,1"])
def test_malformed_as_shorthand_is_one_line_domain_error(capsys, tree):
    # q = 0 included: the parameters are checked before the division M = q*c + t.
    code, out, err = _capture(capsys, ["lambda2", tree])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad tree shorthand {tree!r}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_root_method_shape_mismatch_is_domain_error(capsys):
    code, _, err = _capture(capsys, ["lambda2", "spider:3,3,1", "--method", "root"])
    assert code == 2
    assert "root method" in err


def test_classify_large_lateral_mass_answers(capsys):
    code, out, err = _capture(capsys, ["classify", "304", "3"])
    assert code == 0
    assert out.startswith("n=304 D=3 case=divisible tie=false\nwinner q=300 ")
    assert err == ""


def test_classify_at_radius_2_50_answers(capsys):
    code, out, err = _capture(capsys, ["classify", "2251799813685255", "2251799813685249"])
    assert (code, err) == (0, "")
    assert out == (
        "n=2251799813685255 D=2251799813685249 case=single_small tie=false\n"
        "winner q=1 tree=spider:1125899906842625,1125899906842624,5 lambda2=8.881784197e-16\n"
    )


def _assert_exact_digits(capsys, argv):
    """Run a classify (text) or sweep (csv) argv: it must answer on stdout alone, each root rounded right."""
    code, out, err = _capture(capsys, argv)
    assert (code, err) == (0, "")
    if argv[0] == "classify":
        for line in out.splitlines()[1:]:
            _, _, tree, lam = line.split(" ")
            lengths = tuple(int(x) for x in tree.removeprefix("tree=spider:").split(","))
            assert _rounds_to(spider_lambda2_exact(lengths), lam.removeprefix("lambda2=")), line
    else:
        for line in out.splitlines()[1:]:
            r, m, q, sigma, _, _ = line.split(",")
            assert _rounds_to(sigma_exact(int(r), int(m), int(q)), sigma), line
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "63050394783186947", "36028797018963969"],
        ["sweep", "--r", "2251799813685248", "--M-max", "3", "--format", "csv"],
    ],
)
def test_radius_beyond_float_resolution_answers(capsys, argv):
    # At r = 2^54 and r = 2^51 the root bracket holds a few floats at most, and
    # bisection may land on a pole; any float in the bracket has the 12 printed digits.
    out = _assert_exact_digits(capsys, argv)
    if argv[0] == "classify":
        assert out == (
            "n=63050394783186947 D=36028797018963969 case=initial_orders tie=true\n"
            "winner q=3 tree=spider:18014398509481985,18014398509481984,9007199254740993,9007199254740992,"
            "9007199254740992 lambda2=5.55111512313e-17\n"
            "winner q=4 tree=spider:18014398509481985,18014398509481984,6755399441055745,6755399441055744,"
            "6755399441055744,6755399441055744 lambda2=5.55111512313e-17\n"
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", range(48, 57))
def test_radii_near_float_resolution_print_exact_digits(capsys, e):
    for r in range(2**e - 3, 2**e + 4):
        for m in (1, 2, 3, 5):
            _assert_exact_digits(capsys, ["classify", str(2 * r + 2 + m), str(2 * r + 1)])
        _assert_exact_digits(capsys, ["sweep", "--r", str(r), "--M-max", "4", "--format", "csv"])


@pytest.mark.parametrize(
    "exc,line",
    [(RuntimeError("bisection failed"), "error: bisection failed\n"), (MemoryError(), "error: MemoryError\n")],
    ids=["exc0", "exc1"],
)
def test_internal_failure_exits_four(capsys, monkeypatch, exc, line):
    def fail(n, d):
        raise exc

    monkeypatch.setattr(cli_module, "classify", fail)
    code, out, err = _capture(capsys, ["classify", "7", "5"])
    assert code == 4
    assert out == ""
    assert err == line


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "9223372036854775807", "7"],
        ["classify", "100000000000000000000000", "7"],
        ["candidates", "100000000000000000000000", "7"],
    ],
)
def test_order_too_large_to_build_exits_four(capsys, argv):
    # The candidates' lateral branches do not fit in a tuple: a MemoryError
    # at the first order, an OverflowError at the other.
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err != "error: \n" and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (["classify", "9223372036854775807", "7"], "error: MemoryError\n"),
        (["classify", "100000000000000000000000", "7"], "error: cannot fit 'int' into an index-sized integer\n"),
    ],
    ids=["index-max", "beyond-index"],
)
def test_orders_beyond_a_tuple_keep_their_one_line_errors(capsys, argv, line):
    assert _capture(capsys, argv) == (4, "", line)


# Peak traced memory of `classify 2000001 7` when candidates were built as
# ASParams and named one str() per branch, measured as below.
_PARENT_PEAK_MB_2000001_7 = 78.7


def test_classify_at_two_million_laterals_peaks_below_half_the_per_branch_build(capsys):
    tracemalloc.start()
    try:
        code, out, err = _capture(capsys, ["classify", "2000001", "7"])
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "4d0601e814f7dd88bccc03fb2a727c5fb48088b0f0c7716663f44ecba741914a"
    assert peak_mb <= _PARENT_PEAK_MB_2000001_7 / 2


def test_classify_prints_the_sweep_sigma_of_each_candidate(capsys):
    # classify solves each candidate on its own, sweep a whole table in one stacked bisection;
    # at 12 significant digits they print the same number.
    for r in range(1, 10):
        _, out, _ = _capture(capsys, ["sweep", "--r", str(r), "--M-max", "82", "--format", "csv"])
        sigma = {(int(row["M"]), int(row["q"])): row["sigma"] for row in csv.DictReader(io.StringIO(out))}
        for m in range(1, 83):
            code, out, _ = _capture(capsys, ["classify", str(2 * r + 2 + m), str(2 * r + 1), "--format", "csv"])
            rows = list(csv.DictReader(io.StringIO(out)))
            assert code == 0 and rows
            for row in rows:
                assert row["lambda2"] == sigma[m, int(row["q"])], (r, m, row)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize(
    "shorthand", ["spider:99999999999999999999,1", "path:99999999999999999999", "ds:99999999999999999999/1"]
)
def test_shorthand_too_large_to_build_exits_four(shorthand):
    # Building these vertex by vertex would never end: the order is checked first.
    # A child process, capped in time and memory, so that a regression cannot hang the run.
    src = str(Path(steklov_trees.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "steklov_trees.cli", "lambda2", shorthand],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_memory,
        timeout=30,
        check=False,
    )
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr.startswith(b"error: tree order ") and proc.stderr.count(b"\n") == 1


def test_sweep_prints_before_it_reads_every_mass():
    # The masses are cut into tables as they arrive, so an unbounded --M-max prints its first table at once.
    src = str(Path(steklov_trees.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "steklov_trees.cli", "sweep", "--r", "3", "--M-max", "99999999999999999999"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_memory,
    ) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no output within 10 s"
            assert proc.stdout.readline() == b"r=3 M=1 peak_q=1 pass\n"
        finally:
            proc.kill()
            proc.wait(timeout=10)


def test_verify_mismatch_exits_three(capsys, monkeypatch):
    fake = VerificationReport(
        n=7,
        D=5,
        trees_enumerated=3,
        argmax_codes=(b"00",),
        argmax_lambda2=0.5,
        classifier_codes=(b"01",),
        classifier_winners=(),
        verdict="mismatch",
    )
    monkeypatch.setattr(cli_module, "verify_classification", lambda n, d, jobs=1: fake)
    code, out, _ = _capture(capsys, ["verify", "7", "5"])
    assert code == 3
    assert "verdict=mismatch" in out


# ----------------------------- determinism -----------------------------


def test_output_is_byte_stable(capsys):
    _, first, _ = _capture(capsys, ["classify", "15", "9", "--format", "json"])
    _, second, _ = _capture(capsys, ["classify", "15", "9", "--format", "json"])
    assert first == second


def test_shared_parser_keeps_no_state_between_runs(capsys, monkeypatch):
    # A process builds the parser of a subcommand once, for the first argv that the plain
    # reader declines (here only `classify x 5`); no run may leak into the next.
    sequence = [
        ["classify", "15", "9"],
        ["classify", "15", "9", "--format", "csv"],
        ["classify", "15", "9", "--format", "json"],
        ["candidates", "6", "5"],
        ["sweep", "--r", "2", "--M-max", "5"],
        ["lambda2", "ds:2,1/2", "--method", "root"],
        ["classify", "x", "5"],
        ["classify", "10", "6"],
        ["verify", "9", "5"],
    ]
    built = []
    real = cli_module._new_parser
    monkeypatch.setattr(cli_module, "_new_parser", lambda **kw: (built.append(kw["prog"]), real(**kw))[1])
    cli_module._subcommand_parser.cache_clear()  # the first pass starts on fresh parsers
    first = [_capture(capsys, argv) for argv in sequence]
    second = [_capture(capsys, argv) for argv in sequence]
    assert second == first
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 1, 2, 0]
    assert cli_module._subcommand_parser("classify") is cli_module._subcommand_parser("classify")
    assert built == ["steklov classify"]


def test_verify_jobs_do_not_change_bytes(capsys):
    # The 4,625 trees of (16, 7) make two chunks: two jobs start a worker pool wherever two CPUs are.
    serial = _capture(capsys, ["verify", "16", "7", "--jobs", "1", "--format", "json"])
    sharded = _capture(capsys, ["verify", "16", "7", "--jobs", "2", "--format", "json"])
    assert serial[0] == 0
    assert sharded == serial


def _fresh_python(script):
    """Lines that script prints, run in a fresh interpreter on this package."""
    src = str(Path(steklov_trees.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=True
    )
    return proc.stdout.decode().splitlines()


def test_benchmark_self_test_accepts_the_cli_output():
    # The benchmark's output checks parse the CLI's text and csv; a printer that drifts fails them here.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root,
        capture_output=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    last = proc.stdout.decode().splitlines()[-1]
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    assert re.fullmatch(r"(\d+)/\1 self-test cases behaved", last), last


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only `verify --jobs N` with N > 1 needs the pool; every other start-up would pay for it.
    # Likewise only a move whose float roots order as a decrease needs `fractions`.
    # numpy is the one runtime dependency: the test oracles' networkx, scipy and
    # hypothesis must stay out of the package.  The records and value types are NamedTuples: the
    # dataclass decorator generates their methods' code at import, in every process.
    unloaded = ["concurrent.futures.process", "fractions", "networkx", "scipy", "hypothesis", "dataclasses"]
    assert _fresh_python(f"import sys, steklov_trees.cli; print([m for m in {unloaded} if m in sys.modules])") == ["[]"]


# What a subcommand loads only if it needs it, and a script that runs subcommands in one
# fresh interpreter, printing after each which of these it has loaded so far.
ON_FIRST_USE = ["numpy.ma", "steklov_trees.flux", "steklov_trees.reduce", "csv", "json"]
_RUN_AND_LIST = """
import contextlib, io, sys
from steklov_trees.cli import run
for argv in {argvs}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    print(code, [m for m in {unloaded} if m in sys.modules])
"""


def test_subcommands_leave_what_they_do_not_run_unloaded():
    # numpy.ma came from np.unique in the certification kernel; flux, reduce, csv and json
    # from eager imports, dataclasses from the records' decorator.  None of these subcommands runs any of them.
    argvs = [
        ["verify", "9", "5"],
        ["classify", "15", "9"],
        ["candidates", "15", "9"],
        ["sweep", "--r", "3", "--M-max", "10"],
        ["lambda2", "spider:3,2,1", "--method", "matrix"],
        ["spectrum", "spider:3,2,1"],
    ]
    lines = _fresh_python(_RUN_AND_LIST.format(argvs=argvs, unloaded=[*ON_FIRST_USE, "dataclasses"]))
    assert lines == ["0 []"] * len(argvs)


def test_reduce_csv_and_json_load_on_first_use():
    argvs = [
        ["reduce", "spider:4,1,1"],
        ["lambda2", "spider:3,2,1", "--format", "csv"],
        ["lambda2", "spider:3,2,1", "--format", "json"],
    ]
    lines = _fresh_python(_RUN_AND_LIST.format(argvs=argvs, unloaded=ON_FIRST_USE))
    assert lines == [
        "0 ['steklov_trees.reduce']",
        "0 ['steklov_trees.reduce', 'csv']",
        "0 ['steklov_trees.reduce', 'csv', 'json']",
    ]


def test_plainly_spelled_argv_leaves_argparse_unloaded():
    # argparse, and with it gettext and locale, loads only for argv that the plain reader declines.
    script = """
import contextlib, io, sys
from steklov_trees.cli import run
for argv in {argvs}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    print(code, [m for m in ["argparse", "gettext", "locale"] if m in sys.modules], repr(err.getvalue()))
"""
    argvs = [
        ["verify", "9", "5"],
        ["classify", "15", "9"],
        ["candidates", "15", "9"],
        ["sweep", "--r", "3", "--M-max", "10"],
        ["lambda2", "spider:3,2,1", "--method", "root"],
        ["reduce", "path:3"],
        ["classify", "x", "5"],
    ]
    lines = _fresh_python(script.format(argvs=argvs))
    assert lines == ["0 [] ''"] * 6 + [
        "1 ['argparse', 'gettext', 'locale'] \"usage error: argument n: invalid int value: 'x'\\n\""
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "304", "3"],
        ["sweep", "--r", "4", "--M-max", "20", "--format", "csv"],
        ["reduce", "spider:4,1,1", "--format", "csv"],
        ["sweep", "--r", "8", "--M-max", "82", "--format", "json"],
        [
            "reduce",
            "spider:52,51,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4"
            ",4,4,4,4,4,4,4,4,4,4,4,4,4,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3"
            ",3,3,3,3,3,3,3,3,3,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
            ",2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
            ",2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
            ",2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
            ",2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
            ",2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2",
        ],
    ],
)
def test_optimized_interpreter_prints_the_same_bytes(capsys, argv):
    # `python -O` strips assert statements; the package must not lean on them.
    code, out, _ = _capture(capsys, argv)
    src = str(Path(steklov_trees.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "steklov_trees.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == out.encode()


# The package's public surface, frozen: a name added or dropped shows in this list's diff.
PUBLIC_NAMES = [
    "ClassificationResult",
    "DoubleSpiderProfile",
    "Spectrum",
    "SpiderProfile",
    "ThresholdData",
    "Tree",
    "UnimodalityReport",
    "VerificationReport",
    "arm_transfer",
    "balance_side_step",
    "canonical_code",
    "classify",
    "diameter",
    "dominating_double_spider",
    "double_spider_rho",
    "dtn_matrix",
    "format_tree_text",
    "greedy_ascent_trace",
    "lambda2_numeric",
    "leaf_distance_matrix",
    "leaf_set",
    "make_double_spider",
    "make_path",
    "make_spider",
    "parse_tree",
    "parse_tree_text",
    "q_range_integer",
    "recognize_double_spider",
    "recognize_spider",
    "render_shorthand",
    "spider_lambda2",
    "steklov_spectrum",
    "threshold_data",
    "verify_classification",
    "verify_unimodality",
]


def test_public_surface_is_frozen():
    assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES))
    assert steklov_trees.__all__ == PUBLIC_NAMES
    assert all(hasattr(steklov_trees, name) for name in PUBLIC_NAMES)


def test_public_names_are_their_defining_modules_objects():
    # The names from reduce resolve on first access; each is its module's own object.
    def defined(name):
        obj = getattr(steklov_trees, name)
        return getattr(importlib.import_module(obj.__module__), name) is obj

    assert [name for name in PUBLIC_NAMES if not defined(name)] == []


def test_public_names_are_listed_and_unknown_names_raise():
    assert set(PUBLIC_NAMES) <= set(dir(steklov_trees))
    with pytest.raises(AttributeError, match="module 'steklov_trees' has no attribute 'no_such_name'"):
        getattr(steklov_trees, "no_such_name")


def test_star_import_binds_every_public_name():
    lines = _fresh_python(
        "from steklov_trees import *\n"
        "import steklov_trees\n"
        "print(len(steklov_trees.__all__), set(steklov_trees.__all__) - set(globals()))\n"
    )
    assert lines == ["35 set()"]


def test_package_import_defers_flux_and_reduce_and_keeps_classify_the_function():
    # The package's `classify` function shadows its module; loading cli or reduce must not rebind it.
    lines = _fresh_python(
        "import inspect, sys, steklov_trees\n"
        "print([m for m in ['steklov_trees.flux', 'steklov_trees.reduce'] if m in sys.modules])\n"
        "import steklov_trees.cli\n"
        "print(inspect.isfunction(steklov_trees.classify))\n"
        "import steklov_trees.reduce\n"
        "print(inspect.isfunction(steklov_trees.classify), steklov_trees.classify.__module__)\n"
    )
    assert lines == ["[]", "True", "True steklov_trees.classify"]


def test_small_float_literals_are_named_constants():
    # An absolute tolerance in the package is a module-level _UPPER_CASE constant, never a bare literal.
    for path in sorted(Path(steklov_trees.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        named = {
            id(node.value)
            for node in module.body
            if isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", t.id) for t in node.targets)
        }
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
                assert id(node) in named, f"{path.name}:{node.lineno}: unnamed float literal {node.value!r}"


def test_package_imports_only_itself_numpy_and_the_standard_library():
    # Every import statement, also one inside a function that no test reaches: numpy is
    # the one runtime dependency, and the records are NamedTuples, never dataclasses.
    for path in sorted(Path(steklov_trees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                where = f"{path.name}:{node.lineno}: import {name}"
                assert top == "numpy" or top in sys.stdlib_module_names, where
                assert top != "dataclasses", where


def test_benchmark_tracer_wraps_the_package_as_it_is_laid_out(capsys):
    # perfbench/tracer.py names the package's modules from outside (its MODULES);
    # a module moved or renamed must fail here, not leave the traced benchmark run broken.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert _capture(capsys, ["classify", "15", "9"])[0] == 0
        classify_spans = {span[1] for span in tracer.reset()}
        assert _capture(capsys, ["sweep", "--r", "3", "--M-max", "5"])[0] == 0
        sweep_spans = {span[1] for span in tracer.reset()}
    finally:
        tracer.uninstall()
    assert {"classify.classify", "roots.spider_lambda2", "roots.threshold_data"} <= classify_spans
    assert "roots.q_range_integer" in sweep_spans
    assert cli_module.classify is steklov_trees.classify  # unwrapped again
