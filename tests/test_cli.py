import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divbounds
import oracles
from divbounds import (
    BoundEntry,
    DistributionPair,
    GapTarget,
    SParameter,
    a_omega,
    b_omega,
    bounds,
    cli,
    e_omega,
    e_star_omega,
    omega_s,
    random_pair,
    ratio_bounds,
    theorem42_bounds,
    validate,
    vajda_abs_chi,
    verify_all,
)
from divbounds.bounds import REPORT_NOTES, VIOLATION_TOLERANCE, _s_key
from divbounds.cli import CliInputError, _sweep_grid, main

STD_CSV = """pair_id,role,v1,v2
std,P,0.5,0.5
std,Q,0.25,0.75
"""

#: sweep's regime cell for each limit point that SParameter.canonical
#: names; every other s is generic.
SWEEP_REGIME = {0.0: "limit_at_zero", 1.0: "limit_at_one"}


def ulps_from(x, steps):
    """The float ``steps`` nextafter steps from x, up for steps > 0."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


#: s at, just inside and just outside the edges of both limit bands: each
#: edge, a few ulps from it and any float within 1e-7 of it, and plain s.
BAND_EDGES = (-1e-5, 1e-5, 1.0 - 1e-5, 1.0 + 1e-5)
S_NEAR_BAND_EDGES = st.one_of(
    st.builds(ulps_from, st.sampled_from(BAND_EDGES), st.integers(-4, 4)),
    st.sampled_from(BAND_EDGES).flatmap(
        lambda edge: st.floats(edge - 1e-7, edge + 1e-7)),
    st.sampled_from((0.0, 1.0)), st.floats(-3.0, 3.0))

STD_JSON = '{"pairs": [{"id": "std", "p": [0.5, 0.5], "q": [0.25, 0.75]}]}'

# Ids out of order, a repeated id, the id "*" that note rows also use, an
# id sorting before "*", and a P = Q pair.
EDGE_JSON = json.dumps({"pairs": [
    {"id": "b", "p": [0.2, 0.3, 0.5], "q": [0.25, 0.25, 0.5]},
    {"id": "a", "p": [0.5, 0.5], "q": [0.25, 0.75]},
    {"id": "b", "p": [0.1, 0.9], "q": [0.6, 0.4]},
    {"id": "*", "p": [0.3, 0.7], "q": [0.4, 0.6]},
    {"id": "same", "p": [0.5, 0.5], "q": [0.5, 0.5]},
    {"id": "!", "p": [0.05, 0.15, 0.8], "q": [0.3, 0.3, 0.4]},
]})

# Pairs the row-order properties of compute, sweep and verify draw from,
# P = Q among them.
MERGE_POOL = {
    "binary": ((0.5, 0.5), (0.25, 0.75)),
    "binary-far": ((0.1, 0.9), (0.6, 0.4)),
    "binary-same": ((0.3, 0.7), (0.3, 0.7)),
    "ternary": ((0.2, 0.3, 0.5), (0.25, 0.25, 0.5)),
    "ternary-same": ((0.2, 0.3, 0.5), (0.2, 0.3, 0.5)),
}

EDGE_COMMANDS = {
    "compute": ("compute", "--measures", "omega,kl,vajda:3,chi2,phi:0.5,bhat",
                "--s-list=2,-1,0,1"),
    "sweep": ("sweep", "--s-min=-1", "--s-max", "1.5", "--s-step", "0.5"),
    # rows below s = -1 carry a and b but no gap bounds
    "sweep_wide": ("sweep", "--s-min=-3", "--s-max", "3", "--s-step", "0.75"),
    "verify": ("verify", "--s-list=1,-1.5,0,2"),
    "inject": ("verify", "--s-list=1,-1.5,0,2", "--inject-violation"),
}

# SHA-256 of each output file, frozen from the implementation that built
# one dict per record and sorted all records globally; the output bytes
# must not depend on how the records are assembled.  The inject digests
# were frozen again when the injected lhs became relative to the entry
# (rhs + 1 + 2(tolerance + |rhs|) instead of lhs + 1).
EDGE_DIGESTS = {
    ("compute", "jsonl"):
        "612a1a3f98a80c3bde196f092e9118ab9a6e00a5b8581a75029b879efa990560",
    ("compute", "csv"):
        "8e8940050bcc446f26d1c1575069308a4e5cc9b06e7e3f9348a67030fb41db62",
    ("inject", "jsonl"):
        "df9bf33b60653b2d116c5e997f551809180d0d574b47fef86597bec8a8753991",
    ("inject", "csv"):
        "b8b18ccb1db4995de91c16258fc7e5e4fe5d6bab1db7dfd383cd060dfda7cdd4",
    ("sweep", "jsonl"):
        "54cf10c7fa6ae531ad9e861c8e3c4983ee0142c95fcf1b1e027fd794bf741bbf",
    ("sweep", "csv"):
        "3050600d85bfea4a2325beff43c3b01257d44475d9688517bcb9805734c6cfc4",
    ("sweep_wide", "jsonl"):
        "060dd0d60d5e6225ed727da1ca38a14b22ce3e48dcdcb0c14d3f36b67bac3ae8",
    ("sweep_wide", "csv"):
        "323214b6f5f3ddfd6a3efd579984234d0af362f5b287acdf04299cabdc65a2ce",
    ("verify", "jsonl"):
        "9bb374705a1cff3466470780ffc9840e8588c9edf8bc45087fb2f071791ea267",
    ("verify", "csv"):
        "7f1e23425c7c177b57fb148bca28a251b96ea5ca2a160be8dca40b6b0cb68157",
}


@pytest.fixture
def std_csv(tmp_path):
    path = tmp_path / "std.csv"
    path.write_text(STD_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line]


def assert_input_error(code, out, err, *words):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in words), err


# (pair_id, MERGE_POOL name) lists: repeated ids, P = Q pairs, and the ids
# "*" and "!" that sort before letters
POOL_PAIRS = st.lists(st.tuples(st.sampled_from(("*", "!", "a", "b")),
                                st.sampled_from(sorted(MERGE_POOL))),
                      min_size=1, max_size=5)


def run_pool(pairs, *argv):
    """(exit code, stdout) of the CLI on a JSON file of POOL_PAIRS pairs,
    in the given order."""
    return run_doc({"pairs": [{"id": pid, "p": MERGE_POOL[name][0],
                               "q": MERGE_POOL[name][1]}
                              for pid, name in pairs]}, *argv)


def run_doc(doc, *argv):
    """(exit code, stdout) of the CLI on a JSON file holding doc."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pairs.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--input", path])
    return code, out.getvalue()


def pool_pair(name):
    return DistributionPair(*map(validate, MERGE_POOL[name]))


def grouped_stable_sort(pairs, rows_of, key, groups=()):
    """For each pair_id in sorted order, the rows of its pairs in input
    order, stable-sorted by ``key``.  ``groups`` holds (pair_id, rows)
    that come first in their group."""
    by_id = {pid: list(rows) for pid, rows in groups}
    for pid, name in pairs:
        by_id.setdefault(pid, []).extend(rows_of(pid, name))
    return [row for pid in sorted(by_id)
            for row in sorted(by_id[pid], key=key)]


def jsonl_lines(rows, columns):
    return "".join(json.dumps(dict(zip(columns, row)), separators=(",", ":"))
                   + "\n" for row in rows)


class TestCompute:
    def test_omega_record(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", "omega:1")
        assert code == 0
        (rec,) = jsonl(out)
        assert rec["pair_id"] == "std"
        assert rec["measure"] == "omega:1"
        assert abs(rec["value"] - 0.0315839424) < 1e-9

    def test_kl_record(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", "kl")
        assert code == 0
        (rec,) = jsonl(out)
        assert abs(rec["value"] - 0.1438410362) < 1e-9

    def test_many_measures_sorted(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures",
                           "chi2,kl,delta,bhat,vajda:3,phi:2,omega:-0.5,j")
        assert code == 0
        records = jsonl(out)
        # non-parametric measures sort by name, then parametric by parameter
        assert [r["measure"] for r in records] == [
            "bhat", "chi2", "delta", "j", "kl",
            "omega:-0.5", "phi:2", "vajda:3"]

    @pytest.mark.parametrize("measures, s_list, expected", [
        ("omega", "--s-list=1,1,0,-0.0", ["omega:0", "omega:1"]),
        ("omega,omega:0,omega:-0.0", "--s-list=-0.0", ["omega:0"]),
        ("phi:1,phi:1.0,kl,kl,phi", "--s-list=1", ["kl", "phi:1"]),
    ])
    def test_repeated_measure_resolved_once(self, std_csv, capsys, measures,
                                            s_list, expected):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", measures, s_list)
        assert code == 0
        assert [r["measure"] for r in jsonl(out)] == expected

    def test_s_list_deduplicated_in_first_seen_order(self, std_csv, capsys):
        """A repeated s, -0.0 beside 0.0 among them, prints as one: compute
        and verify each use a distinct s once."""
        for argv in (("compute", "--measures", "omega"), ("verify",)):
            outputs = [run(capsys, *argv, "--input", std_csv, s_list)
                       for s_list in ("--s-list=2,1,2,-0.0,1.0,0",
                                      "--s-list=2,1,0")]
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0 and outputs[0][1]

    def test_bare_parametric_expansion(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", "omega", "--s-list=-1,2")
        assert code == 0
        measures = [r["measure"] for r in jsonl(out)]
        assert measures == ["omega:-1", "omega:2"]

    @given(POOL_PAIRS,
           st.lists(st.sampled_from(("omega", "kl", "chi2", "omega:2",
                                     "phi:0.5", "vajda:3")),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from((-3.0, -1.5, -0.0, 0.0, 0.5, 1.0, 2.0)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_each_group_stably_sorted(self, pairs, tokens, s_list):
        """The rows equal each pair's measure rows, stable-sorted by
        (parameter, measure id) within each pair_id: repeated ids, P = Q
        pairs, ids "*" and "!", and an s-list with repeats, -0.0 and s
        below -1."""
        s_text = ",".join(map(repr, s_list))
        measures = cli.resolve_measures(tokens, cli._parse_s_list(s_text))
        params = {measure_id: param for measure_id, param, _ in measures}

        def rows_of(pid, name):
            pair = pool_pair(name)
            return [(pid, measure_id, fn(pair))
                    for measure_id, _, fn in measures]

        expected = grouped_stable_sort(
            pairs, rows_of, lambda row: (_s_key(params[row[1]]), row[1]))
        code, out = run_pool(pairs, "compute", "--measures", ",".join(tokens),
                             "--s-list=" + s_text)
        assert code == 0
        assert out == jsonl_lines(expected, ("pair_id", "measure", "value"))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.5000001)
    @example(3.0000001)
    @example(-0.0)
    def test_labels_name_their_parameter(self, s):
        # %g alone spells 0.5000001 as 0.5 and 3.0000001 as 3
        tokens = (f"omega:{s!r}", "phi", f"vajda:{max(abs(s), 1.0)!r}")
        for label, param, _ in cli.resolve_measures(tokens, (s,)):
            assert float(label.partition(":")[2]).hex() == param.hex(), label

    def test_vajda_at_large_order(self, tmp_path, capsys):
        # gen's pair-0000 at seed 1 is random_pair(5, 1), whose smallest q
        # to the power 199 underflows to zero
        path = str(tmp_path / "pairs.csv")
        assert main(["gen", "--n", "5", "--count", "1", "--seed", "1",
                     "--output", path]) == 0
        code, out, err = run(capsys, "compute", "--input", path,
                             "--measures", "vajda:200")
        assert (code, err) == (0, "")
        (rec,) = jsonl(out)
        assert rec["measure"] == "vajda:200"
        assert rec["value"] == vajda_abs_chi(random_pair(5, 1), 200.0)

    # At m = 19.2, (|p - q| / q) ** (m - 1) passes the largest float on the
    # first pair while its sum, 2.51e306, does not; at m = 40, |p - q|^m
    # underflows on the second pair while q^(m - 1) is normal, and its sum
    # is 1.0e-127
    @pytest.mark.parametrize("m, p, q", [
        ("19.2", (0.001, 0.999), (1e-20, 1.0)),
        ("40", (1e-7 + 1e-10, 1 - 1e-7 - 1e-10), (1e-7, 1 - 1e-7))])
    def test_vajda_at_the_edges_of_the_float_range(self, tmp_path, capsys, m,
                                                   p, q):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"pairs": [{"id": "e", "p": p, "q": q}]}))
        code, out, err = run(capsys, "compute", "--measures", f"vajda:{m}",
                             "--input", str(path))
        assert (code, err) == (0, "")
        (rec,) = jsonl(out)
        assert rec["measure"] == f"vajda:{m}"
        assert math.isclose(rec["value"], float(oracles.vajda(p, q, m)),
                            rel_tol=1e-12)

    def test_csv_output(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", "kl", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "pair_id,measure,value"
        assert row.startswith("std,kl,0.1438410")

    def test_json_input(self, tmp_path, capsys):
        path = tmp_path / "std.json"
        path.write_text(STD_JSON)
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--measures", "chi2")
        assert code == 0
        assert abs(jsonl(out)[0]["value"] - 1.0 / 3.0) < 1e-12

    def test_json_integer_and_missing_ids(self, tmp_path, capsys):
        # an integer id is spelled in decimal; a missing one by its index
        path = tmp_path / "ids.json"
        pair = {"p": [0.5, 0.5], "q": [0.25, 0.75]}
        path.write_text(json.dumps({"pairs": [
            {"id": 7, **pair}, {"id": -3, **pair}, pair,
            {"id": 10**30, **pair}]}))
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--measures", "kl")
        assert code == 0
        assert [r["pair_id"] for r in jsonl(out)] == [
            "-3", "1000000000000000000000000000000", "7", "pair-2"]

    def test_renormalize_flag(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        path.write_text("pair_id,role,v1,v2\nraw,P,1,3\nraw,Q,1,1\n")
        code, _, err = run(capsys, "compute", "--input", str(path),
                           "--measures", "kl")
        assert code == 1
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--measures", "delta", "--renormalize")
        assert code == 0
        assert abs(jsonl(out)[0]["value"] - (0.0625 / 0.75 + 0.0625 / 1.25)) < 1e-12

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "compute", "--input",
                           str(tmp_path / "nope.csv"), "--measures", "kl")
        assert code == 1
        assert "error" in err


class TestSweep:
    def test_golden_grid(self, std_csv, capsys):
        code, out, _ = run(capsys, "sweep", "--input", std_csv,
                           "--s-min", "-1", "--s-max", "2", "--s-step", "1")
        assert code == 0
        rows = jsonl(out)
        omegas = [row["omega"] for row in rows]
        expected = [1.0 / 30.0, 0.032269260568785586, 0.03158394240196325,
                    0.03125]
        assert all(abs(a - b) < 1e-12 for a, b in zip(omegas, expected))
        assert [row["regime"] for row in rows] == [
            "generic", "limit_at_zero", "limit_at_one", "generic"]
        assert all(row["a"] is not None and row["b"] is not None
                   for row in rows)
        assert all(row["gap_half_e_bound"] is not None for row in rows)

    def test_half_step_marks_limit_rows(self, std_csv, capsys):
        code, out, _ = run(capsys, "sweep", "--input", std_csv,
                           "--s-min", "-0.5", "--s-max", "1.0",
                           "--s-step", "0.5")
        assert code == 0
        regimes = {row["s"]: row["regime"] for row in jsonl(out)}
        assert regimes[0.0] == "limit_at_zero"
        assert regimes[1.0] == "limit_at_one"
        assert regimes[0.5] == "generic"

    @given(S_NEAR_BAND_EDGES)
    @example(-1e-5)
    @example(ulps_from(1.0 + 1e-5, 1))
    @settings(max_examples=150, deadline=None)
    def test_regime_cell_names_the_evaluated_point(self, s):
        """A sweep row's regime is limit_at_zero exactly when |s| <= 1e-5,
        limit_at_one exactly when |s - 1| <= 1e-5 and generic otherwise,
        and its omega is omega_s at the point that the regime names: 0, 1
        or s itself.  Each difference is exact (Sterbenz for s near 1)."""
        pair = pool_pair("ternary")
        code, out = run_pool([("x", "ternary")], "sweep", f"--s-min={s!r}",
                             f"--s-max={s + 0.5!r}", "--s-step=1")
        assert code == 0
        (row,) = jsonl(out)
        expected = ("limit_at_zero" if abs(s) <= 1e-5 else
                    "limit_at_one" if abs(s - 1.0) <= 1e-5 else "generic")
        assert (row["s"], row["regime"]) == (s or 0.0, expected)
        point = {"limit_at_zero": 0.0, "limit_at_one": 1.0}.get(expected, s)
        assert row["omega"] == omega_s(pair, point)

    @pytest.mark.parametrize("s_min, s_max, s_step", [
        (0.0, 1.0, 1e-12), (-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)])
    def test_grid_size_checked_before_building(self, s_min, s_max, s_step):
        tracemalloc.start()
        try:
            with pytest.raises(CliInputError, match="exceeds"):
                _sweep_grid(s_min, s_max, s_step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
        assert len(_sweep_grid(0.0, 1.0, 0.1)) == 11
        assert len(_sweep_grid(0.0, 1.0, 0.099)) == 11
        with pytest.raises(CliInputError, match="exceeds"):
            _sweep_grid(0.0, 1.0, 0.09)

    @pytest.mark.parametrize("s_max, head", [
        pytest.param("1e6", "grid exceeds the limit of 1000000 points\n",
                     id="1e6"),
        pytest.param("999999.0001", "cannot read ", id="999999.0001")])
    def test_count_past_the_limit_reads_past_it(self, capsys, tmp_path,
                                                s_max, head):
        # 10^6 + 1 points are refused; 10^6 points, the last short of s_max,
        # are a grid, so the missing input is what is reported
        code, out, err = run(capsys, "sweep", "--s-min=0", f"--s-max={s_max}",
                             "--s-step=1", "--input", str(tmp_path / "no"))
        assert_input_error(code, out, err)
        assert err.startswith(f"error: {head}")

    def test_grid_held_once_before_the_input_is_read(self, capsys, tmp_path):
        """Until the input is read, sweep holds its grid as one list of
        floats, 32 bytes a point; one SParameter per point as well would
        take more than 100 more."""
        points = 10**5
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "sweep", "--s-min=0",
                                 f"--s-max={points - 1}", "--s-step=1",
                                 "--input", str(tmp_path / "no"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_input_error(code, out, err, "cannot read ")
        assert peak < 64 * points

    @given(st.floats(-1e3, 1e3), st.floats(1e-12, 1e3),
           st.integers(1, 2000), st.floats(0.5, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_accepted_grid_strictly_increasing(self, s_min, width, points,
                                               scale):
        """Every grid _sweep_grid accepts is strictly increasing, also when
        the step is below the float spacing of s; its points are
        s_min + k * s_step up to s_max + 1e-9 * s_step, and the limit
        counts exactly these points."""
        s_max, s_step = s_min + width, width / points * scale
        try:
            grid = _sweep_grid(s_min, s_max, s_step)
        except CliInputError:
            return
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid == [s_min + k * s_step for k in range(len(grid))]
        assert grid[-1] <= s_max + 1e-9 * s_step < s_min + len(grid) * s_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "MAX_GRID_POINTS", len(grid))
            assert _sweep_grid(s_min, s_max, s_step) == grid
            patch.setattr(cli, "MAX_GRID_POINTS", len(grid) - 1)
            with pytest.raises(CliInputError, match="exceeds"):
                _sweep_grid(s_min, s_max, s_step)

    @given(POOL_PAIRS, st.sampled_from((-3.0, -2.0, -1.25)),
           st.sampled_from((-0.5, 0.0, 1.0, 2.0)),
           st.sampled_from((0.25, 0.5, 0.75)))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_each_group_stably_sorted(self, pairs, s_min, s_max,
                                               s_step):
        """The rows equal each pair's grid rows, stable-sorted by s within
        each pair_id: repeated ids, P = Q pairs, ids "*" and "!", and a grid
        that crosses s = -1."""
        grid = _sweep_grid(s_min, s_max, s_step)

        def rows_of(pid, name):
            pair = pool_pair(name)
            rb = ratio_bounds(pair)
            for s in grid:
                row = [pid, s, SWEEP_REGIME.get(SParameter(s).canonical,
                                                 "generic"),
                       omega_s(pair, s), e_omega(pair, s),
                       e_star_omega(pair, s)]
                if rb is None:
                    row += [None] * 4
                else:
                    row += [a_omega(rb, s), b_omega(rb, s)]
                    row += [None] * 2 if s < -1.0 else [
                        theorem42_bounds(pair, rb, s, target).minimum
                        for target in (GapTarget.HALF_E, GapTarget.E_STAR)]
                yield row

        expected = grouped_stable_sort(pairs, rows_of, itemgetter(1))
        code, out = run_pool(pairs, "sweep", f"--s-min={s_min!r}",
                             f"--s-max={s_max!r}", f"--s-step={s_step!r}")
        assert code == 0
        assert out == jsonl_lines(expected, (
            "pair_id", "s", "regime", "omega", "e", "e_star", "a", "b",
            "gap_half_e_bound", "gap_e_star_bound"))


class TestVerify:
    def test_standard_pair_passes(self, std_csv, capsys):
        code, out, _ = run(capsys, "verify", "--input", std_csv,
                           "--s-list=-1,0,1,2")
        assert code == 0
        records = jsonl(out)
        verdicts = {r["verdict"] for r in records}
        assert "fail" not in verdicts
        assert any(r["verdict"] == "info" for r in records)
        assert any(r["inequality_id"] == "omega_le_e" for r in records)

    def test_signed_zeros_spelled_alike(self, std_csv, capsys):
        outs = {run(capsys, "verify", "--input", std_csv, s_list)[1]
                for s_list in ("--s-list=0,-0.0", "--s-list=-0.0,0")}
        (out,) = outs
        assert '"s":0.0' in out and '"s":-0.0' not in out

    def test_identical_pair_records_skips(self, tmp_path, capsys):
        path = tmp_path / "same.csv"
        path.write_text("pair_id,role,v1,v2\nsame,P,0.5,0.5\nsame,Q,0.5,0.5\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        records = jsonl(out)
        assert any(r["verdict"] == "skip" and "degenerate" in r["reason"]
                   for r in records)

    def test_injected_violation_fails(self, std_csv, capsys):
        argv = ("verify", "--input", std_csv, "--s-list", "0,1")
        code, out, _ = run(capsys, *argv, "--inject-violation")
        assert code == 2
        (bad,) = [r for r in jsonl(out) if r["verdict"] == "fail"]
        # the corrupted entry is the checked one with lhs moved past rhs
        _, plain, _ = run(capsys, *argv)
        key = itemgetter("pair_id", "s", "inequality_id")
        (good,) = [r for r in jsonl(plain) if key(r) == key(bad)]
        rhs = good["rhs"]
        assert (bad["lhs"], bad["rhs"]) == (
            rhs + 1.0 + 2.0 * (VIOLATION_TOLERANCE + abs(rhs)), rhs)
        assert bad["slack"] == bad["rhs"] - bad["lhs"]

    @pytest.mark.parametrize("gen, tolerance", [
        # the first checked entry of this pair holds with slack 221
        (("--n", "64", "--count", "1", "--seed", "7"), VIOLATION_TOLERANCE),
        (None, 1e6),
    ], ids=["n64-seed7", "tolerance-1e6"])
    def test_injected_violation_fails_whatever_the_slack(
            self, std_csv, tmp_path, capsys, gen, tolerance):
        path = std_csv
        if gen is not None:
            path = str(tmp_path / "pairs.csv")
            assert main(["gen", *gen, "--output", path]) == 0
        code, out, _ = run(capsys, "verify", "--input", path,
                           f"--tolerance={tolerance!r}", "--inject-violation")
        assert code == 2
        (bad,) = [r for r in jsonl(out) if r["verdict"] == "fail"]
        assert bad["slack"] < -tolerance

    def test_injected_violation_at_a_tolerance_past_the_float_range(
            self, tmp_path, capsys):
        # rhs + 1 + 2 (tolerance + |rhs|) overflows: an input error, not
        # a report spelling the lhs and the slack as infinities
        path = tmp_path / "pairs.json"
        path.write_text('{"pairs":[{"id":"a","p":[0.5,0.5],'
                        '"q":[0.25,0.75]}]}')
        assert_input_error(*run(capsys, "verify", "--input", str(path),
                                "--tolerance", "1e308", "--inject-violation"),
                           "--tolerance 1e+308")

    def test_tolerance_override(self, std_csv, capsys):
        code, _, _ = run(capsys, "verify", "--input", std_csv,
                         "--s-list", "0", "--tolerance", "1e-6")
        assert code == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance(self, std_csv, capsys, tolerance):
        # read with the arguments, so no pair is blamed for it
        code, out, err = run(capsys, "verify", "--input", std_csv,
                             f"--tolerance={tolerance}")
        assert_input_error(code, out, err, "tolerance", tolerance)
        assert "pair" not in err

    @pytest.mark.parametrize("tolerance, words", [
        ("nan", ("violation tolerance must be finite and >= 0, got nan",)),
        ("half", ("argument --tolerance", "invalid float value: 'half'")),
    ])
    def test_bad_tolerance_reported_before_input(self, tmp_path, capsys,
                                                 tolerance, words):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, "verify", "--input", missing,
                             f"--tolerance={tolerance}")
        assert_input_error(code, out, err, *words)
        assert "cannot read" not in err

    @pytest.mark.parametrize("argv, words", [
        (("compute", "--measures", "bogus"), ("unknown measure 'bogus'",)),
        (("compute", "--measures", "omega:nan"),
         ("bad parameter in measure 'omega:nan'",)),
        (("sweep", "--s-min=1", "--s-max=0", "--s-step=1"),
         ("empty grid: s_min=1.0 >= s_max=0.0",)),
        (("sweep", "--s-min=0", "--s-max=1", "--s-step=1e-9"),
         ("exceeds the limit",)),
    ])
    def test_bad_option_reported_before_input(self, tmp_path, capsys, argv,
                                              words):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, *argv, "--input", missing)
        assert_input_error(code, out, err, *words)
        assert "cannot read" not in err

    def test_library_domain_error_is_input_error(self, tmp_path, capsys):
        # 0.5 / 1e-320 overflows, so the ratio bounds are rejected
        path = tmp_path / "overflow.json"
        path.write_text('{"pairs": [{"id": "o", "p": [0.5, 0.5], '
                        '"q": [1e-320, 1.0]}]}')
        assert_input_error(*run(capsys, "verify", "--input", str(path)),
                           "pair o:", "R=inf")

    def test_injected_record_comes_from_the_builder(self, std_csv, capsys,
                                                     monkeypatch):
        real, built = bounds._entries, []

        def spy(checks, where, tolerance):
            block = real(checks, where, tolerance)
            built.extend(block)
            return block

        monkeypatch.setattr(bounds, "_entries", spy)
        code, out, _ = run(capsys, "verify", "--input", std_csv,
                           "--s-list=0,1", "--inject-violation")
        assert code == 2
        (bad,) = [r for r in jsonl(out) if r["verdict"] == "fail"]
        (record,) = [rec for rec in built if rec.verdict == "fail"]
        assert bad == dict(zip(BoundEntry._fields, record))
        # every checked row of the report went through the builder as well
        checked = [r for r in jsonl(out) if r["verdict"] in ("pass", "fail")]
        assert len(built) == len(checked) + 1

    def test_csv_format(self, std_csv, capsys):
        code, out, _ = run(capsys, "verify", "--input", std_csv,
                           "--s-list", "0", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "pair_id,s,inequality_id,lhs,rhs,slack,verdict,reason"

    def test_rows_are_the_report_records(self, tmp_path, capsys):
        """Each row other than the notes is one record of the pair's
        report, in report order, spelled as the JSON object of the output
        columns."""
        pairs = {"norm": ((0.5, 0.5), (0.25, 0.75)),
                 "same": ((0.3, 0.3, 0.4), (0.3, 0.3, 0.4))}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [
            {"id": pid, "p": p, "q": q} for pid, (p, q) in pairs.items()]}))
        code, out, _ = run(capsys, "verify", "--input", str(path),
                           "--s-list=-1.5,0,1,2")
        assert code == 0
        columns = ("pair_id", "s", "inequality_id", "lhs", "rhs", "slack",
                   "verdict", "reason")
        expected = []
        for pid, (p, q) in sorted(pairs.items()):
            report = verify_all(DistributionPair(validate(p), validate(q)),
                                (-1.5, 0.0, 1.0, 2.0), pair_id=pid)
            assert all(len(rec) == 8 for rec in report.records)
            expected += [json.dumps(dict(zip(columns, rec)),
                                    separators=(",", ":"))
                         for rec in report.records]
        lines = [line for line in out.splitlines()
                 if not line.startswith('{"pair_id":"*"')]
        assert lines == expected
        assert sum('"verdict":"skip"' in line for line in lines) > 3

    @given(POOL_PAIRS,
           st.lists(st.sampled_from((-3.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_each_group_stably_sorted(self, pairs, s_list):
        """The rows equal the note rows plus each pair's records,
        stable-sorted by (s, inequality_id) within each pair_id: repeated
        ids, P = Q pairs, a pair whose id is "*" and s below -1."""
        def rows_of(pid, name):
            return verify_all(pool_pair(name), s_list, pair_id=pid).records

        notes = [("*", None, "note", None, None, None, "info", note)
                 for note in REPORT_NOTES]
        expected = grouped_stable_sort(
            pairs, rows_of, lambda rec: (_s_key(rec[1]), rec[2]),
            groups=[("*", notes)])
        code, out = run_pool(pairs, "verify",
                             "--s-list=" + ",".join(map(repr, s_list)))
        assert code == (2 if any(rec[6] == "fail" for rec in expected)
                        else 0)
        assert out == jsonl_lines(expected, BoundEntry._fields)


ARITHMETIC_ARGVS = [("verify",),
                    ("sweep", "--s-min=-1", "--s-max=1", "--s-step=1"),
                    ("compute", "--measures", "omega:2")]


# r = 2e-300: r^2 underflows to zero in psi3_sup's psi_s_d3, before r^3 in
# psi_s_d2 (theorem42_bounds in verify and sweep), and
# ((p + q)/(2p))^2 overflows in omega_s (compute omega:2).  Each command
# writes to standard output, and to an --output file that already exists.
@pytest.mark.parametrize("argv, to_file", [
    *(pytest.param(argv, False, id=f"argv{i}")
      for i, argv in enumerate(ARITHMETIC_ARGVS)),
    *(pytest.param(argv, True, id=f"argv{i}-existing-output")
      for i, argv in enumerate(ARITHMETIC_ARGVS))])
def test_arithmetic_error_is_input_error(tmp_path, capsys, argv, to_file):
    # the valid group "a" is evaluated first, and no record of it is written
    path = tmp_path / "tiny.json"
    path.write_text('{"pairs": [{"id": "a", "p": [0.5, 0.5], '
                    '"q": [0.25, 0.75]}, {"id": "z", "p": [1e-300, 1.0], '
                    '"q": [0.5, 0.5]}]}')
    target = tmp_path / "out"
    target.write_bytes(b"kept\r\n")
    output = ("--output", str(target)) if to_file else ()
    code, out, err = run(capsys, *argv, "--input", str(path), *output)
    assert_input_error(code, out, err, "pair z: numeric failure")
    assert "pair a" not in err
    assert target.read_bytes() == b"kept\r\n"


# Pair b sums to 1 within SUM_TOLERANCE, but its ratios are all
# 1.00000000196, so ratio_bounds rejects it while the pair is evaluated.
@pytest.mark.parametrize("argv", [("verify",),
                                  ("sweep", "--s-min=-1", "--s-max=1",
                                   "--s-step=1")])
def test_library_domain_error_names_the_pair(tmp_path, capsys, argv):
    path = tmp_path / "off_simplex.json"
    path.write_text('{"pairs":[{"id":"a","p":[0.5,0.5],"q":[0.25,0.75]},'
                    '{"id":"b","p":[0.50000000049,0.50000000049],'
                    '"q":[0.49999999951,0.49999999951]}]}')
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert_input_error(code, out, err, "pair b: require 0 < r < 1 < R")
    assert "pair a" not in err


def test_near_equal_pair_skips_interval_entries(tmp_path, capsys):
    """P equals Q up to one ulp, so r = 0.9999999999999999 and R = 1.0:
    the pair has no ratio interval, and both commands skip the interval
    entries instead of failing on the pair."""
    path = tmp_path / "near_equal.json"
    path.write_text('{"pairs":[{"id":"d","p":[0.3,0.7],'
                    '"q":[0.3,0.7000000000000001]}]}')
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, err) == (0, "")
    assert any(r["verdict"] == "skip" and "degenerate" in r["reason"]
               for r in jsonl(out))
    code, out, err = run(capsys, "sweep", "--s-min=-1", "--s-max=1",
                         "--s-step=1", "--input", str(path))
    assert (code, err) == (0, "")
    rows = jsonl(out)
    assert len(rows) == 3
    for row in rows:
        assert [row[k] for k in ("a", "b", "gap_half_e_bound",
                                 "gap_e_star_bound")] == [None] * 4


#: P = Q, P one ulp off Q in a strict subset of its components (each moved
#: up or down), or P and Q drawn apart.
@st.composite
def near_and_far_pairs(draw):
    components = st.floats(min_value=1e-12, max_value=1.0)
    q = validate(draw(st.lists(components, min_size=2, max_size=16)),
                 renormalize=True)
    n = len(q.values)
    kind = draw(st.sampled_from(("equal", "ulp", "apart")))
    if kind == "apart":
        p = validate(draw(st.lists(components, min_size=n, max_size=n)),
                     renormalize=True)
        return DistributionPair(p, q)
    p = list(q.values)
    if kind == "ulp":
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1,
                              max_size=n - 1)):
            p[i] = math.nextafter(p[i], draw(st.sampled_from((0.0, 1.0))))
    return DistributionPair(validate(p), q)


@given(near_and_far_pairs())
@example(DistributionPair(validate((0.3, 0.7)),
                          validate((0.3, 0.7000000000000001))))
@settings(max_examples=60, deadline=None)
def test_no_ratio_interval_iff_interval_entries_skipped(pair):
    """ratio_bounds(pair) is None exactly when verify_all skips every
    interval entry and sweep prints null a, b and gap columns; otherwise
    0 < r < 1 < R."""
    rb = ratio_bounds(pair)
    if rb is not None:
        assert 0.0 < rb.r < 1.0 < rb.R
    report = verify_all(pair, _sweep_grid(-1.0, 2.0, 0.5))
    interval_skips = {"abs_chi[m=1]", "abs_chi[m=2]", "abs_chi[m=3]",
                      "gap_bounds", "interval_bounds"}
    assert {e.inequality_id for e in report.records
            if e.verdict == "skip"} == (
        interval_skips if rb is None else set())
    doc = {"pairs": [{"id": "x", "p": pair.p.values, "q": pair.q.values}]}
    code, out = run_doc(doc, "sweep", "--s-min=-1", "--s-max=2",
                        "--s-step=0.5")
    assert code == 0
    rows = jsonl(out)
    assert len(rows) == 7
    assert {tuple(row[k] is None for k in ("a", "b", "gap_half_e_bound",
                                           "gap_e_star_bound"))
            for row in rows} == {(rb is None,) * 4}


def json_pair(p, q):
    return json.dumps({"pairs": [{"id": "x", "p": p, "q": q}]})


def json_second_id(pid):
    # a good pair first, so the error names the index of the second
    return json.dumps({"pairs": [
        {"id": "a", "p": [0.5, 0.5], "q": [0.25, 0.75]},
        {"id": pid, "p": [0.5, 0.5], "q": [0.25, 0.75]}]})


ID_ERROR = ("pairs[1]: id must be a string or an integer",)

LONG_INT = "7" * 5001
LONG_INT_JSON = json_pair([0.5, 0.5], [0.25, 0.75])

#: Rows that need an int-to-str digit limit below len(LONG_INT): Python
#: 3.10 before 3.10.7 has none, and PYTHONINTMAXSTRDIGITS=0 lifts it.
LIMITED_INT_ROWS = {"json-long-int-id", "json-long-int-component"}


def int_digit_limit_applies():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return 0 < limit < len(LONG_INT)


# (input file text or bytes, or None for no --input; arguments; words the
# one error line must hold)
INPUT_ERRORS = {
    "unknown-flag": (STD_CSV, ("verify", "--no-such-flag"),
                     ("unrecognized", "--no-such-flag")),
    "missing-command": (None, (), ("command",)),
    "empty-s-list": (STD_CSV, ("verify", "--s-list", ","), ("s-list",)),
    "empty-s-list-verify": (STD_CSV, ("verify", "--s-list="),
                            ("s-list is empty",)),
    "empty-s-list-compute": (STD_CSV, ("compute", "--measures", "omega",
                                       "--s-list="), ("s-list is empty",)),
    "json-parse": ('{"pairs": [', ("verify",), ("JSON parse failure",)),
    # nested past the recursion limit
    "json-deep-nesting": ('{"pairs": ' + "[" * 200000, ("verify",),
                          ("JSON parse failure", "recursion")),
    "not-utf8": (b"pair_id,role,v1,v2\n\xff,P,0.5,0.5\n", ("verify",),
                 ("cannot read", "input", "can't decode byte 0xff")),
    "json-not-pairs": ('{"pairs": 3}', ("verify",), ('{"pairs": [...]}',)),
    "json-not-object": ('{"pairs": [3]}', ("verify",),
                        ("pairs[0] is not an object",)),
    "json-missing-q": ('{"pairs": [{"id": "m", "p": [0.5, 0.5]}]}',
                       ("verify",), ("pair m", "missing field", "'q'")),
    "json-no-pairs": ('{"pairs": []}', ("verify",), ("no pairs found",)),
    # an id that is neither a string nor an integer has no one spelling
    "json-id-null": (json_second_id(None), ("compute", "--measures", "kl"),
                     ID_ERROR),
    "json-id-true": (json_second_id(True), ("compute", "--measures", "kl"),
                     ID_ERROR),
    "json-id-float": (json_second_id(1.5), ("compute", "--measures", "kl"),
                      ID_ERROR),
    "json-id-object": (json_second_id({"k": [1]}),
                       ("compute", "--measures", "kl"), ID_ERROR),
    # a lone surrogate has no UTF-8 encoding, so no output could spell it
    "json-id-lone-surrogate": (json_second_id("\ud800"),
                               ("compute", "--measures", "kl"),
                               ("pairs[1]: id is not valid Unicode",)),
    "json-string-components": (json_pair(["0.5", "0.5"], [0.25, 0.75]),
                               ("verify",),
                               ("pair x", "components must be numbers")),
    "json-null-component": (json_pair([0.5, 0.5], [None, 1.0]),
                            ("verify", "--renormalize"),
                            ("pair x", "components must be numbers")),
    "json-nested-components": (json_pair([[0.5], [0.5]], [0.25, 0.75]),
                               ("verify",),
                               ("pair x", "components must be numbers")),
    "json-components-not-list": (json_pair("0.5,0.5", [0.25, 0.75]),
                                 ("verify",),
                                 ("pair x", "components must be numbers")),
    "json-components-object": (json_pair([0.5, 0.5], {"0": 1.0}),
                               ("verify",),
                               ("pair x", "components must be numbers")),
    "json-huge-int": (json_pair([10**400, 1.0], [0.5, 0.5]),
                      ("verify", "--renormalize"),
                      ("pair x", "finite reals")),
    # integer literals past the interpreter's int-to-str digit limit (4300
    # by default) fail inside json.loads with a plain ValueError
    "json-long-int-id": (LONG_INT_JSON.replace('"x"', LONG_INT),
                         ("compute", "--measures", "kl"),
                         ("JSON parse failure", "Exceeds the limit")),
    "json-long-int-component": (LONG_INT_JSON.replace("0.25", LONG_INT),
                                ("compute", "--measures", "kl"),
                                ("JSON parse failure", "Exceeds the limit")),
    "csv-empty": ("\n \n", ("verify",), ("CSV input is empty",)),
    "csv-header": ("id,role,v1,v2\nx,P,0.5,0.5\n", ("verify",),
                   ("header", "pair_id,role")),
    "csv-short-row": ("pair_id,role,v1\nx,P\n", ("verify",),
                      ("line 2", "at least 3 cells")),
    # line numbers are file lines: blank lines count
    "csv-short-row-after-blank-lines": ("pair_id,role,v1,v2\n\n\nx,P\n",
                                        ("verify",),
                                        ("line 4", "at least 3 cells")),
    # ... and so do quoted cells that span lines; a row's number is the line
    # it ends on
    "csv-short-row-quoted-newlines": ('pair_id,role,v1,v2\n"a\nb",P,0.5,0.5\n'
                                      '"x\ny",P\n', ("verify",),
                                      ("line 5", "at least 3 cells")),
    # a cell longer than csv.field_size_limit()
    "csv-field-too-large": ("pair_id,role,v1,v2\nx,P,0.5,0.5\n"
                            "x,Q,0.5," + "5" * 200000 + "\n", ("verify",),
                            ("line 3", "field larger than field limit")),
    # Python 3.10's csv reader rejects a NUL byte and later ones keep it;
    # the message is the same on every version, blank-looking rows too
    "csv-nul-in-id": ("pair_id,role,v1,v2\nx\0,P,0.5,0.5\nx\0,Q,0.5,0.5\n",
                      ("verify",), ("line 2", "line contains NUL")),
    "csv-nul-in-component": ("pair_id,role,v1,v2\nx,P,0.5,0.5\0\n"
                             "x,Q,0.5,0.5\n", ("verify",),
                             ("line 2", "line contains NUL")),
    "csv-nul-alone": ("pair_id,role,v1,v2\n \0 \nx,P,0.5,0.5\n", ("verify",),
                      ("line 2", "line contains NUL")),
    # the line that holds the NUL, not the line on which its row ends
    "csv-nul-in-multiline-cell": ('pair_id,role,v1,v2\n"x\0\ny",P,0.5,0.5\n'
                                  '"x\0\ny",Q,0.5,0.5\n', ("verify",),
                                  ("line 2", "line contains NUL")),
    "csv-role": ("pair_id,role,v1,v2\nx,R,0.5,0.5\n", ("verify",),
                 ("pair x", "role must be P or Q", "'R'")),
    "csv-component": ("pair_id,role,v1,v2\nx,P,0.5,half\n", ("verify",),
                      ("pair x", "bad component", "half")),
    "csv-duplicate-role": ("pair_id,role,v1,v2\nx,P,0.5,0.5\n"
                           "x,P,0.4,0.6\n", ("verify",),
                           ("pair x", "duplicate role P")),
    "csv-missing-role": ("pair_id,role,v1,v2\nx,P,0.5,0.5\n", ("verify",),
                         ("pair x", "missing role Q")),
    "csv-interior-empty-cell": ("pair_id,role,v1,v2,v3,v4\n"
                                "a,P,0.2,,0.3,0.5\na,Q,0.1,0.4,0.5,\n",
                                ("compute", "--measures", "kl"),
                                ("pair a", "empty component in column v2")),
    "csv-sum-overflow": ("pair_id,role,v1,v2\nx,P,1e308,1e308\n"
                         "x,Q,0.5,0.5\n", ("verify",),
                         ("pair x", "overflows")),
    "unknown-parametric-measure": (STD_CSV, ("compute", "--measures",
                                             "foo:1"),
                                   ("unknown parametric measure", "'foo'")),
    "unknown-measure": (STD_CSV, ("compute", "--measures", "bogus"),
                        ("unknown measure 'bogus'",)),
    # a simple measure given a parameter, and an empty name
    "simple-measure-with-parameter": (STD_CSV, ("compute", "--measures",
                                                "kl:1"),
                                      ("unknown parametric measure 'kl'",)),
    "empty-parametric-name": (STD_CSV, ("compute", "--measures", ":"),
                              ("unknown parametric measure ''",)),
    "empty-parameter": (STD_CSV, ("compute", "--measures", "omega:"),
                        ("bad parameter in measure 'omega:': could not "
                         "convert string to float: ''",)),
    "no-measures": (STD_CSV, ("compute", "--measures", ","),
                    ("no measures requested",)),
    "compute-component-count-mismatch": (
        "pair_id,role,v1,v2,v3\np7,P,0.2,0.3,0.5\np7,Q,0.5,0.5,\n",
        ("compute", "--measures", "kl"),
        ("pair p7: P has dimension 3, Q has dimension 2",)),
    # a JSON true is an int to Python, but not a number to the schema
    "compute-json-boolean-component": (
        '{"pairs": [{"id": "t", "p": [true, 1e-7], "q": [0.5, 0.5]}]}',
        ("compute", "--measures", "kl", "--renormalize"),
        ("pair t: components must be numbers",)),
    "compute-omega-nan": (STD_CSV, ("compute", "--measures", "omega:nan"),
                          ("bad parameter in measure 'omega:nan': s must be "
                           "finite, got nan",)),
    "compute-phi-inf": (STD_CSV, ("compute", "--measures", "phi:inf"),
                        ("bad parameter in measure 'phi:inf': s must be "
                         "finite, got inf",)),
    "compute-omega-minus-inf": (STD_CSV, ("compute", "--measures",
                                          "omega:-inf"),
                                ("bad parameter in measure 'omega:-inf': s "
                                 "must be finite, got -inf",)),
    # a vajda parameter is the order m, so its own rule names it
    "compute-vajda-inf": (STD_CSV, ("compute", "--measures", "vajda:inf"),
                          ("bad parameter in measure 'vajda:inf': exponent "
                           "must be finite, got inf",)),
    "compute-s-list-inf": (STD_CSV, ("compute", "--measures", "omega",
                                     "--s-list", "0,inf"),
                           ("bad s-list '0,inf': s must be finite, got inf",)),
    "compute-vajda-below-one": (STD_CSV, ("compute", "--measures",
                                          "vajda:0.5", "--s-list", "1"),
                                ("bad parameter in measure 'vajda:0.5': "
                                 "exponent must satisfy m >= 1, got 0.5",)),
    "compute-vajda-s-list-below-one": (STD_CSV, ("compute", "--measures",
                                                 "vajda", "--s-list", "2,0.5"),
                                       ("bad parameter in measure "
                                        "'vajda:0.5': exponent must satisfy "
                                        "m >= 1, got 0.5",)),
    # a bare vajda's label spells each s as the measure ids do, not as %g,
    # which spells 0.5000001 as 0.5
    "compute-vajda-s-list-label": (STD_CSV, ("compute", "--measures",
                                             "vajda", "--s-list=0.5000001"),
                                   ("bad parameter in measure "
                                    "'vajda:0.5000001': exponent must "
                                    "satisfy m >= 1, got 0.5000001",)),
    "verify-s-list-nan": (STD_CSV, ("verify", "--s-list", "nan"),
                          ("bad s-list 'nan': s must be finite, got nan",)),
    # counted before any value is parsed: the last token is not a number
    "verify-s-list-limit": (STD_CSV, ("verify", "--s-list=" + "1," * 10000
                                      + "x"),
                            ("s-list exceeds the limit of 10000 values",)),
    "compute-s-list-limit": (STD_CSV, ("compute", "--measures", "omega",
                                       "--s-list=" + ",".join(
                                           map(str, range(10001)))),
                             ("s-list exceeds the limit of 10000 values",)),
    "gen-count": (None, ("gen", "--n", "2", "--count", "0"),
                  ("count must be >= 1", "got 0")),
    "gen-dimension-limit": (None, ("gen", "--n", "1000001", "--count", "1"),
                            ("dimension must be <= 1000000, got 1000001",)),
    # psi'' at the convexity probe 0.1 overflows past s of about 418.36
    "verify-s-list-419": (STD_CSV, ("verify", "--s-list=419"),
                          ("pair std: unified_ag_js[s=419]: f''(0.1) "
                           "cannot be evaluated (OverflowError",)),
    "sweep-empty-grid": (STD_CSV, ("sweep", "--s-min=2", "--s-max=1",
                                   "--s-step=1"),
                         ("grid", "empty grid: s_min=2.0 >= s_max=1.0")),
    "sweep-step-zero": (STD_CSV, ("sweep", "--s-min=0", "--s-max=1",
                                  "--s-step=0"),
                        ("s_step must be positive, got 0.0",)),
    "sweep-s-min-nan": (STD_CSV, ("sweep", "--s-min=nan", "--s-max=1",
                                  "--s-step=0.5"),
                        ("finite", "s_min must be finite, got nan")),
    "sweep-s-min-minus-inf": (STD_CSV, ("sweep", "--s-min=-inf", "--s-max=1",
                                        "--s-step=0.5"),
                              ("finite", "s_min must be finite, got -inf")),
    "sweep-s-max-inf": (STD_CSV, ("sweep", "--s-min=0", "--s-max=inf",
                                  "--s-step=0.5"),
                        ("finite", "s_max must be finite, got inf")),
    "sweep-s-step-inf": (STD_CSV, ("sweep", "--s-min=0", "--s-max=1",
                                   "--s-step=inf"),
                         ("finite", "s_step must be finite, got inf")),
    "sweep-s-step-nan": (STD_CSV, ("sweep", "--s-min=0", "--s-max=1",
                                   "--s-step=nan"),
                         ("finite", "s_step must be finite, got nan")),
    # 1e-17 is below the float spacing of s near 3, so s repeats
    "sweep-step-below-spacing": (STD_CSV, ("sweep", "--s-min", "3",
                                           "--s-max", "3.0000000000000004",
                                           "--s-step", "1e-17"),
                                 ("s_step=1e-17", "float spacing")),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_table(tmp_path, capsys, name):
    if name in LIMITED_INT_ROWS and not int_digit_limit_applies():
        pytest.skip("no int-to-str digit limit below 5001 digits")
    text, argv, words = INPUT_ERRORS[name]
    if text is not None:
        path = tmp_path / "input"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        argv = (*argv, "--input", str(path))
    assert_input_error(*run(capsys, *argv), *words)


@pytest.mark.parametrize("command", [("verify",),
                                     ("compute", "--measures", "omega")])
def test_s_list_limit(tmp_path, capsys, command):
    """MAX_S_VALUES values are accepted and one more is refused, with one
    error line, before --input is read; blank tokens do not count."""
    s_list = ",".join(str(k / 64) for k in range(cli.MAX_S_VALUES))
    missing = str(tmp_path / "missing.csv")
    assert run(capsys, *command, "--s-list", s_list + ",4096,",
               "--input", missing) == (
        1, "", "error: s-list exceeds the limit of 10000 values\n")
    assert cli._parse_s_list(s_list + ", ,") == tuple(
        k / 64 for k in range(cli.MAX_S_VALUES))
    if command[0] == "compute":
        src = tmp_path / "std.csv"
        src.write_text(STD_CSV)
        code, out, err = run(capsys, *command, "--s-list", s_list,
                             "--input", str(src))
        assert (code, err) == (0, "")
        assert len(jsonl(out)) == cli.MAX_S_VALUES


@pytest.mark.parametrize("argv", [
    ("verify", "--input", None),
    ("compute", "--measures", "kl", "--input", None),
    ("sweep", "--s-min", "0", "--s-max", "1", "--s-step", "1", "--input",
     None),
    ("gen", "--n", "2", "--count", "1"),
])
def test_unwritable_output_is_input_error(std_csv, tmp_path, capsys, argv):
    target = str(tmp_path / "missing" / "out")
    argv = [std_csv if arg is None else arg for arg in argv]
    assert_input_error(*run(capsys, *argv, "--output", target),
                       "cannot write", target)


@pytest.mark.parametrize("raised, code, message", [
    (KeyboardInterrupt, 130, "error: interrupted\n"),
    (MemoryError, 1, "error: out of memory\n")])
def test_interrupt_and_out_of_memory_exit(std_csv, tmp_path, capsys,
                                          monkeypatch, raised, code, message):
    """An interrupt or an exhausted memory while the records are evaluated
    is one error line and its exit code, with no traceback, and the
    --output file is never created."""
    def verify_all(*args, **kwargs):
        raise raised
    monkeypatch.setattr(cli, "verify_all", verify_all)
    target = tmp_path / "out"
    assert run(capsys, "verify", "--input", std_csv,
               "--output", str(target)) == (code, "", message)
    assert not target.exists()


def interrupted_verify(tmp_path, interrupt, **popen):
    """Run verify over 2000 n=64 pairs, call ``interrupt(proc)`` 1 s in,
    while it evaluates them, and check that it ends with exit 130, the one
    line ``error: interrupted`` and no output file."""
    pairs, target = tmp_path / "pairs.csv", tmp_path / "out.jsonl"
    assert main(["gen", "--n", "64", "--count", "2000", "--seed", "7",
                 "--output", str(pairs)]) == 0
    proc = cli_process("verify", "--input", str(pairs), "--output",
                       str(target), stdout=subprocess.DEVNULL, **popen)
    time.sleep(1.0)
    assert proc.poll() is None, "verify ended before the signal was sent"
    interrupt(proc)
    err = proc.communicate(timeout=120)[1].decode()
    assert (proc.returncode, err) == (130, "error: interrupted\n")
    assert not target.exists()
    return proc


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_sigint_during_verify_exits_130(tmp_path):
    """A SIGINT sent to the CLI process alone."""
    interrupted_verify(tmp_path, lambda proc: proc.send_signal(signal.SIGINT))


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_sigint_to_the_process_group_exits_130(tmp_path):
    """A SIGINT sent to the whole process group, as a terminal's Ctrl-C
    is, reaches the speller too, which ignores it; once the CLI has exited
    no process is left in the group."""
    proc = interrupted_verify(
        tmp_path, lambda proc: os.killpg(proc.pid, signal.SIGINT),
        start_new_session=True)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS to bound the address space")
def test_out_of_memory_in_a_real_child(tmp_path):
    """gen --n 1000000 under a 200 MiB address-space limit, set in the
    child alone, runs out of memory: exit 1, the one line
    ``error: out of memory``, no traceback and no output file.  gen --n 2
    under 60 MiB exits 0, so the limit leaves the interpreter room to
    start."""
    import resource

    def gen(n, mib):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
        target = tmp_path / f"n{n}.csv"
        proc = cli_process("gen", "--n", str(n), "--count", "1", "--output",
                           str(target), stdout=subprocess.DEVNULL,
                           preexec_fn=limit)
        err = proc.communicate(timeout=120)[1].decode()
        return proc.returncode, err, target.exists()

    assert gen(2, 60) == (0, "", True)
    assert gen(1_000_000, 200) == (1, "error: out of memory\n", False)


def cli_process(*argv, stdout, **popen):
    src = os.path.dirname(os.path.dirname(divbounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "divbounds.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            **popen)


def assert_write_error(proc, *words):
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert all(word in err for word in words), err


# verify prints about 1 MB in many JSONL chunks for 40 pairs and about
# 190 KB in one for 7; gen prints about 0.5 MB of CSV for 200 pairs of
# dimension 64.  Each is more than a pipe holds.  PYTHONUNBUFFERED=1 leaves
# standard output without a buffered layer.
@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("count", [40, 7, "gen"])
def test_reader_closing_pipe_is_input_error(tmp_path, monkeypatch, count,
                                            unbuffered):
    if unbuffered is None:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    if count == "gen":
        argv = ("gen", "--n", "64", "--count", "200")
    else:
        pairs = tmp_path / "pairs.csv"
        assert main(["gen", "--n", "2", "--count", str(count), "--output",
                     str(pairs)]) == 0
        argv = ("verify", "--input", str(pairs))
    proc = cli_process(*argv, stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"pair_id" if count == "gen"
                                             else b"{")
    proc.stdout.close()
    assert_write_error(proc, "standard output", "Broken pipe")


def test_stdout_written_after_what_it_holds(tmp_path, monkeypatch):
    """Output printed before main, and held in standard output's buffer,
    comes before the command's output."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    src = os.path.dirname(os.path.dirname(divbounds.__file__))
    out = tmp_path / "out"
    with open(out, "wb") as fh:
        subprocess.run([sys.executable, "-c",
                        "import sys; from divbounds import cli; "
                        "print('first'); sys.exit(cli.main(['gen', '--n', "
                        "'2', '--count', '3']))"],
                       stdout=fh, env=dict(os.environ, PYTHONPATH=src),
                       check=True, timeout=120)
    assert out.read_text().startswith("first\npair_id,role,v1,v2\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_full_device_is_input_error(std_csv, capsys):
    assert_input_error(*run(capsys, "verify", "--input", std_csv,
                            "--output", "/dev/full"),
                       "cannot write /dev/full", "No space left")
    with open("/dev/full", "wb") as full:
        proc = cli_process("gen", "--n", "3", "--count", "3", stdout=full)
    assert_write_error(proc, "standard output", "No space left")


def test_unwritable_spool_is_input_error(std_csv, tmp_path, capsys,
                                        monkeypatch):
    missing = str(tmp_path / "missing")
    monkeypatch.setattr(tempfile, "tempdir", missing)
    assert_input_error(*run(capsys, "verify", "--input", std_csv),
                       "cannot write", missing)
    target = tmp_path / "out"
    assert_input_error(*run(capsys, "verify", "--input", std_csv,
                            "--output", str(target)),
                       "cannot write", missing)
    assert not target.exists()


def count_forks(monkeypatch):
    """The pids that os.fork returns in this process, from here on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Every command and format, each spelled in chunks of 20 values (2 verify
# records, 6 compute records, 4 gen rows), so many chunks cross the pipe to
# the speller.
SPELLER_RUNS = [(name, fmt) for name in ("compute", "sweep", "verify",
                                         "inject")
                for fmt in ("jsonl", "csv")] + [("gen", "csv")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("to_file", [True, False])
@pytest.mark.parametrize("name, fmt", SPELLER_RUNS)
def test_speller_bytes_equal_in_process_bytes(tmp_path, capsys, monkeypatch,
                                              name, fmt, to_file):
    """The output spelled by the forked speller equals the output spelled
    in-process, where os.fork raises OSError, to a file and to standard
    output; the edge files also keep their pinned digests."""
    src = tmp_path / "edge.json"
    src.write_text(EDGE_JSON)
    argv = (["gen", "--n", "3", "--count", "30", "--seed", "7"]
            if name == "gen" else
            [*EDGE_COMMANDS[name], "--input", str(src), "--format", fmt])
    monkeypatch.setattr(cli, "_CHUNK_VALUES", 20)
    outputs = []
    for forked in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if forked:
                forks = count_forks(patch)
            else:
                patch.setattr(os, "fork", no_fork)
            target = tmp_path / f"out-{forked}"
            code, out, err = run(capsys, *argv, *(
                ["--output", str(target)] if to_file else []))
        assert (code, err) == (2 if name == "inject" else 0, "")
        outputs.append(target.read_text() if to_file else out)
        assert_no_child_left()
    assert len(forks) == 1
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 20  # several chunks at every width
    if to_file and name != "gen":
        digest = hashlib.sha256(outputs[0].encode()).hexdigest()
        assert digest == EDGE_DIGESTS[name, fmt]


def fail_in_speller(monkeypatch, fault):
    """Make every write to the spool call ``fault()`` first when it runs in
    a child of this process."""
    parent, temporary_file = os.getpid(), tempfile.TemporaryFile

    def spool(*args, **kwargs):
        opened = temporary_file(*args, **kwargs)
        write = opened.write

        def checked(text):
            if os.getpid() != parent:
                fault()
            return write(text)
        opened.write = checked
        return opened
    monkeypatch.setattr(tempfile, "TemporaryFile", spool)


def raise_in_speller(exc):
    def fault():
        raise exc
    return fault


def kill_speller():
    os.kill(os.getpid(), signal.SIGKILL)


# 7 pairs print about 960 records, about 41 KB pickled, which the pipe
# holds whole; 40 pairs print about 5480 records, about 236 KB pickled, so
# the CLI is still sending when the speller fails and its write to the pipe
# gets BrokenPipeError.
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("count", [7, 40])
@pytest.mark.parametrize("fault, message", [
    (raise_in_speller(OSError(errno.ENOSPC, "No space left on device")),
     "error: cannot write a temporary file: [Errno 28] No space left on "
     "device\n"),
    (raise_in_speller(MemoryError), "error: out of memory\n"),
    (kill_speller, "error: cannot write a temporary file: the process "
                   "writing it was killed by signal 9\n")],
    ids=["OSError", "MemoryError", "SIGKILL"])
def test_speller_failure_is_one_error_line(tmp_path, capsys, monkeypatch,
                                           count, fault, message):
    """A failure of the speller while it writes the spool reaches the user
    as the same failure in-process would: one error line, exit 1 and no
    output file, and the speller is reaped."""
    pairs, target = tmp_path / "pairs.csv", tmp_path / "out.jsonl"
    assert main(["gen", "--n", "2", "--count", str(count), "--output",
                 str(pairs)]) == 0
    fail_in_speller(monkeypatch, fault)
    forks = count_forks(monkeypatch)
    assert run(capsys, "verify", "--input", str(pairs), "--output",
               str(target)) == (1, "", message)
    assert not target.exists()
    assert len(forks) == 1
    assert_no_child_left()


def interrupt_second_pair(monkeypatch):
    verify_all = cli.verify_all
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return verify_all(*args, **kwargs)
    monkeypatch.setattr(cli, "verify_all", interrupted)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("doc, setup, result", [
    (EDGE_JSON, None, (0, "")),
    ('{"pairs":[{"id":"a","p":[0.5,0.5],"q":[0.25,0.75]},'
     '{"id":"z","p":[1e-300,1.0],"q":[0.5,0.5]}]}', None,
     (1, "error: pair z: numeric failure (ZeroDivisionError): float "
         "division by zero\n")),
    (EDGE_JSON, interrupt_second_pair, (130, "error: interrupted\n"))],
    ids=["success", "pair error", "interrupt"])
def test_no_child_left(tmp_path, capsys, monkeypatch, doc, setup, result):
    """After a success, a pair's error and an interrupt, the one speller
    forked is reaped."""
    src, target = tmp_path / "pairs.json", tmp_path / "out.jsonl"
    src.write_text(doc)
    if setup is not None:
        setup(monkeypatch)
    forks = count_forks(monkeypatch)
    code, _, err = run(capsys, "verify", "--input", str(src), "--output",
                       str(target))
    assert (code, err) == result
    assert target.exists() == (code == 0)
    assert len(forks) == 1
    assert_no_child_left()


def traced_peak_growth(tmp_path, *argv):
    """Bytes per pair by which verify's traced peak grows from 100 to 400
    pairs, and its exit code and number of lines printed for each count."""
    peaks, lines = {}, {}
    for count in (100, 400):
        pairs, out = tmp_path / f"pairs{count}.csv", tmp_path / "out.jsonl"
        assert main(["gen", "--n", "2", "--count", str(count), "--output",
                     str(pairs)]) == 0
        tracemalloc.start()
        try:
            code = main(["verify", *argv, "--input", str(pairs),
                         "--output", str(out)])
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines[count] = (code, out.read_text().count("\n"))
    return (peaks[400] - peaks[100]) / 300, lines


def test_memory_does_not_grow_with_records(tmp_path):
    """verify holds the pairs, one group's records and one output chunk,
    so its traced peak grows by far less per pair than the 37 records
    (about 7 KB) that each pair prints at one s."""
    growth, lines = traced_peak_growth(tmp_path, "--s-list=0.5")
    assert lines == {count: (0, 37 * count + 2) for count in (100, 400)}
    assert growth < 2048


def test_memory_does_not_grow_with_failures(tmp_path):
    """At --tolerance=0 many records fail, and verify keeps only the fact
    that one did, not the records."""
    growth, lines = traced_peak_growth(tmp_path, "--tolerance=0")
    assert [code for code, _ in lines.values()] == [2, 2]
    assert growth < 1536


def test_gen_holds_one_wide_row_at_a_time(tmp_path):
    """A gen row of 20002 values, wider than a chunk, is a chunk of its
    own, so the traced peak for 4 pairs (8 rows of about 1.6 MB) is about
    that for 1 pair; with the 8 rows in one chunk it grows by 13 MB."""
    peaks = []
    for count in (1, 4):
        tracemalloc.start()
        try:
            assert main(["gen", "--n", "20000", "--count", str(count),
                         "--output", str(tmp_path / "wide.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20


class TestLoadPairs:
    def test_csv_pairs_in_first_seen_order(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("pair_id,role,v1,v2\n"
                        "b,Q,0.25,0.75\n"
                        "a,P,0.5,0.5\n"
                        "c,P,0.9,0.1\n"
                        "b,P,0.1,0.9\n"
                        "a,Q,0.6,0.4\n"
                        "c,Q,0.3,0.7\n")
        pairs = cli.load_pairs(str(path), renormalize=False)
        assert [(pid, pair.p.values, pair.q.values) for pid, pair in pairs] == [
            ("b", (0.1, 0.9), (0.25, 0.75)),
            ("a", (0.5, 0.5), (0.6, 0.4)),
            ("c", (0.9, 0.1), (0.3, 0.7)),
        ]

    @pytest.mark.parametrize("text", [STD_CSV, STD_JSON])
    def test_byte_order_mark_ignored(self, tmp_path, text):
        plain = tmp_path / "plain"
        marked = tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert (cli.load_pairs(str(marked), renormalize=False)
                == cli.load_pairs(str(plain), renormalize=False))

    @given(st.lists(st.tuples(
               st.text("ab *,\"\n\u00e9", min_size=1).map(str.strip)
               .filter(bool),
               st.integers(2, 4).flatmap(lambda n: st.tuples(*[st.lists(
                   st.floats(1e-3, 1e3), min_size=n, max_size=n)] * 2))),
               min_size=1, max_size=4, unique_by=itemgetter(0)),
           st.sampled_from(("\n", "\r\n")), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_json_and_csv_spellings_agree(self, pairs, newline, bom, data):
        """The same pairs spelled as JSON and as CSV load alike, whatever
        the blank lines, line ends, byte-order mark and quoted ids."""
        doc = json.dumps({"pairs": [{"id": pid, "p": p, "q": q}
                                    for pid, (p, q) in pairs]})
        table = io.StringIO()
        writer = csv.writer(table, lineterminator=newline)
        for row in [("pair_id", "role", "v1"),
                    *((pid, role, *map(repr, part))
                      for pid, raw in pairs for role, part in zip("PQ", raw)),
                    None]:
            for blank in data.draw(st.lists(st.sampled_from(("", "  ", " ,,")),
                                            max_size=2)):
                table.write(blank + newline)
            if row is not None:
                writer.writerow(row)
        mark = b"\xef\xbb\xbf" if bom else b""
        with tempfile.TemporaryDirectory() as tmp:
            loaded = []
            for name, text in (("pairs.json", doc),
                               ("pairs.csv", table.getvalue())):
                path = os.path.join(tmp, name)
                with open(path, "wb") as fh:
                    fh.write(mark + text.encode("utf-8"))
                loaded.append(cli.load_pairs(path, renormalize=True))
        assert loaded[0] == loaded[1]
        assert [pid for pid, _ in loaded[0]] == [pid for pid, _ in pairs]

    @given(st.sampled_from(("", "pair_id,role,v1\n", "pair_id,role,v1\r\n")),
           st.lists(st.sampled_from((
               "x,P,0.5", "x,Q,0.5", '"y\x85",P,0.5', '"y\u2028",Q,0.5', "P",
               " ", ",", '"', "\n", "\n", "\r", "\x0c", "\x85", "\u2028")),
               max_size=30).map("".join))
    @example("pair_id,role,v1\n", "\x0c\nx,P\n")
    @example("pair_id,role,v1\n",
             '"a\x85b",P,0.5\r\n"a\u2028",Q,0.5\x0c\n"a\x85b",Q,0.5\n'
             '"a\u2028",P,0.5\n')
    @settings(max_examples=300, deadline=None)
    def test_csv_lines_are_the_stringio_lines(self, header, body):
        """_csv_rows feeds its reader the lines io.StringIO(text) would,
        split at "\\n" only: the same pairs, or the same error with the same
        line N, as a reader of io.StringIO(text) on text that also holds
        the breaks str.splitlines knows (\\x0c, \\x85, \\u2028)."""
        text = header + body

        def outcome():
            try:
                return list(cli._csv_rows(text))
            except CliInputError as exc:
                return str(exc)

        got = outcome()
        reference = types.SimpleNamespace(
            reader=lambda lines: csv.reader(io.StringIO(text)),
            Error=csv.Error)
        with mock.patch.object(cli, "csv", reference):
            assert got == outcome()

    def test_csv_intake_holds_no_wide_copy(self, tmp_path):
        """load_pairs reads the CSV text once, as one byte a character, and
        does not copy it into the 4-byte-per-character buffer io.StringIO
        builds, which alone took about 4 bytes per file byte."""
        path = tmp_path / "pairs.csv"
        assert main(["gen", "--n", "64", "--count", "500", "--seed", "7",
                     "--output", str(path)]) == 0
        tracemalloc.start()
        try:
            pairs = cli.load_pairs(str(path), renormalize=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 500
        assert peak < 5 * path.stat().st_size

    def test_trailing_empty_cells_ignored(self, tmp_path):
        # as spreadsheet exports pad short rows
        path = tmp_path / "padded.csv"
        path.write_text("pair_id,role,v1,v2,v3\nx,P,0.5,0.5,\n"
                        "x,Q,0.25,0.75, ,\n")
        ((pid, pair),) = cli.load_pairs(str(path), renormalize=False)
        assert (pid, pair.p.values, pair.q.values) == (
            "x", (0.5, 0.5), (0.25, 0.75))


def test_measures_help_names_every_id(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["compute", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    measures_help = out.split("MEASURES", 2)[2].split("--s-list")[0]
    words = set(re.split(r"[\s,:;()]+", measures_help))
    for measure_id in [*cli._SIMPLE_MEASURES, *cli._PARAMETRIC_MEASURES]:
        assert measure_id in words, measure_id


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_s_list_help_names_the_default(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    s_list_help = text.rsplit("--s-list S_LIST", 1)[1].split(" --", 1)[0]
    default = ",".join(f"{s:g}" for s in cli.DEFAULT_S_LIST)
    assert f"(default: {default})" in s_list_help


def test_sweep_help_describes_the_grid(capsys, monkeypatch):
    # wide enough that no help line wraps inside --s-min=-1
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--help"])
    assert exit_info.value.code == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    parts = re.split(r"(--s-(?:min|max|step)) [A-Z_]+ ",
                     " ".join(options.split()))
    helps = dict(zip(parts[1::2], parts[2::2]))
    assert set(helps) == {"--s-min", "--s-max", "--s-step"}
    assert "first grid point" in helps["--s-min"]
    assert "--s-min=-1" in helps["--s-min"]
    assert "1e-9 * step of s_max" in helps["--s-max"]
    assert "> 0" in helps["--s-step"]
    assert f"at most {cli.MAX_GRID_POINTS} points" in helps["--s-step"]


def write_jsonl(records, columns):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_records(records, columns,
                           argparse.Namespace(output="-", format="jsonl"))
    return out.getvalue()


def assert_json_dumps_lines(records, columns):
    # each line as json.dumps spells the record's dict, compact separators
    assert write_jsonl(records, columns) == jsonl_lines(records, columns)


class TestJsonlSpelling:
    COLUMNS = ("pair_id", "s", "lhs", "reason")
    ROWS = [
        ("nan", None, float("nan"), None),
        ("inf", 1.0, float("inf"), "x"),
        ("-inf", -1.0, float("-inf"), "x"),
        ("zero", 0.0, -0.0, ""),
        ("tiny", 5e-324, -5e-324, "\u00e9"),
        ("huge", 1.7976931348623157e308, -1.7976931348623157e308, "\u2028"),
        ("tenth", 0.1, 1e16, "quote \" and back\\slash"),
        ("pct", 1e-7, 123456789.0, "100% of %s and %%s %(x)s"),
        ("caf\u00e9 \U0001f600", 2.5e-10, -1e22, "tab\tnew\nline\x00"),
    ]

    def test_edge_values(self):
        assert_json_dumps_lines(self.ROWS, self.COLUMNS)

    def test_escaped_column_names(self):
        columns = ("a%s", 'b"\\', "\u00e9", "%")
        assert_json_dumps_lines(self.ROWS, columns)

    def test_many_records(self):
        # more records than one written chunk, with repeated strings
        rows = [(f"pair-{i // 137}", i * 0.25, i / 7.0, None if i % 3 else "r")
                for i in range(3000)]
        assert_json_dumps_lines(rows, self.COLUMNS)

    def test_no_records(self):
        assert write_jsonl([], self.COLUMNS) == ""

    @given(st.lists(st.floats(), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_float_row(self, row):
        columns = tuple(f"c{i}" for i in range(len(row)))
        assert_json_dumps_lines([tuple(row)], columns)

    # Values that compare equal (and hash alike) but are spelled apart, in
    # both orders, so a writer that reuses one value's spelling for an equal
    # one is caught.
    EQUAL_APART = [(1, 1.0, True), (True, 1.0, 1), (1.0, True, 1),
                   (0, 0.0, False), (False, -0.0, 0), (0.0, -0.0, 0.0),
                   (-0.0, 0.0, -0.0), (-1, -1.0, -1), (2.0, 2, 2.0)]

    def test_equal_values_spelled_apart(self):
        assert_json_dumps_lines(self.EQUAL_APART, ("a", "b", "c"))
        # ... and down each column, one row after another
        assert_json_dumps_lines([row[::-1] for row in self.EQUAL_APART],
                                ("a", "b", "c"))

    def test_repeated_nan_objects(self):
        nan = float("nan")
        rows = [(nan, nan, float("nan")), (float("nan"), nan, nan),
                (float("inf"), nan, float("inf"))]
        assert_json_dumps_lines(rows, ("a", "b", "c"))

    def test_string_spelled_like_a_float(self):
        rows = [("0.1", 0.1, "1.0"), (0.1, "0.1", 1.0), ("null", None, "NaN"),
                (None, "null", float("nan")), ("true", True, "1"),
                (1, "1", True)]
        assert_json_dumps_lines(rows, ("a", "b", "c"))

    @pytest.mark.parametrize("first, second", [
        (1.0, 1), (1, 1.0), (True, 1.0), (0.0, -0.0), (-0.0, 0.0),
        (0.5, "0.5"), (None, "null")])
    def test_repeats_across_the_chunk_boundary(self, first, second):
        # records size - 1 and size are the last of one chunk and the first
        # of the next
        size = cli._CHUNK_VALUES // len(self.COLUMNS)
        rows = [(f"r{i}", first if i < size else second, second, first)
                for i in range(size - 3, size + 3)]
        rows = [("pad", 0.25, None, "x")] * (size - 3) + rows
        assert_json_dumps_lines(rows, self.COLUMNS)

    @given(st.lists(st.tuples(*[st.sampled_from((
               None, True, False, 0, 1, -1, 2, 0.0, -0.0, 1.0, -1.0, 2.0,
               0.5, 0.1, 1e16, 5e-324, float("inf"), float("-inf"),
               float("nan"), "", "0.1", "1", "1.0", "true", "null", "NaN",
               "é", "%s"))] * 4),
                    max_size=40),
           st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_pooled_values(self, rows, chunk):
        """Rows drawn from a small pool, so values repeat within and across
        chunks, each line spelled as json.dumps spells the row's dict."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_VALUES", 4 * chunk)
            assert_json_dumps_lines(rows, ("a", "b", "c", "d"))

    @pytest.mark.parametrize("c_encoder", ["as is", "pure Python"])
    @given(st.integers(1, 4).flatmap(lambda width: st.tuples(
               st.just(width),
               st.lists(st.tuples(*[st.one_of(st.text(), st.floats(),
                                              st.none())] * width),
                        max_size=12))),
           st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_any_text_float_or_null(self, c_encoder, table, chunk):
        """One encoder call spells a chunk, split on the newlines between
        its values: any text (newline, NUL, lone surrogate), float or null
        comes back as json.dumps spells it, with the C encoder and with the
        pure-Python one."""
        width, rows = table
        columns = tuple(f"c{i}" for i in range(width))
        expected = jsonl_lines(rows, columns)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_VALUES", width * chunk)
            if c_encoder == "pure Python":
                patch.setattr(json.encoder, "c_make_encoder", None)
            assert write_jsonl(rows, columns) == expected


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("name", sorted(EDGE_COMMANDS))
def test_edge_output_bytes_pinned(tmp_path, name, fmt):
    src = tmp_path / "edge.json"
    src.write_text(EDGE_JSON)
    out = tmp_path / f"out.{fmt}"
    code = main([*EDGE_COMMANDS[name], "--input", str(src),
                 "--output", str(out), "--format", fmt])
    assert code == (2 if name == "inject" else 0)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EDGE_DIGESTS[name, fmt]


# SHA-256 of sweep over seed-7 `gen --n 64 --count 20` for s = -1 to 2 by
# 0.25, which crosses both limit points, frozen from the implementation
# that evaluated every s-independent term of omega, E and E* afresh at each
# grid point.
SWEEP_N64_DIGESTS = {
    "jsonl": "abf552326f1cd59ae97b17e7bc1db7a08a0206ee4c5a697687f6c045bf972e38",
    "csv": "6230d7388c90903420be64c29cfcb26ad69ff839776368764297c61509cea4d0",
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_sweep_bytes_pinned_on_generated_pairs(tmp_path, fmt):
    pairs, out = tmp_path / "pairs.csv", tmp_path / f"out.{fmt}"
    assert main(["gen", "--n", "64", "--count", "20", "--seed", "7",
                 "--output", str(pairs)]) == 0
    assert main(["sweep", "--s-min=-1", "--s-max=2", "--s-step=0.25",
                 "--input", str(pairs), "--output", str(out),
                 "--format", fmt]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SWEEP_N64_DIGESTS[fmt]


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(capsys, "gen", "--n", "4", "--count", "10",
                             "--seed", "7", "--output", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimension_guard(self, tmp_path, capsys):
        # random_pair's check, raised on the first row: nothing is written
        # and an existing output keeps its bytes
        assert run(capsys, "gen", "--n", "1", "--count", "3") == (
            1, "", "error: dimension must be >= 2, got 1\n")
        out = tmp_path / "pairs.csv"
        out.write_bytes(b"kept\n")
        assert run(capsys, "gen", "--n", "1", "--count", "3",
                   "--output", str(out)) == (
            1, "", "error: dimension must be >= 2, got 1\n")
        assert out.read_bytes() == b"kept\n"

    def test_dimension_limit_checked_before_the_header(self, tmp_path,
                                                      capsys):
        """n past MAX_GEN_DIMENSION is refused before one of its column
        names is built, and no output is opened; n at the limit is not."""
        out = tmp_path / "pairs.csv"
        tracemalloc.start()
        try:
            result = run(capsys, "gen", "--n", str(10**8), "--count", "1",
                         "--output", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (
            1, "", "error: dimension must be <= 1000000, got 100000000\n")
        assert peak < 64 * 1024 and not out.exists()
        with mock.patch.object(cli, "MAX_GEN_DIMENSION", 3):
            assert run(capsys, "gen", "--n", "3", "--count", "1")[0] == 0
            assert run(capsys, "gen", "--n", "4", "--count", "1") == (
                1, "", "error: dimension must be <= 3, got 4\n")

    def test_count_is_checked_first(self, capsys):
        assert run(capsys, "gen", "--n", "1", "--count", "0") == (
            1, "", "error: count must be >= 1, got 0\n")

    def test_roundtrip_compute_full_registry(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "gen", "--n", "5", "--count", "6",
                         "--seed", "3", "--output", str(path))
        assert code == 0
        all_simple = "chi2,kl,rel_j,rel_js,rel_ag,delta,bhat,hellinger,psi_sym,j,i,t"
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--measures", all_simple + ",vajda:1,phi:3,omega:0.5")
        assert code == 0
        records = jsonl(out)
        assert len(records) == 6 * 15
        assert all(rec["value"] >= 0.0 for rec in records)

    def test_roundtrip_verify(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        run(capsys, "gen", "--n", "3", "--count", "5", "--seed", "11",
            "--output", str(path))
        code, _, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--count", "1",
                           "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pair_id,role,v1,v2"
        assert len(lines) == 3


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Each ``divbounds`` line of README.md's "Command line" block runs as
    a shell would split it, in order, in one directory: gen writes the
    pairs file that the later commands read."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("divbounds ")]
    assert [argv[0] for argv in commands] == [
        "gen", "compute", "sweep", "verify"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        if "--output" in argv:
            with open(argv[argv.index("--output") + 1]) as fh:
                out = fh.read()
        assert (code, err) == (0, ""), argv
        assert out.splitlines(), argv
