import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from operator import itemgetter

import pytest

import divbounds
from divbounds import cli
from divbounds.bounds import VIOLATION_TOLERANCE
from divbounds.cli import CliInputError, _sweep_grid, main

STD_CSV = """pair_id,role,v1,v2
std,P,0.5,0.5
std,Q,0.25,0.75
"""

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

    def test_bare_parametric_expansion(self, std_csv, capsys):
        code, out, _ = run(capsys, "compute", "--input", std_csv,
                           "--measures", "omega", "--s-list=-1,2")
        assert code == 0
        measures = [r["measure"] for r in jsonl(out)]
        assert measures == ["omega:-1", "omega:2"]

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

    def test_component_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("pair_id,role,v1,v2,v3\n"
                        "p7,P,0.2,0.3,0.5\n"
                        "p7,Q,0.5,0.5,\n")
        assert_input_error(*run(capsys, "compute", "--input", str(path),
                                "--measures", "kl"),
                           "pair p7", "P has dimension 3, Q has dimension 2")

    def test_unknown_measure(self, std_csv, capsys):
        code, _, err = run(capsys, "compute", "--input", std_csv,
                           "--measures", "wat")
        assert code == 1
        assert "wat" in err

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

    @pytest.mark.parametrize("measure", ["omega:nan", "phi:inf", "omega:-inf",
                                         "vajda:inf"])
    def test_non_finite_parameter(self, std_csv, capsys, measure):
        assert_input_error(*run(capsys, "compute", "--input", std_csv,
                                "--measures", measure), measure, "finite")

    def test_non_finite_s_list(self, std_csv, capsys):
        assert_input_error(*run(capsys, "compute", "--input", std_csv,
                                "--measures", "omega", "--s-list", "0,inf"),
                           "finite")

    @pytest.mark.parametrize("measures, s_list", [("vajda:0.5", "1"),
                                                  ("vajda", "2,0.5")])
    def test_vajda_exponent_below_one(self, std_csv, capsys, measures,
                                      s_list):
        assert_input_error(*run(capsys, "compute", "--input", std_csv,
                                "--measures", measures, "--s-list", s_list),
                           "vajda:0.5", "m >= 1")

    def test_json_boolean_component(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"pairs": [{"id": "t", "p": [true, 1e-7], '
                        '"q": [0.5, 0.5]}]}')
        assert_input_error(*run(capsys, "compute", "--input", str(path),
                                "--measures", "kl", "--renormalize"),
                           "pair t", "components must be numbers")

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

    def test_empty_grid(self, std_csv, capsys):
        code, _, err = run(capsys, "sweep", "--input", std_csv,
                           "--s-min", "2", "--s-max", "1", "--s-step", "1")
        assert code == 1
        assert "grid" in err

    def test_bad_step(self, std_csv, capsys):
        code, _, _ = run(capsys, "sweep", "--input", std_csv,
                         "--s-min", "0", "--s-max", "1", "--s-step", "0")
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--s-min", "nan"), ("--s-max", "inf"), ("--s-min", "-inf"),
        ("--s-step", "inf"), ("--s-step", "nan")])
    def test_non_finite_grid(self, std_csv, capsys, flag, value):
        grid = {"--s-min": "0", "--s-max": "1", "--s-step": "0.5",
                flag: value}
        argv = [f"{k}={v}" for k, v in grid.items()]
        assert_input_error(*run(capsys, "sweep", "--input", std_csv, *argv),
                           "finite")

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
        with pytest.raises(CliInputError, match="exceeds"):
            _sweep_grid(0.0, 1.0, 0.099)


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

    def test_tolerance_override(self, std_csv, capsys):
        code, _, _ = run(capsys, "verify", "--input", std_csv,
                         "--s-list", "0", "--tolerance", "1e-6")
        assert code == 0

    def test_non_finite_s_list(self, std_csv, capsys):
        assert_input_error(*run(capsys, "verify", "--input", std_csv,
                                "--s-list", "nan"), "s-list", "finite")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance(self, std_csv, capsys, tolerance):
        assert_input_error(*run(capsys, "verify", "--input", std_csv,
                                f"--tolerance={tolerance}"),
                           "tolerance", tolerance)

    def test_library_domain_error_is_input_error(self, tmp_path, capsys):
        # 0.5 / 1e-320 overflows, so the ratio bounds are rejected
        path = tmp_path / "overflow.json"
        path.write_text('{"pairs": [{"id": "o", "p": [0.5, 0.5], '
                        '"q": [1e-320, 1.0]}]}')
        assert_input_error(*run(capsys, "verify", "--input", str(path)),
                           "R=inf")

    def test_csv_format(self, std_csv, capsys):
        code, out, _ = run(capsys, "verify", "--input", std_csv,
                           "--s-list", "0", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "pair_id,s,inequality_id,lhs,rhs,slack,verdict,reason"


# r = 2e-300: r^3 underflows to zero in delta_omega (verify), and
# ((p + q)/(2p))^2 overflows in omega_s (compute omega:2).
@pytest.mark.parametrize("argv", [("verify",),
                                  ("compute", "--measures", "omega:2")])
def test_arithmetic_error_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "tiny.json"
    path.write_text('{"pairs": [{"id": "z", "p": [1e-300, 1.0], '
                    '"q": [0.5, 0.5]}]}')
    assert_input_error(*run(capsys, *argv, "--input", str(path)),
                       "numeric failure")


def json_pair(p, q):
    return json.dumps({"pairs": [{"id": "x", "p": p, "q": q}]})


# (input file text, or None for no --input; arguments; words the one
# error line must hold)
INPUT_ERRORS = {
    "unknown-flag": (STD_CSV, ("verify", "--no-such-flag"),
                     ("unrecognized", "--no-such-flag")),
    "missing-command": (None, (), ("command",)),
    "empty-s-list": (STD_CSV, ("verify", "--s-list", ","), ("s-list",)),
    "json-parse": ('{"pairs": [', ("verify",), ("JSON parse failure",)),
    "json-not-pairs": ('{"pairs": 3}', ("verify",), ('{"pairs": [...]}',)),
    "json-not-object": ('{"pairs": [3]}', ("verify",),
                        ("pairs[0] is not an object",)),
    "json-missing-q": ('{"pairs": [{"id": "m", "p": [0.5, 0.5]}]}',
                       ("verify",), ("pair m", "missing field", "'q'")),
    "json-no-pairs": ('{"pairs": []}', ("verify",), ("no pairs found",)),
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
    "csv-empty": ("\n \n", ("verify",), ("CSV input is empty",)),
    "csv-header": ("id,role,v1,v2\nx,P,0.5,0.5\n", ("verify",),
                   ("header", "pair_id,role")),
    "csv-short-row": ("pair_id,role,v1\nx,P\n", ("verify",),
                      ("line 2", "at least 3 cells")),
    "csv-role": ("pair_id,role,v1,v2\nx,R,0.5,0.5\n", ("verify",),
                 ("pair x", "role must be P or Q", "'R'")),
    "csv-component": ("pair_id,role,v1,v2\nx,P,0.5,half\n", ("verify",),
                      ("pair x", "bad component", "half")),
    "csv-duplicate-role": ("pair_id,role,v1,v2\nx,P,0.5,0.5\n"
                           "x,P,0.4,0.6\n", ("verify",),
                           ("pair x", "duplicate role P")),
    "csv-missing-role": ("pair_id,role,v1,v2\nx,P,0.5,0.5\n", ("verify",),
                         ("pair x", "missing role Q")),
    "csv-sum-overflow": ("pair_id,role,v1,v2\nx,P,1e308,1e308\n"
                         "x,Q,0.5,0.5\n", ("verify",),
                         ("pair x", "overflows")),
    "unknown-parametric-measure": (STD_CSV, ("compute", "--measures",
                                             "foo:1"),
                                   ("unknown parametric measure", "'foo'")),
    "no-measures": (STD_CSV, ("compute", "--measures", ","),
                    ("no measures requested",)),
    "gen-count": (None, ("gen", "--n", "2", "--count", "0"),
                  ("count must be >= 1", "got 0")),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_table(tmp_path, capsys, name):
    text, argv, words = INPUT_ERRORS[name]
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = (*argv, "--input", str(path))
    assert_input_error(*run(capsys, *argv), *words)


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


def cli_process(*argv, stdout):
    src = os.path.dirname(os.path.dirname(divbounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "divbounds.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def assert_write_error(proc, *words):
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert all(word in err for word in words), err


def test_reader_closing_pipe_is_input_error(tmp_path):
    # 40 pairs print about 1 MB, more than a pipe holds
    pairs = tmp_path / "pairs.csv"
    assert main(["gen", "--n", "2", "--count", "40", "--output",
                 str(pairs)]) == 0
    proc = cli_process("verify", "--input", str(pairs),
                       stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    assert_write_error(proc, "standard output", "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_full_device_is_input_error(std_csv, capsys):
    assert_input_error(*run(capsys, "verify", "--input", std_csv,
                            "--output", "/dev/full"),
                       "cannot write /dev/full", "No space left")
    with open("/dev/full", "wb") as full:
        proc = cli_process("gen", "--n", "3", "--count", "3", stdout=full)
    assert_write_error(proc, "standard output", "No space left")


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


def test_measures_help_names_every_id(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["compute", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    measures_help = out.split("MEASURES", 2)[2].split("--s-list")[0]
    words = set(re.split(r"[\s,:;()]+", measures_help))
    for measure_id in [*cli._SIMPLE_MEASURES, *cli._PARAMETRIC_MEASURES]:
        assert measure_id in words, measure_id


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


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(capsys, "gen", "--n", "4", "--count", "10",
                             "--seed", "7", "--output", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimension_guard(self, capsys):
        code, _, _ = run(capsys, "gen", "--n", "1", "--count", "3")
        assert code == 1

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
