"""The divbounds benchmark: one workload per invocation, one JSON result.

    python3 perfbench/run.py --workload verify_n64 --seed 7 --seconds 30 --trace 0

Each workload writes its pairs with ``divbounds gen`` logic
(``random_pair(n, seed + i)``), then

* runs the CLI on them end to end, as a subprocess, one at a time, and
  times it from process start to exit (``pairs_per_s``, ``peak_rss_mb``);
* times the workload's per-pair library call in this process, warm and
  repeated: ``pair_ms_p50`` is the median over pairs of the mean of each
  pair's repeats without the slowest quarter, ``pair_ms_tail`` a high
  percentile of the process CPU time of all the single calls;
* times fresh interpreters that import ``divbounds.cli`` and build its
  parser (``setup_s``);
* checks the outputs: exit code against the verdicts, identical bytes on
  every run, the pinned SHA-256 at the default seed, the library result
  against the CLI records, and a fixed sample of printed values against
  the repo's 50-digit mpmath oracle (``tests/oracles.py``).

With ``--trace 1`` the CLI runs instead alternate untraced and traced
(``tracing.py``), and the per-layer metrics are printed.  ``--workload
all`` runs every workload in turn.  The last line of standard output is
the JSON result; the lines above it say the same for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

try:
    import oracle
except ImportError as exc:  # tests/oracles.py is missing from the checkout
    sys.exit(f"error: cannot load the mpmath oracle: {exc}")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

#: The CLI default s-list, spelled out so the library call matches it.
S_LIST = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

COMPUTE_MEASURES = ("chi2,kl,rel_j,rel_js,rel_ag,delta,bhat,hellinger,"
                    "psi_sym,j,i,t,vajda:3,phi,omega")

#: Percentiles tried for pair_ms_tail; the highest one with at least ten
#: single calls beyond it is reported.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Each timed pair is timed at least this often (see pair_latency).
MIN_REPEATS = 3

MIN_ROUNDS = 5
#: Fresh interpreters timed per run for setup_s, spread over the rounds.
MIN_SETUPS = 10
#: Share of a run spent in CLI processes; the rest times library calls.
CLI_SHARE = 0.65
#: Untimed library calls before each latency block: the CLI process that
#: ran just before evicts this process's caches.
WARM_CALLS = 5
#: Wall time of a traced CLI process relative to an untraced one.
TRACE_COST = 1.4
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    n: int
    #: Pairs given to the CLI.
    count: int
    #: Pairs timed in-process: the CLI's pairs, then more from the same seed
    #: where the CLI's are too few for a tail percentile.
    timed: int
    #: Nominal wall time of one CLI process and of one warm library call on
    #: a 2-core host.  They fix the number of rounds and of timed calls for
    #: a given --seconds, so every run has the same sample sizes and the
    #: same tail percentile.
    cli_s: float
    call_ms: float
    #: Pair indices whose printed values are recomputed with mpmath and
    #: compared with the in-process library call.
    sample: tuple[int, ...]


WORKLOADS = {
    "verify_n64": Workload(("verify",), 64, 200, 200, 1.6, 5.3,
                           (0, 100, 199)),
    "verify_n2": Workload(("verify",), 2, 1000, 1000, 3.6, 1.5,
                          (0, 500, 999)),
    "compute_n4096": Workload(("compute", "--measures", COMPUTE_MEASURES),
                              4096, 32, 100, 1.9, 40.0, (0,)),
}


class ProgramMissing(Exception):
    """The divbounds sources are not in this checkout."""


def load_package():
    if not (SRC / "divbounds" / "cli.py").is_file():
        raise ProgramMissing(f"no divbounds package under {SRC}")
    sys.path.insert(0, str(SRC))
    import divbounds
    from divbounds import cli

    if Path(divbounds.__file__).resolve().parent != SRC / "divbounds":
        raise ProgramMissing(f"divbounds imported from {divbounds.__file__}")
    return cli


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    code: int
    stderr: str


def run_child(argv: list[str], stderr_path: Path) -> Child:
    """Run one subprocess to exit; wall time from spawn to reaping, peak
    RSS from the kernel's rusage of that child."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 stderr_path.read_text(errors="replace").strip())


def measure_setup(work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser."""
    child = run_child([sys.executable, "-c",
                       "import divbounds.cli as cli; cli.build_parser()"],
                      work / "setup.err")
    if child.code != 0:
        raise RuntimeError(f"setup run failed: {child.stderr}")
    return child.wall_s


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0),
              default=50.0)
    return pct, ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]


def pair_latency(repeats: list[float]) -> float:
    """Mean of a pair's repeated timings without the slowest quarter, for
    pair_ms_p50.

    The host's vCPU is preempted in bursts that stall single calls by about
    10 ms, so the slowest repeats are dropped.  Its speed also switches
    between two levels about 35% apart for tens of seconds at a time; a
    median of the repeats would jump between the levels as their mix nears
    one half, while a mean moves in proportion to the mix.
    """
    kept = sorted(repeats)[:len(repeats) - math.ceil(len(repeats) / 4)]
    return statistics.fmean(kept)


def library_call(cli, wl: Workload):
    from divbounds import verify_all

    if wl.command[0] == "verify":
        return lambda pid, pair: verify_all(pair, S_LIST, pair_id=pid)
    measures = cli.resolve_measures(COMPUTE_MEASURES.split(","), S_LIST)
    return lambda pid, pair: [(mid, fn(pair)) for mid, _, fn in measures]


def measure_latency(call, pairs, block: range, keep: set[str],
                    kept: dict, samples: list[list[float]],
                    cpu: list[float]) -> None:
    """Time call numbers ``block`` warm, cycling through the pairs; call k
    times pair k mod len(pairs), appends its wall time in ms to
    samples[k mod len(pairs)] and its process CPU time in ms to ``cpu``.
    The first result on each pair id in ``keep`` is stored in ``kept``."""
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    for k in block:
        i = k % len(pairs)
        pid, pair = pairs[i]
        started, cpu_started = clock(), cpu_clock()
        result = call(pid, pair)
        cpu.append((cpu_clock() - cpu_started) * 1e-6)
        samples[i].append((clock() - started) * 1e-6)
        if pid in keep and pid not in kept:
            kept[pid] = result


def scan_output(path: Path, keep: set[str]):
    """Record count, ids of pairs with a failed verdict, and the records of
    the kept pair ids."""
    count = 0
    failing = set()
    kept: dict[str, list[dict]] = {pid: [] for pid in keep}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            count += 1
            if rec.get("verdict") == "fail":
                failing.add(rec["pair_id"])
            if rec["pair_id"] in kept:
                kept[rec["pair_id"]].append(rec)
    return count, failing, kept


def library_records(result, command: str):
    """The library result in the CLI's record form, for comparison."""
    if command == "verify":
        rows = [(e.context.s, e.inequality_id, e.lhs, e.rhs, e.slack,
                 e.verdict) for e in result.entries]
        rows += [(k.context.s, k.inequality_id, None, None, None, "skip")
                 for k in result.skipped]
        return sorted(rows, key=_row_key)
    return sorted(result)


def cli_records(records, command: str):
    if command == "verify":
        return sorted(((r["s"], r["inequality_id"], r["lhs"], r["rhs"],
                        r["slack"], r["verdict"]) for r in records),
                      key=_row_key)
    return sorted((r["measure"], r["value"]) for r in records)


def _row_key(row):
    return ((0, 0.0) if row[0] is None else (1, row[0])), row[1]


def oracle_check(pair, records, command: str):
    """(checked, expected, misses) of the sampled printed values of one
    pair."""
    p, q = pair.p.values, pair.q.values
    if command == "verify":
        values = list(oracle.verify_values(p, q, records))
        r, R = oracle.ratio_bounds(p, q)
        expected = oracle.verify_sides(r == R, len(S_LIST))
    else:
        values = [(rec["measure"], rec["value"],
                   oracle.compute_value(p, q, rec["measure"]))
                  for rec in records]
        expected = len(values)
    misses = [label for label, printed, want in values
              if not oracle.agrees(printed, want)]
    return len(values), expected, misses


def prepare(cli, name: str, seed: int):
    """Fresh work directory and the workload's pairs, written as
    ``divbounds gen`` writes them."""
    wl = WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    pairs_csv = work / "pairs.csv"
    code = cli.main(["gen", "--n", str(wl.n), "--count", str(wl.count),
                     "--seed", str(seed), "--output", str(pairs_csv)])
    if code != 0:
        raise RuntimeError(f"gen failed with exit code {code}")
    return wl, work, pairs_csv, cli.load_pairs(str(pairs_csv), False)


def cli_argv(wl: Workload, pairs_csv: Path, out: Path,
             spans: Path | None = None) -> list[str]:
    head = (["-m", "divbounds.cli"] if spans is None
            else [str(BENCH / "tracing.py"), str(spans)])
    return ([sys.executable] + head + list(wl.command)
            + ["--input", str(pairs_csv), "--output", str(out)])


def rounds(wl: Workload, seconds: float, share: float, least: int) -> int:
    return max(least, round(seconds * share / wl.cli_s))


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool):
    wl, work, pairs_csv, pairs = prepare(cli, name, seed)
    keep = {pairs[i][0] for i in wl.sample}
    command = wl.command[0]
    lines = [f"workload {name}: {command} n={wl.n} pairs={wl.count} "
             f"seed={seed} seconds={seconds:g} trace={int(trace)}"]
    out = work / "out.jsonl"
    plain, traced, layer_runs, digests = [], [], [], set()
    metrics = {}

    def run_cli() -> None:
        plain.append(run_child(cli_argv(wl, pairs_csv, out), work / "cli.err"))
        digests.add(sha256(out) if out.exists() else "missing")

    # The run is a fixed number of rounds, so every run has the same
    # sample sizes.  Each round runs every measurement once, so all of
    # them average over the same stretch of the host's speed drift.
    if trace:
        spans, tout = work / "spans.pkl", work / "traced.jsonl"
        for _ in range(rounds(wl, seconds, 1.0 / (1.0 + TRACE_COST), 2)):
            run_cli()
            traced.append(run_child(cli_argv(wl, pairs_csv, tout, spans),
                                    work / "traced.err"))
            digests.add(sha256(tout) if tout.exists() else "missing")
            if spans.exists():
                with open(spans, "rb") as fh:
                    layer_runs.append(tracing.layer_metrics(
                        pickle.load(fh), wl.count))
                spans.unlink()
        pps_plain = statistics.median(wl.count / c.wall_s for c in plain)
        pps_traced = statistics.median(wl.count / c.wall_s for c in traced)
        for key in layer_runs[0] if layer_runs else ():
            metrics[key] = statistics.median(run[key] for run in layer_runs)
        metrics["trace.overhead_ratio"] = pps_traced / pps_plain
        lines.append(f"trace: {len(traced)} traced and {len(plain)} untraced "
                     f"CLI runs; traced {pps_traced:.4g} vs untraced "
                     f"{pps_plain:.4g} pairs/s")
    else:
        from divbounds import random_pair

        n_rounds = rounds(wl, seconds, CLI_SHARE, MIN_ROUNDS)
        timed = pairs + [(f"timed-{i}", random_pair(wl.n, seed + i))
                         for i in range(wl.count, wl.timed)]
        repeats = max(MIN_REPEATS, round(
            seconds * (1.0 - CLI_SHARE) * 1e3 / wl.call_ms / wl.timed))
        calls = repeats * wl.timed
        call = library_call(cli, wl)
        setup, kept_results = [], {}
        samples: list[list[float]] = [[] for _ in timed]
        cpu: list[float] = []
        for k in range(n_rounds):
            setup += [measure_setup(work)
                      for _ in range(math.ceil(MIN_SETUPS / n_rounds))]
            run_cli()
            for pid, pair in pairs[:WARM_CALLS]:
                call(pid, pair)
            measure_latency(call, timed, range(k * calls // n_rounds,
                                               (k + 1) * calls // n_rounds),
                            keep, kept_results, samples, cpu)
        latency = [pair_latency(reps) for reps in samples]
        pct, tail = tail_percentile(cpu)
        metrics["pairs_per_s"] = statistics.median(
            wl.count / c.wall_s for c in plain)
        metrics["pair_ms_p50"] = statistics.median(latency)
        metrics["pair_ms_tail"] = tail
        metrics["peak_rss_mb"] = statistics.median(
            c.peak_rss_mb for c in plain)
        metrics["setup_s"] = statistics.median(setup)
        walls = sorted(c.wall_s for c in plain)
        beyond = len(cpu) - math.ceil(pct / 100.0 * len(cpu))
        lines += [f"cli: {len(plain)} runs, wall {walls[0]:.3f}.."
                  f"{walls[-1]:.3f} s",
                  f"pair_ms_p50: median over {len(latency)} pairs of the "
                  f"mean of the fastest {repeats - math.ceil(repeats / 4)} "
                  f"of {repeats} warm calls on each",
                  f"pair_ms_tail: p{pct:g} of the CPU time of {len(cpu)} "
                  f"single warm calls ({beyond} beyond it)",
                  f"setup_s is the median of {len(setup)} fresh interpreters"]

    problems = []
    if not out.exists():
        problems.append("the CLI wrote no output")
        out.touch()
    record_count, failing, kept_records = scan_output(out, keep)
    codes = {c.code for c in plain + traced}
    want_code = 2 if (command == "verify" and failing) else 0
    if codes != {want_code}:
        stderr = next(c.stderr for c in plain + traced if c.code != want_code)
        problems.append(f"exit codes {sorted(codes)}, expected {want_code}: "
                        f"{stderr[-300:]}")
    if len(digests) != 1:
        problems.append(f"output differs between runs ({len(digests)} "
                        f"digests)")
    digest = min(digests)
    if seed == EXPECTED["default_seed"]:
        pinned = EXPECTED["sha256"].get(name)
        if digest != pinned:
            problems.append(f"sha256 {digest} differs from pinned {pinned}")
        lines.append(f"digest sha256 {digest}: "
                     + ("matches the pinned value" if digest == pinned
                        else "MISMATCH"))
    else:
        lines.append(f"digest sha256 {digest}: {len(digests)} distinct over "
                     f"{len(plain) + len(traced)} runs (pinned only at seed "
                     f"{EXPECTED['default_seed']})")
    if command == "compute":
        expected_records = wl.count * len(
            cli.resolve_measures(COMPUTE_MEASURES.split(","), S_LIST))
        if record_count != expected_records:
            problems.append(f"{record_count} records, expected "
                            f"{expected_records}")

    if not trace:
        mismatched = sorted(pid for pid in keep
                            if library_records(kept_results[pid], command)
                            != cli_records(kept_records[pid], command))
        lines.append(f"cross-check: library result equals the CLI records on "
                     f"{len(keep) - len(mismatched)}/{len(keep)} sampled "
                     f"pairs")
        if mismatched:
            problems.append(f"library and CLI disagree on {mismatched}")

    # A sampled value that misses the oracle fails its pair, not the run.
    checked, expected, misses = 0, 0, []
    by_id = dict(pairs)
    for pid in sorted(keep):
        n_checked, n_expected, wrong = oracle_check(
            by_id[pid], kept_records[pid], command)
        checked += n_checked
        expected += n_expected
        misses += [f"{pid} {label}" for label in wrong]
        if wrong:
            failing.add(pid)
    lines.append(f"mpmath: {checked - len(misses)}/{checked} sampled values "
                 f"on {len(keep)} pairs agree at 50 digits within "
                 f"{oracle.REL_TOL:g} relative")
    if checked != expected:
        problems.append(f"mpmath checked {checked} sampled values, expected "
                        f"{expected}: the record ids no longer match the "
                        f"oracle table in oracle.py")
    lines += [f"mpmath miss: {m}" for m in misses]

    failed = wl.count if problems else len(failing)
    listed = "; " + ", ".join(sorted(failing)) if failing else ""
    lines.append(f"failed_share {failed / wl.count:.6g} ({failed}/{wl.count} "
                 f"pairs{listed})")
    lines += [f"PROBLEM: {p}" for p in problems]
    return {"correct": not problems, "attempted": wl.count, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_package()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = [m["name"] for m in _SPEC["per_layer" if args.trace
                                       else "end_to_end"]]
    results = {}
    for name in names:
        result, lines = run_workload(cli, name, args.seed, args.seconds,
                                     bool(args.trace))
        missing = sorted(set(wanted) - set(result["metrics"]))
        if missing:
            result["correct"] = False
            lines.append(f"PROBLEM: metrics not measured: {missing}")
        result["metrics"] = {key: {"value": result["metrics"][key],
                                   "unit": UNITS[key]}
                             for key in wanted if key in result["metrics"]}
        results[name] = result
        for line in lines:
            print(line)
        for key, metric in result["metrics"].items():
            print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": metric
                             for name, r in results.items()
                             for key, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
