"""Batch command-line front end.

Four subcommands: ``compute`` evaluates named measures over distribution
pairs, ``sweep`` tabulates the unified AG/JS family and its bounds across a
parameter grid, ``verify`` runs the consolidated inequality report, and
``gen`` writes reproducible test pairs.  Input is CSV
(``pair_id,role,v1,...,vn`` with role P or Q) or JSON
(``{"pairs": [{"id": ..., "p": [...], "q": [...]}]}``); output is
newline-delimited JSON or CSV with shortest-round-trip decimals so reports
are diffable.  Exit codes: 0 success, 1 input or usage error, 2 verified
inequality violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from operator import itemgetter
from typing import Callable, Sequence

from . import bounds as bounds_mod
from . import divergences as div
from .simplex import (
    DistributionPair,
    random_pair,
    ratio_bounds,
    validate,
)
from .type_s import SParameter, omega_s, phi_s
from .bounds import REPORT_NOTES, PairMoments, _s_key, verify_all

DEFAULT_S_LIST = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

#: Most points a sweep grid may have; checked before the grid is built.
MAX_GRID_POINTS = 10**6

#: One encoder for every JSONL line: ``json.dumps`` builds a new encoder on
#: each call that passes ``separators``.
_JSON = json.JSONEncoder(separators=(",", ":"))

_SIMPLE_MEASURES: dict[str, Callable[[DistributionPair], float]] = {
    "chi2": div.chi_squared,
    "kl": div.relative_information,
    "rel_j": div.relative_j_divergence,
    "rel_js": div.relative_js_divergence,
    "rel_ag": div.relative_ag_divergence,
    "delta": div.triangular_discrimination,
    "bhat": div.bhattacharyya,
    "hellinger": div.hellinger,
    "psi_sym": div.symmetric_chi_squared,
    "j": div.j_divergence,
    "i": div.jensen_shannon,
    "t": div.ag_mean_divergence,
}

_PARAMETRIC_MEASURES: dict[str, Callable[[DistributionPair, float], float]] = {
    "vajda": div.vajda_abs_chi,
    "phi": phi_s,
    "omega": omega_s,
}


class CliInputError(Exception):
    """Input or usage failure: reported on stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # input-error path so exit 2 stays reserved for verified violations.
    def error(self, message):
        raise CliInputError(message)


def _parse_s_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(SParameter.from_value(tok).s
                       for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliInputError(f"bad s-list {text!r}: {exc}") from None
    if not values:
        raise CliInputError("s-list is empty")
    return values


def _pair(pid: str, raw, renormalize: bool):
    """(pid, pair) from the raw P and Q components, or an input error."""
    try:
        return pid, DistributionPair(*(validate(part, renormalize=renormalize)
                                       for part in raw))
    except ValueError as exc:
        raise CliInputError(f"pair {pid}: {exc}") from None


def _load_json_pairs(text: str, renormalize: bool):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"JSON parse failure: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise CliInputError('JSON input must be {"pairs": [...]}')
    out = []
    for i, rec in enumerate(doc["pairs"]):
        if not isinstance(rec, dict):
            raise CliInputError(f"pairs[{i}] is not an object")
        pid = str(rec.get("id", f"pair-{i}"))
        try:
            raw = rec["p"], rec["q"]
        except KeyError as exc:
            raise CliInputError(f"pair {pid}: missing field {exc}") from None
        # bool is an int subclass, so the types are compared exactly
        if not all(isinstance(part, list)
                   and all(type(v) in (int, float) for v in part)
                   for part in raw):
            raise CliInputError(f"pair {pid}: components must be numbers")
        out.append(_pair(pid, raw, renormalize))
    return out


def _load_csv_pairs(text: str, renormalize: bool):
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise CliInputError("CSV input is empty")
    header = [cell.strip() for cell in rows[0]]
    if header[:2] != ["pair_id", "role"]:
        raise CliInputError(
            "CSV header must start with pair_id,role followed by components")
    # dicts keep insertion order: pairs come out in first-seen id order
    staged: dict[str, dict[str, tuple[float, ...]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < 3:
            raise CliInputError(f"line {lineno}: expected at least 3 cells")
        pid, role = row[0].strip(), row[1].strip()
        if role not in ("P", "Q"):
            raise CliInputError(
                f"pair {pid}: role must be P or Q, got {role!r}")
        cells = [cell.strip() for cell in row[2:] if cell.strip() != ""]
        try:
            values = tuple(float(cell) for cell in cells)
        except ValueError as exc:
            raise CliInputError(f"pair {pid}: bad component: {exc}") from None
        slot = staged.setdefault(pid, {})
        if role in slot:
            raise CliInputError(f"pair {pid}: duplicate role {role}")
        slot[role] = values
    out = []
    for pid, slot in staged.items():
        for role in ("P", "Q"):
            if role not in slot:
                raise CliInputError(f"pair {pid}: missing role {role}")
        out.append(_pair(pid, (slot["P"], slot["Q"]), renormalize))
    return out


def load_pairs(path: str, renormalize: bool):
    """Read pairs from a CSV or JSON file (sniffed from the content)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a BOM
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        pairs = _load_json_pairs(text, renormalize)
    else:
        pairs = _load_csv_pairs(text, renormalize)
    if not pairs:
        raise CliInputError(f"{path}: no pairs found")
    return pairs


def resolve_measures(tokens: Sequence[str], s_list: tuple[float, ...]):
    """Expand measure tokens into (measure_id, sort_param, callable).

    Parametric measures take their parameter inline (``omega:-0.5``,
    ``vajda:3``); a bare parametric name expands across the s-list.
    """
    resolved = []
    for raw in tokens:
        token = raw.strip()
        if not token:
            continue
        if ":" in token:
            base, _, arg = token.partition(":")
            if base not in _PARAMETRIC_MEASURES:
                raise CliInputError(f"unknown parametric measure {base!r}")
            params = ((token, arg),)
        elif token in _PARAMETRIC_MEASURES:
            base, params = token, ((f"{token}:{s:g}", s) for s in s_list)
        elif token in _SIMPLE_MEASURES:
            resolved.append((token, None, _SIMPLE_MEASURES[token]))
            continue
        else:
            raise CliInputError(f"unknown measure {token!r}")
        fn = _PARAMETRIC_MEASURES[base]
        for label, arg in params:
            try:
                param = SParameter.from_value(arg).s
                if base == "vajda":
                    div._check_exponent(param)
            except ValueError as exc:
                raise CliInputError(
                    f"bad parameter in measure {label!r}: {exc}") from None
            resolved.append((f"{base}:{param:g}", param,
                             lambda pair, f=fn, v=param: f(pair, v)))
    if not resolved:
        raise CliInputError("no measures requested")
    return resolved


def _groups(pairs, *always: str):
    """(pair_id, pairs) in sorted id order.  Input order is kept within a
    group, since JSON input may repeat an id; every id in ``always`` gets a
    group even when no pair carries it."""
    groups: dict[str, list[DistributionPair]] = {pid: [] for pid in always}
    for pid, pair in pairs:
        groups.setdefault(pid, []).append(pair)
    return sorted(groups.items())


@contextlib.contextmanager
def _output(path: str):
    """Standard output for "-", else the file at ``path`` opened for
    writing and closed on exit.  A path that cannot be opened and a write
    that fails (a full device, a reader that closed the pipe) are input
    errors."""
    to_stdout = path == "-"
    try:
        with (contextlib.nullcontext(sys.stdout) if to_stdout
              else open(path, "w", encoding="utf-8", newline="")) as out:
            yield out
            out.flush()
    except OSError as exc:
        if to_stdout:
            # The interpreter flushes standard output again at exit; point
            # it at the null device so that flush cannot fail a second time.
            with contextlib.suppress(OSError, ValueError):
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        name = "standard output" if to_stdout else path
        raise CliInputError(f"cannot write {name}: {exc}") from None


def _write_records(records, columns, args) -> None:
    with _output(args.output) as out:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(records)
        else:
            encode = _JSON.encode
            out.writelines(encode(dict(zip(columns, row))) + "\n"
                           for row in records)


def _cmd_compute(args) -> int:
    pairs = load_pairs(args.input, args.renormalize)
    s_list = _parse_s_list(args.s_list) if args.s_list else DEFAULT_S_LIST
    measures = [((_s_key(param), measure_id), measure_id, fn)
                for measure_id, param, fn in resolve_measures(
                    args.measures.split(","), s_list)]
    records = []
    for pid, group in _groups(pairs):
        keyed = [(key, (pid, measure_id, fn(pair)))
                 for pair in group for key, measure_id, fn in measures]
        keyed.sort(key=itemgetter(0))
        records.extend(row for _, row in keyed)
    _write_records(records, ("pair_id", "measure", "value"), args)
    return 0


def _sweep_grid(s_min: float, s_max: float, s_step: float):
    for name, value in (("s_min", s_min), ("s_max", s_max),
                        ("s_step", s_step)):
        if not math.isfinite(value):
            raise CliInputError(f"{name} must be finite, got {value!r}")
    if not (s_min < s_max):
        raise CliInputError(f"empty grid: s_min={s_min!r} >= s_max={s_max!r}")
    if not s_step > 0.0:
        raise CliInputError(f"s_step must be positive, got {s_step!r}")
    points = (s_max - s_min) / s_step + 1.0
    if not points <= MAX_GRID_POINTS:
        raise CliInputError(f"grid of {points:.3g} points exceeds the limit "
                            f"of {MAX_GRID_POINTS}")
    values = []
    k = 0
    while True:
        s = s_min + k * s_step
        if s > s_max + 1e-9 * s_step:
            break
        values.append(s)
        k += 1
    return values


def _cmd_sweep(args) -> int:
    pairs = load_pairs(args.input, args.renormalize)
    grid = _sweep_grid(args.s_min, args.s_max, args.s_step)
    records = []
    for pid, group in _groups(pairs):
        rows = []
        for pair in group:
            rb = ratio_bounds(pair)
            moments = None if rb.r == rb.R else PairMoments.of(pair)
            for s in grid:
                sp = SParameter.from_value(s)
                *family, gaps = bounds_mod._family_at(pair, rb, moments, sp)
                minima = ((None, None) if gaps is None
                          else (gap.minimum for gap in gaps))
                rows.append((pid, s, sp.regime.value, *family, *minima))
        rows.sort(key=itemgetter(1))
        records.extend(rows)
    _write_records(records, ("pair_id", "s", "regime", "omega", "e", "e_star",
                             "a", "b", "gap_half_e_bound",
                             "gap_e_star_bound"), args)
    return 0


def _cmd_verify(args) -> int:
    pairs = load_pairs(args.input, args.renormalize)
    s_list = _parse_s_list(args.s_list) if args.s_list else DEFAULT_S_LIST
    # Self-test of the failure path: corrupt the first checked entry of
    # the first pair read.
    corrupt = pairs[0][1] if args.inject_violation else None
    records = []
    # Within a pair_id: pair-level rows before per-s rows, then by
    # inequality id; the note rows head the "*" group.
    for pid, group in _groups(pairs, "*"):
        rows = [(pid, None, "note", None, None, None, "info", note)
                for note in (REPORT_NOTES if pid == "*" else ())]
        for pair in group:
            report = verify_all(pair, s_list, pair_id=pid,
                                violation_tolerance=args.tolerance)
            entries = report.entries
            if pair is corrupt:
                # lhs past rhs by more than the tolerance and than the
                # rounding of rhs, however large either is
                first = entries[0]
                lhs = first.rhs + 1.0 + 2.0 * (args.tolerance + abs(first.rhs))
                entries = (bounds_mod._entry(
                    first.inequality_id, lhs, first.rhs, first.context,
                    args.tolerance),) + entries[1:]
            rows.extend((pid, e.context.s, e.inequality_id, e.lhs, e.rhs,
                         e.slack, e.verdict, None) for e in entries)
            rows.extend((pid, item.context.s, item.inequality_id, None, None,
                         None, "skip", item.reason)
                        for item in report.skipped)
        rows.sort(key=lambda row: (_s_key(row[1]), row[2]))
        records.extend(rows)
    any_fail = any(row[6] == "fail" for row in records)
    _write_records(records, ("pair_id", "s", "inequality_id", "lhs", "rhs",
                             "slack", "verdict", "reason"), args)
    return 2 if any_fail else 0


def _cmd_gen(args) -> int:
    if args.n < 2:
        raise CliInputError(f"dimension must be >= 2, got {args.n}")
    if args.count < 1:
        raise CliInputError(f"count must be >= 1, got {args.count}")
    width = max(4, len(str(args.count)))
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["pair_id", "role"]
                        + [f"v{i + 1}" for i in range(args.n)])
        for i in range(args.count):
            pair = random_pair(args.n, args.seed + i)
            pid = f"pair-{i:0{width}d}"
            writer.writerow([pid, "P"] + [repr(v) for v in pair.p.values])
            writer.writerow([pid, "Q"] + [repr(v) for v in pair.q.values])
    return 0


def _add_io_flags(sub):
    sub.add_argument("--input", required=True,
                     help="input pairs file (CSV or JSON, sniffed)")
    sub.add_argument("--renormalize", action="store_true",
                     help="divide components by their sum before "
                          "validation")
    sub.add_argument("--output", default="-",
                     help="output path (default: standard output)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                     help="output format (default: jsonl)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divbounds",
                     description="Divergence measures and verified bounds "
                                 "over discrete distribution pairs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_compute = subs.add_parser(
        "compute", help="evaluate named measures over pairs")
    _add_io_flags(p_compute)
    p_compute.add_argument(
        "--measures", required=True,
        help=f"comma-separated measure ids: {', '.join(_SIMPLE_MEASURES)}, "
             f"and {', '.join(_PARAMETRIC_MEASURES)} with a parameter after "
             "a colon (vajda:3, omega:-0.5); bare, these expand over --s-list")
    p_compute.add_argument("--s-list", default=None,
                           help="comma-separated parameters used to expand "
                                "bare parametric measure names")
    p_compute.set_defaults(handler=_cmd_compute)

    p_sweep = subs.add_parser(
        "sweep", help="tabulate the unified family and bounds over a grid")
    _add_io_flags(p_sweep)
    p_sweep.add_argument("--s-min", type=float, required=True)
    p_sweep.add_argument("--s-max", type=float, required=True)
    p_sweep.add_argument("--s-step", type=float, required=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = subs.add_parser(
        "verify", help="run the consolidated inequality report")
    _add_io_flags(p_verify)
    p_verify.add_argument("--s-list", default=None,
                          help="comma-separated family parameters "
                               "(default: -1,-0.5,0,0.5,1,2)")
    p_verify.add_argument("--tolerance", type=float,
                          default=bounds_mod.VIOLATION_TOLERANCE,
                          help="violation tolerance override (absolute)")
    p_verify.add_argument("--inject-violation", action="store_true",
                          help="self-test: corrupt one entry to exercise "
                               "the failure exit path")
    p_verify.set_defaults(handler=_cmd_verify)

    p_gen = subs.add_parser(
        "gen", help="write reproducible random pairs in the CSV schema")
    p_gen.add_argument("--n", type=int, required=True,
                       help="dimension of each distribution (>= 2)")
    p_gen.add_argument("--count", type=int, required=True,
                       help="number of pairs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default="-",
                       help="output path (default: standard output)")
    p_gen.set_defaults(handler=_cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    # Every domain error of the library is a ValueError subclass raised
    # before any record is written; it is an input error like the others.
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Overflow or division by zero at the edge of the simplex, also raised
    # before any record is written.
    except ArithmeticError as exc:
        print(f"error: numeric failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
