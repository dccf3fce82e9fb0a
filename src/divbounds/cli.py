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
import heapq
import io
import json
import math
import sys
from itertools import chain, islice
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

#: How --help spells the default s-list.
_DEFAULT_S_HELP = f"(default: {','.join(f'{s:g}' for s in DEFAULT_S_LIST)})"

#: Most points a sweep grid may have; checked before the grid is built.
MAX_GRID_POINTS = 10**6

#: One encoder for every JSONL line: ``json.dumps`` builds a new encoder on
#: each call that passes ``separators``.
_JSON = json.JSONEncoder(separators=(",", ":"))

#: JSONL records joined into one string per write.
_CHUNK_RECORDS = 1024

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
    """The parameters of a comma-separated list, in order, as SParameter
    reads them; compute and verify each use a repeated s once."""
    try:
        values = tuple(SParameter(tok).s
                       for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliInputError(f"bad s-list {text!r}: {exc}") from None
    if not values:
        raise CliInputError("s-list is empty")
    return values


def _json_rows(text: str):
    """(pair_id, (raw_p, raw_q)) per JSON record, in input order."""
    try:
        doc = json.loads(text)
    # a JSONDecodeError, an integer literal past the int-to-str digit limit
    # (both ValueError) or nesting deeper than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise CliInputError(f"JSON parse failure: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise CliInputError('JSON input must be {"pairs": [...]}')
    for i, rec in enumerate(doc["pairs"]):
        if not isinstance(rec, dict):
            raise CliInputError(f"pairs[{i}] is not an object")
        # bool is an int subclass, so here and for the components below the
        # types are compared exactly
        pid = rec.get("id", f"pair-{i}")
        if type(pid) not in (str, int):
            raise CliInputError(
                f"pairs[{i}]: id must be a string or an integer")
        pid = str(pid)
        try:
            pid.encode()
        except UnicodeEncodeError:  # JSON spells a lone surrogate "\ud800"
            raise CliInputError(
                f"pairs[{i}]: id is not valid Unicode") from None
        try:
            raw = rec["p"], rec["q"]
        except KeyError as exc:
            raise CliInputError(f"pair {pid}: missing field {exc}") from None
        if not all(isinstance(part, list)
                   and all(type(v) in (int, float) for v in part)
                   for part in raw):
            raise CliInputError(f"pair {pid}: components must be numbers")
        yield pid, raw


def _csv_rows(text: str):
    """(pair_id, (raw_p, raw_q)) per CSV pair, in first-seen id order, once
    every row is read.  Blank rows are skipped, the first other row is the
    header, and ``line N`` is the file line on which a row ends."""
    # 3.10's csv reader stops at a NUL and later ones keep it: find it first
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise CliInputError(f"line {line}: line contains NUL")
    reader = csv.reader(io.StringIO(text))

    def nonblank_rows():
        try:
            for row in reader:
                if any(cell.strip() for cell in row):
                    yield row
        # raised for a cell past csv.field_size_limit(), among others
        except csv.Error as exc:
            raise CliInputError(f"line {reader.line_num}: {exc}") from None

    rows = nonblank_rows()
    header = [cell.strip() for cell in next(rows, ())]
    if not header:
        raise CliInputError("CSV input is empty")
    if header[:2] != ["pair_id", "role"]:
        raise CliInputError(
            "CSV header must start with pair_id,role followed by components")
    # dicts keep insertion order: pairs come out in first-seen id order
    staged: dict[str, dict[str, tuple[float, ...]]] = {}
    for row in rows:
        if len(row) < 3:
            raise CliInputError(
                f"line {reader.line_num}: expected at least 3 cells")
        pid, role = row[0].strip(), row[1].strip()
        if role not in ("P", "Q"):
            raise CliInputError(
                f"pair {pid}: role must be P or Q, got {role!r}")
        # spreadsheet exports pad rows with trailing empty cells; an empty
        # cell before a filled one would shift every later component
        cells = [cell.strip() for cell in row[2:]]
        while cells and not cells[-1]:
            cells.pop()
        if "" in cells:
            column = 2 + cells.index("")
            name = header[column] if column < len(header) else column + 1
            raise CliInputError(
                f"pair {pid}: empty component in column {name}")
        try:
            values = tuple(float(cell) for cell in cells)
        except ValueError as exc:
            raise CliInputError(f"pair {pid}: bad component: {exc}") from None
        slot = staged.setdefault(pid, {})
        if role in slot:
            raise CliInputError(f"pair {pid}: duplicate role {role}")
        slot[role] = values
    for pid, slot in staged.items():
        for role in ("P", "Q"):
            if role not in slot:
                raise CliInputError(f"pair {pid}: missing role {role}")
        yield pid, (slot["P"], slot["Q"])


def load_pairs(path: str, renormalize: bool):
    """Read pairs from a CSV or JSON file (sniffed from the content)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a BOM
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    rows = _json_rows if text.lstrip().startswith("{") else _csv_rows
    pairs = []
    for pid, raw in rows(text):
        try:
            pairs.append((pid, DistributionPair(
                *(validate(part, renormalize=renormalize) for part in raw))))
        except ValueError as exc:
            raise CliInputError(f"pair {pid}: {exc}") from None
    if not pairs:
        raise CliInputError(f"{path}: no pairs found")
    return pairs


def resolve_measures(tokens: Sequence[str], s_list: tuple[float, ...]):
    """Expand measure tokens into (measure_id, sort_param, callable).

    Parametric measures take their parameter inline (``omega:-0.5``,
    ``vajda:3``); a bare parametric name expands across the s-list.  Each
    measure id is resolved once, in first-seen order, and a parameter of
    -0.0 is read as 0.0.
    """
    resolved: dict[str, tuple[float | None, Callable]] = {}
    for raw in tokens:
        token = raw.strip()
        if not token:
            continue
        base, colon, arg = token.partition(":")
        if not colon and base in _SIMPLE_MEASURES:
            resolved.setdefault(base, (None, _SIMPLE_MEASURES[base]))
            continue
        if base not in _PARAMETRIC_MEASURES:
            raise CliInputError(("unknown parametric measure" if colon else
                                 "unknown measure") + f" {base!r}")
        fn = _PARAMETRIC_MEASURES[base]
        params = (((token, arg),) if colon else
                  ((f"{base}:{s:g}", s) for s in s_list))
        for label, arg in params:
            try:
                param = SParameter(arg).s
                if base == "vajda":
                    div._check_exponent(param)
            except ValueError as exc:
                raise CliInputError(
                    f"bad parameter in measure {label!r}: {exc}") from None
            # the short spelling only where it reads back as the same float
            short = f"{param:g}"
            label = short if float(short) == param else repr(param)
            resolved.setdefault(f"{base}:{label}", (
                param, lambda pair, f=fn, v=param: f(pair, v)))
    if not resolved:
        raise CliInputError("no measures requested")
    return [(measure_id, param, fn)
            for measure_id, (param, fn) in resolved.items()]


def _write_records(records, columns, args) -> None:
    """Write the records to a temporary file as they are iterated, then
    copy it to standard output for "-", else to the file at ``args.output``,
    which is not opened if iterating raises.  A temporary file or an output
    that cannot be opened or written (a full device, a reader that closed
    the pipe) is an input error."""
    # imported here: importing the CLI and building its parser need neither
    import shutil
    import tempfile

    name = "a temporary file"
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8",
                                    newline="") as spool:
            if args.format == "csv":
                writer = csv.writer(spool, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(records)
            else:
                spool.writelines(_jsonl_chunks(records, columns))
            spool.seek(0)
            if args.output != "-":
                name = args.output
                out = open(name, "w", encoding="utf-8", newline="")
            else:
                name = "standard output"
                try:
                    fd = sys.stdout.fileno()
                except ValueError:  # no descriptor, as in io.StringIO
                    out = contextlib.nullcontext(sys.stdout)
                else:
                    # written after whatever sys.stdout holds, through one
                    # buffered writer whether or not python -u is in force
                    sys.stdout.flush()
                    out = open(fd, "w", encoding=sys.stdout.encoding,
                               errors=sys.stdout.errors, closefd=False)
            with out as target:
                shutil.copyfileobj(spool, target)
                target.flush()
    except OSError as exc:
        raise CliInputError(f"cannot write {name}: {exc}") from None


class _Spellings(dict):
    """JSON spelling of each value looked up: a finite float as
    ``float.__repr__`` spells it, as the encoder does, anything else as
    ``_JSON`` spells it.

    A spelling is kept only for a value that no differently spelled value
    equals: a string, None, or a finite float that is not a whole number.
    1, 1.0 and True are equal, and so are 0.0 and -0.0, yet each has its
    own spelling, so whole floats, ints and bools are spelled on every
    lookup.
    """

    __slots__ = ()

    # the defaults bind the spellers as locals: a report's values are
    # about a third first sightings, so this runs for every third value
    def __missing__(self, value, isfinite=math.isfinite,
                    float_repr=float.__repr__, encode=_JSON.encode):
        if type(value) is float and isfinite(value):
            spelled = float_repr(value)
            if not value.is_integer():
                self[value] = spelled
            return spelled
        spelled = encode(value)
        if type(value) is str or value is None:
            self[value] = spelled
        return spelled


def _jsonl_chunks(records, columns):
    """The records as JSON lines, each spelled as ``_JSON`` spells
    ``dict(zip(columns, row))`` (columns distinct, one value per column in
    every row), joined in chunks of _CHUNK_RECORDS lines.

    Every line fills one template built from the column names, and a
    chunk is one format of the template repeated once per line.  Each
    chunk has its own ``_Spellings``, so a value repeated within a chunk is
    spelled once and no more than one chunk's spellings are held.
    """
    template = "{%s}\n" % ",".join(
        _JSON.encode(column).replace("%", "%%") + ":%s" for column in columns)
    records = iter(records)
    while chunk := list(islice(records, _CHUNK_RECORDS)):
        yield (template * len(chunk)) % tuple(
            map(_Spellings().__getitem__, chain.from_iterable(chunk)))


class _Records:
    """The records ``rows(pair_id, pairs)`` of each pair_id group, in sorted
    id order with input order kept within a group, since JSON input may
    repeat an id; every id in ``always`` gets a group even when no pair
    carries it.  A group is evaluated only when iteration reaches it, so
    the records held are one group's and one output chunk's; ``len`` is
    the number yielded so far.  A domain error of the library and an
    overflow or a division by zero at the edge of the simplex are input
    errors naming the group."""

    def __init__(self, pairs, rows, *always: str):
        self.groups = {pid: [] for pid in always}
        for pid, pair in pairs:
            self.groups.setdefault(pid, []).append(pair)
        self.rows, self.count = rows, 0

    def __len__(self):
        return self.count

    def __iter__(self):
        for pid, group in sorted(self.groups.items()):
            try:
                for self.count, row in enumerate(self.rows(pid, group),
                                                 self.count + 1):
                    yield row
            except ArithmeticError as exc:
                raise CliInputError(f"pair {pid}: numeric failure "
                                    f"({type(exc).__name__}): {exc}") from None
            except ValueError as exc:
                raise CliInputError(f"pair {pid}: {exc}") from None


def _cmd_compute(args) -> int:
    # each group's rows by (parameter, measure id), then input order
    measures = sorted(resolve_measures(args.measures.split(","), args.s_list),
                      key=lambda measure: (_s_key(measure[1]), measure[0]))
    pairs = load_pairs(args.input, args.renormalize)
    _write_records(_Records(pairs, lambda pid, group: [
        (pid, measure_id, fn(pair))
        for measure_id, _, fn in measures for pair in group]),
        ("pair_id", "measure", "value"), args)
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
        if values and not s > values[-1]:
            raise CliInputError(f"s_step={s_step!r} is below the float "
                                f"spacing of s near {s!r}: the grid repeats "
                                "a point")
        values.append(s)
        k += 1
    return values


def _cmd_sweep(args) -> int:
    grid = [SParameter(s)
            for s in _sweep_grid(args.s_min, args.s_max, args.s_step)]
    pairs = load_pairs(args.input, args.renormalize)

    def rows(pid, group):
        # each group's rows by s, then input order
        bounded = [(pair, ratio_bounds(pair), PairMoments.of(pair))
                   for pair in group]
        for sp in grid:
            for pair, rb, moments in bounded:
                *family, gaps = bounds_mod._family_at(pair, rb, moments, sp)
                minima = ((None, None) if gaps is None
                          else (gap.minimum for gap in gaps))
                yield (pid, sp.s, sp.regime.value, *family, *minima)

    _write_records(_Records(pairs, rows),
                   ("pair_id", "s", "regime", "omega", "e", "e_star", "a",
                    "b", "gap_half_e_bound", "gap_e_star_bound"), args)
    return 0


def _cmd_verify(args) -> int:
    bounds_mod._check_tolerance(args.tolerance)
    pairs = load_pairs(args.input, args.renormalize)
    # Self-test of the failure path: corrupt the first checked entry of
    # the first pair read.
    corrupt = pairs[0][1] if args.inject_violation else None
    failed = False

    def rows(pid, group):
        nonlocal failed
        runs = [[(pid, None, "note", None, None, None, "info", note)
                 for note in REPORT_NOTES]] if pid == "*" else []
        for pair in group:
            run = verify_all(pair, args.s_list, pair_id=pid,
                             violation_tolerance=args.tolerance).records
            if pair is corrupt:
                # lhs past rhs by more than the tolerance and than the
                # rounding of rhs, however large either is
                first = next(rec for rec in run if rec.verdict != "skip")
                lhs = first.rhs + 1.0 + 2.0 * (args.tolerance + abs(first.rhs))
                run = list(run)
                (entry,) = bounds_mod._entries(
                    [(first.inequality_id, lhs, first.rhs)], (pid, first.s),
                    args.tolerance)
                run[run.index(first)] = entry
            runs.append(run)
            failed = failed or any(rec.verdict == "fail" for rec in run)
        # Rows within a pair_id go by (s, inequality_id), pair-level first,
        # then input order; each report is already so ordered, so they
        # merge.  The notes (pair-level, id "note") follow a "*" pair's
        # abs_chi rows.
        return heapq.merge(*runs, key=lambda row: (_s_key(row[1]), row[2]))

    _write_records(_Records(pairs, rows, "*"), bounds_mod.BoundEntry._fields,
                   args)
    return 2 if failed else 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise CliInputError(f"count must be >= 1, got {args.count}")
    width = max(4, len(str(args.count)))

    def rows():
        for i in range(args.count):
            pair = random_pair(args.n, args.seed + i)
            pid = f"pair-{i:0{width}d}"
            yield (pid, "P", *map(repr, pair.p.values))
            yield (pid, "Q", *map(repr, pair.q.values))

    _write_records(rows(), ("pair_id", "role",
                            *(f"v{i + 1}" for i in range(args.n))), args)
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
    p_compute.add_argument("--s-list", type=_parse_s_list,
                           default=DEFAULT_S_LIST,
                           help="comma-separated parameters used to expand "
                                "bare parametric measure names "
                                + _DEFAULT_S_HELP)
    p_compute.set_defaults(handler=_cmd_compute)

    p_sweep = subs.add_parser(
        "sweep", help="tabulate the unified family and bounds over a grid")
    _add_io_flags(p_sweep)
    p_sweep.add_argument("--s-min", type=float, required=True,
                         help="first grid point (spell a negative value "
                              "as --s-min=-1)")
    p_sweep.add_argument("--s-max", type=float, required=True,
                         help="end of the grid: the last point is included "
                              "when it lies within 1e-9 * step of s_max")
    p_sweep.add_argument("--s-step", type=float, required=True,
                         help="grid step, > 0; the grid may hold at most "
                              f"{MAX_GRID_POINTS} points")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = subs.add_parser(
        "verify", help="run the consolidated inequality report")
    _add_io_flags(p_verify)
    p_verify.add_argument("--s-list", type=_parse_s_list,
                          default=DEFAULT_S_LIST,
                          help="comma-separated family parameters "
                               + _DEFAULT_S_HELP)
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
    p_gen.set_defaults(handler=_cmd_gen, format="csv")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    # Every domain error of the library is a ValueError subclass; _Records
    # turns one raised while a group is evaluated, and an ArithmeticError,
    # into a CliInputError naming the pair.  All are raised before the
    # output is opened.
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
