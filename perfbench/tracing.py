"""Spans and counters around the divbounds layers, recorded from outside
the package.

``install`` wraps the public functions of ``cli``, ``simplex``,
``divergences``, ``means``, ``type_s``, ``csiszar`` and ``bounds`` (plus the
CLI handlers and ``GeneratorFunction.__post_init__``) at every place the
package holds a reference to them: the defining module, every module that
imported the name, and the measure registries (module-level dicts) that
captured the function object at import time.  A site that is missed would
read as zero time, so the counts are pinned by ``test_tracing.py``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
pickled once, at the end.  The generator kernels ``psi_s`` through
``psi_s_d3`` run once per component, so they are counted, not spanned; each
count is keyed by the span that was open when it happened.

Run as a script to execute one traced CLI invocation:

    python3 perfbench/tracing.py SPANS_FILE verify --input pairs.csv --output out.jsonl

The divbounds package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import os
import pickle
import sys
import time
from array import array

LAYERS = ("cli", "simplex", "divergences", "means", "type_s", "csiszar",
          "bounds")

#: Private CLI functions that carry the per-layer split of a CLI run.
_PRIVATE_SPANS = {"cli": ("_cmd_compute", "_cmd_sweep", "_cmd_verify",
                          "_write_records")}

#: Called once per vector component: counted by the open span, no span.
_COUNTED = {"type_s": ("psi_s", "psi_s_d1", "psi_s_d2", "psi_s_d3")}

_POST_INIT = "csiszar.GeneratorFunction.__post_init__"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: collections.Counter = collections.Counter()
        self.labels: list[tuple[int, str]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=None):
        nid = self.intern(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters, stack, name_id = self.counters, self.stack, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            counters[name, -1 if top < 0 else name_id[top]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        """Copy of everything recorded so far; the span columns stay
        arrays, so the snapshot pickles in a few tens of milliseconds."""
        return {
            "names": list(self.names),
            "counters": [[c, "" if s < 0 else self.names[s], n]
                         for (c, s), n in self.counters.items()],
            "labels": [list(item) for item in self.labels],
            "name_id": self.name_id[:], "parent": self.parent[:],
            "start": self.start[:], "end": self.end[:],
        }


def _hook_records(tracer, idx, args, result):
    records, _columns, cli_args = args
    tracer.counters["cli.records_out", -1] += len(records)
    if cli_args.output != "-":
        tracer.counters["cli.bytes_out", -1] += os.path.getsize(
            cli_args.output)


def _hook_report(tracer, idx, args, result):
    tracer.counters["bounds.entries", -1] += (len(result.entries)
                                              + len(result.skipped))


def _hook_generator(tracer, idx, args, result):
    tracer.labels.append((idx, args[0].label))


_HOOKS = {"cli._write_records": _hook_records,
          "bounds.verify_all": _hook_report,
          _POST_INIT: _hook_generator}


def _targets():
    """(span name, owner, attribute, function, counted-only) for every
    function to wrap, read from the loaded divbounds modules."""
    found = []
    for layer in LAYERS:
        module = sys.modules.get(f"divbounds.{layer}")
        if module is None:
            continue
        private = _PRIVATE_SPANS.get(layer, ())
        for attr, value in vars(module).items():
            if not (inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                continue
            if attr.startswith("_") and attr not in private:
                continue
            found.append((f"{layer}.{attr}", module, attr, value,
                          attr in _COUNTED.get(layer, ())))
    csiszar = sys.modules.get("divbounds.csiszar")
    if csiszar is not None:
        cls = csiszar.GeneratorFunction
        found.append((_POST_INIT, cls, "__post_init__",
                      cls.__dict__["__post_init__"], False))
    return found


def install(tracer: Tracer):
    """Wrap every target at every site that references it; return the
    list of (container, key, original) needed to undo the patch."""
    import divbounds.cli  # noqa: F401  (loads every layer module)

    wrappers = {}
    patches = []
    for name, owner, attr, fn, counted in _targets():
        wrapped = (tracer.counted(name, fn) if counted
                   else tracer.span(name, fn, _HOOKS.get(name)))
        wrappers[id(fn)] = wrapped
        if inspect.isclass(owner):
            patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
    for modname, module in list(sys.modules.items()):
        if modname != "divbounds" and not modname.startswith("divbounds."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrappers and inspect.isfunction(item):
                        patches.append((value, key, item))
                        value[key] = wrappers[id(item)]
    return patches


def uninstall(patches) -> None:
    for container, key, original in reversed(patches):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


def layer_metrics(trace: dict, pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run over ``pairs`` pairs.

    Self time is a span's duration minus the durations of its direct
    children (children nest inside their parent).
    """
    names, name_id, parent = trace["names"], trace["name_id"], trace["parent"]
    dur = [e - s for s, e in zip(trace["start"], trace["end"])]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = collections.Counter()
    incl = collections.Counter()
    self_ns = collections.Counter()
    for i, nid in enumerate(name_id):
        calls[nid] += 1
        incl[nid] += dur[i]
        self_ns[nid] += dur[i] - child[i]
    ids = {name: i for i, name in enumerate(names)}

    def total(table, *wanted):
        return sum(table[ids[w]] for w in wanted if w in ids)

    def layer_total(table, layer):
        return sum(table[i] for i, name in enumerate(names)
                   if name.startswith(layer + "."))

    counts = collections.Counter()
    for counter, _span, n in trace["counters"]:
        counts[counter] += n
    probes = sum(n for counter, span, n in trace["counters"]
                 if counter == "type_s.psi_s_d2" and span == _POST_INIT)

    pair_root = ids.get("bounds.verify_all")
    groups = set()
    for idx, label in trace["labels"]:
        anc = parent[idx]
        while anc >= 0 and name_id[anc] != pair_root:
            anc = parent[anc]
        groups.add((anc, label))
    builds = len(trace["labels"])

    verify_ns = total(incl, "bounds.verify_all")
    e_omega_calls = total(calls, "bounds.e_omega")

    def share(part):
        return part / verify_ns if verify_ns else 0.0

    to_s = 1e-9
    return {
        "cli.load_s": total(self_ns, "cli.load_pairs") * to_s,
        "cli.assemble_s": total(self_ns, "cli._cmd_verify", "cli._cmd_compute",
                                "cli._cmd_sweep") * to_s,
        "cli.write_s": total(self_ns, "cli._write_records") * to_s,
        "cli.records_out": counts["cli.records_out"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "simplex.validate_s": total(incl, "simplex.validate") * to_s,
        "simplex.validate_calls": total(calls, "simplex.validate"),
        "simplex.ratio_bounds_s": total(incl,
                                        "simplex.ratio_bounds") * to_s,
        "divergences.self_s": layer_total(self_ns, "divergences") * to_s,
        "divergences.calls_per_pair": (layer_total(calls, "divergences")
                                       / pairs),
        "means.lp_power_s": total(incl, "means.lp_power") * to_s,
        "means.lp_power_calls": total(calls, "means.lp_power"),
        "type_s.kernel_s": total(self_ns, "type_s.omega_s",
                                 "type_s.phi_s") * to_s,
        "type_s.generator_s": total(incl, "type_s.generator") * to_s,
        "type_s.generator_builds_per_pair": builds / pairs,
        "type_s.generator_useful_ratio": (len(groups) / builds
                                          if builds else 0.0),
        "type_s.generator_share": share(total(incl, "type_s.generator")),
        "type_s.psi_calls_per_pair": sum(
            counts[f"type_s.{f}"] for f in _COUNTED["type_s"]) / pairs,
        "csiszar.engine_s": total(
            self_ns, "csiszar.csiszar_divergence", "csiszar.dragomir_e",
            "csiszar.dragomir_e_star", "csiszar.bound_a",
            "csiszar.bound_b") * to_s,
        "csiszar.probe_calls_per_pair": probes / pairs,
        "bounds.theorem42_s": total(incl, "bounds.theorem42_bounds") * to_s,
        "bounds.theorem42_calls_per_pair": total(
            calls, "bounds.theorem42_bounds") / pairs,
        "bounds.theorem42_share": share(total(incl,
                                              "bounds.theorem42_bounds")),
        "bounds.e_functionals_s": total(
            self_ns, "bounds.e_omega", "bounds.e_star_omega",
            "bounds.e_omega_closed_form",
            "bounds.e_star_omega_closed_form") * to_s,
        "bounds.e_omega_us": (total(incl, "bounds.e_omega") / e_omega_calls
                              * 1e-3 if e_omega_calls else 0.0),
        "bounds.interval_s": total(
            self_ns, "bounds.a_omega", "bounds.b_omega",
            "bounds.b_omega_closed_form", "bounds.delta_omega",
            "bounds.psi3_sup") * to_s,
        "bounds.verify_all_self_s": total(self_ns, "bounds.verify_all") * to_s,
        "bounds.verify_all_ms_per_pair": (
            verify_ns / total(calls, "bounds.verify_all") * 1e-6
            if verify_ns else 0.0),
        "bounds.entries_per_pair": counts["bounds.entries"] / pairs,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from divbounds import cli

    tracer = Tracer()
    with installed(tracer):
        code = cli.main(cli_argv)
    with open(spans_path, "wb") as fh:
        pickle.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
