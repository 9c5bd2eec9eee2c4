"""Spans around the public functions of each module, taken from outside.

``Tracer`` finds every place the package binds one of the functions in
``FUNCTIONS`` (``integrate_schedule`` is bound in ``metzler_core`` and
also in ``digraph``, ``certify``, ``scenario_cli`` and the package root)
and swaps a wrapper in at each, so calls made inside the package are
seen too.  Spans stay in memory until ``write``.  A function that is not
found is listed as absent, and its metrics read 0.

A span's self time is its duration minus the time covered by the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

PACKAGE = "consensus_lab"

FUNCTIONS = {
    "scenario_cli": ("load_config", "generate_topology", "run_scenario"),
    "metzler_core": ("build_schedule", "integrate_schedule", "evaluate_schedule"),
    "digraph": ("window_connectivity_report", "delta_digraph", "root_nodes"),
    "dynamics": ("simulate_ode", "simulate_dde", "delayed_functional_series",
                 "interpolate_state", "spread_series"),
    "lyapunov": ("audit_monotonicity", "monotonicity_from_series"),
    "certify": ("contraction_certificate",),
    "spectral": ("spectral_graph_equivalence", "eigenvalues"),
}


def _output_dir(args, kwargs):
    return kwargs["output_dir"] if "output_dir" in kwargs else args[1]


# Counts taken from a traced call's arguments and result.
COUNTS = {
    "dynamics.simulate_ode": (
        "dynamics.simulate_ode.nodes", "count",
        lambda args, kwargs, result: len(result.times)),
    "dynamics.simulate_dde": (
        "dynamics.simulate_dde.nodes", "count",
        lambda args, kwargs, result: len(result.times)),
    "digraph.window_connectivity_report": (
        "digraph.window_connectivity_report.windows", "count",
        lambda args, kwargs, result: len(result.window_starts)),
    "certify.contraction_certificate": (
        "certify.contraction_certificate.stages", "count",
        lambda args, kwargs, result: len(result.stages)),
    "scenario_cli.run_scenario": (
        "scenario_cli.trajectory_csv_mb", "MB",
        lambda args, kwargs, result: os.path.getsize(os.path.join(
            _output_dir(args, kwargs), "trajectory.csv")) / 1e6),
}


def metric_names() -> list:
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for module, functions in FUNCTIONS.items():
        for fn in functions:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    out.extend((name, unit) for name, unit, _ in COUNTS.values())
    return out


class Tracer:
    def __init__(self):
        self.ids = []
        self.spans = []
        self.counts = {name: 0.0 for name, _, _ in COUNTS.values()}
        self.absent = []
        self._stack = []
        self._patches = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module, functions in FUNCTIONS.items():
            home = sys.modules.get(f"{PACKAGE}.{module}")
            for fn in functions:
                fid = f"{module}.{fn}"
                original = getattr(home, fn, None)
                if not callable(original):
                    self.absent.append(fid)
                    continue
                wrapper = self._wrap(len(self.ids), original, COUNTS.get(fid))
                self.ids.append(fid)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))

    def _wrap(self, fid, fn, count):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        absent = self.absent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if count is not None:
                name, _, measure = count
                try:
                    counts[name] += measure(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    if name not in absent:
                        absent.append(name)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and self seconds per function, over all spans."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.ids)
        own = [0.0] * len(self.ids)
        for i, (fid, start, end, parent) in enumerate(self.spans):
            calls[fid] += 1
            own[fid] += end - start - child[i]
        return {
            "functions": {fid: {"calls": calls[i], "self_s": own[i]}
                          for i, fid in enumerate(self.ids)},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def write(self, path: str):
        """Spans as [function, start, end, parent span] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.ids, "spans": self.spans}, fh,
                      separators=(",", ":"))
