"""In-process span tracer installed from outside the program.

Each probe names a public function by the module that defines it.  The
tracer replaces that function object in every ``reflectmimo`` namespace that
binds it by name (``experiments`` imports ``eigen_spectrum``, ``mimo``
imports ``synthesize_impulse``, ``quadrature`` imports scipy's ``j0`` …), so
calls are caught whichever module makes them.  Spans are kept in memory as
``[name, id, parent, start, end]`` and written out when the benchmark ends.
A probe whose function no longer exists is reported as an absent layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np


def _count_size(counter: str, index: int):
    def hook(tracer: "Tracer", args: tuple, result) -> None:
        if len(args) > index:
            tracer.counters[counter] += int(np.size(args[index]))
    return hook


def _count_distinct_evaluations(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["mimo.distinct_evals"] += int(result.distinct_evaluations)


def _record_eigen_input(tracer: "Tracer", args: tuple, result) -> None:
    if args:
        tracer.eigen_inputs.add(id(args[0]))


def _count_bytes_written(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["output.bytes"] += sum(Path(p).stat().st_size for p in result)


# (defining module, function, span name, hook run after each traced call)
PROBES = (
    ("experiments", "run_named", "experiments.run_named", None),
    ("config", "parse_config", "config.parse_config", None),
    ("output", "emit", "output.emit", _count_bytes_written),
    ("mimo", "build_channel_matrix", "mimo.build_channel_matrix",
     _count_distinct_evaluations),
    ("mimo", "eigen_spectrum", "mimo.eigen_spectrum", _record_eigen_input),
    ("eigensolve", "jacobi_eigh", "eigensolve.jacobi_eigh", None),
    ("capacity", "waterfill", "capacity.waterfill", None),
    ("capacity", "dof_bound", "capacity.dof_bound", None),
    ("quadrature", "synthesize_impulse", "quadrature.synthesize_impulse", None),
    ("quadrature", "estimate_nodes", "quadrature.estimate_nodes", None),
    ("quadrature", "j0", "quadrature.j0", _count_size("quadrature.j0_evals", 0)),
    ("spectrum", "propagating_factor", "spectrum.propagating_factor",
     _count_size("quadrature.disk_nodes", 2)),
    ("spectrum", "evanescent_factor", "spectrum.evanescent_factor",
     _count_size("quadrature.tail_nodes", 2)),
)

# Per-layer metric -> (unit, kind, span it is read from).  ``calls``,
# ``total`` and ``self`` are span statistics; ``count`` reads the counter of
# the metric's own name; ``reuse`` is distinct channels per eigen call.
LAYER_METRICS = {
    "quadrature.synth_calls": ("count", "calls", "quadrature.synthesize_impulse"),
    "quadrature.synth_s": ("s", "total", "quadrature.synthesize_impulse"),
    "quadrature.estimate_calls": ("count", "calls", "quadrature.estimate_nodes"),
    "quadrature.disk_nodes": ("count", "count", "spectrum.propagating_factor"),
    "quadrature.tail_nodes": ("count", "count", "spectrum.evanescent_factor"),
    "quadrature.j0_evals": ("count", "count", "quadrature.j0"),
    "spectrum.propagating_calls": ("count", "calls", "spectrum.propagating_factor"),
    "spectrum.propagating_s": ("s", "total", "spectrum.propagating_factor"),
    "spectrum.evanescent_s": ("s", "total", "spectrum.evanescent_factor"),
    "mimo.build_calls": ("count", "calls", "mimo.build_channel_matrix"),
    "mimo.build_s": ("s", "total", "mimo.build_channel_matrix"),
    "mimo.build_self_s": ("s", "self", "mimo.build_channel_matrix"),
    "mimo.distinct_evals": ("count", "count", "mimo.build_channel_matrix"),
    "mimo.eigen_calls": ("count", "calls", "mimo.eigen_spectrum"),
    "mimo.eigen_s": ("s", "total", "mimo.eigen_spectrum"),
    "mimo.eigen_reuse_ratio": ("ratio", "reuse", "mimo.eigen_spectrum"),
    "eigensolve.calls": ("count", "calls", "eigensolve.jacobi_eigh"),
    "eigensolve.s": ("s", "total", "eigensolve.jacobi_eigh"),
    "capacity.waterfill_calls": ("count", "calls", "capacity.waterfill"),
    "capacity.waterfill_s": ("s", "total", "capacity.waterfill"),
    "capacity.dof_bound_s": ("s", "total", "capacity.dof_bound"),
    "experiments.self_s": ("s", "self", "experiments.run_named"),
    "output.emit_s": ("s", "total", "output.emit"),
    "output.bytes": ("bytes", "count", "output.emit"),
    "config.parse_s": ("s", "total", "config.parse_config"),
}


class Tracer:
    """Records spans and counters while ``enabled``; a pass-through
    otherwise, so oracles and input generation are never traced."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.eigen_inputs: set[int] = set()
        self.enabled = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, sid, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def install(self, package: str = "reflectmimo") -> None:
        namespaces = [
            module for key, module in sorted(sys.modules.items())
            if module is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, attr, name, hook in PROBES:
            home = sys.modules.get(f"{package}.{module_name}")
            target = getattr(home, attr, None) if home is not None else None
            if target is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(target, name, hook)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is target:
                        setattr(namespace, key, wrapper)
                        self._patched.append((namespace, key, target))

    def uninstall(self) -> None:
        for namespace, key, target in reversed(self._patched):
            setattr(namespace, key, target)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter]:
        """Start of a pass: the span index and a counter snapshot."""
        self.eigen_inputs.clear()
        return len(self.spans), Counter(self.counters)

    def layer_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``mark``.  A span's
        self time is its duration minus that of its direct children."""
        first, before = mark
        spans = self.spans[first:]
        child_time: Counter = Counter()
        for _, _, parent, start, end in spans:
            if parent >= first:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for name, sid, _, start, end in spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[sid]
        metrics: dict[str, float] = {}
        for metric, (_, kind, span) in LAYER_METRICS.items():
            if kind == "calls":
                metrics[metric] = calls[span]
            elif kind == "total":
                metrics[metric] = total[span]
            elif kind == "self":
                metrics[metric] = own[span]
            elif kind == "count":
                metrics[metric] = self.counters[metric] - before[metric]
            else:
                metrics[metric] = len(self.eigen_inputs) / calls[span] if calls[span] else 0.0
        return metrics

    def absent_metrics(self) -> list[str]:
        """Per-layer metrics whose function was not found to wrap."""
        return [m for m, (_, _, span) in LAYER_METRICS.items() if span in self.absent]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "id", "parent", "start_s", "end_s"],
            "spans": self.spans,
        }), encoding="utf-8")
