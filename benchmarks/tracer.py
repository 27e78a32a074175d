"""Span tracer that wraps package functions from outside the package.

``Tracer.install`` replaces each target function at every module attribute
of the ``altproj`` package that is bound to it, so direct calls, names
imported with ``from .x import f`` and deferred imports inside function
bodies all go through the wrapper.  ``Tracer.restore`` puts every original
back.  Each call records one span (name, parent span, start, end) in flat
arrays; self time is a span's duration minus the durations of its direct
children, computed after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, home module, attribute, bindings): "all" wraps the function at
# every binding in the package, "home" only at the home module's own name.
TARGETS = (
    ("linalg.as_point", "altproj.linalg", "as_point", "all"),
    ("linalg.nnls", "altproj.linalg", "nnls", "all"),
    ("linalg.distance_to_finite_cone", "altproj.linalg", "distance_to_finite_cone", "all"),
    ("sets.contains", "altproj.sets", "contains", "all"),
    ("sets.project", "altproj.sets", "project", "all"),
    ("sets.project_halfspace", "altproj.sets", "project_halfspace", "all"),
    ("sets.project_epigraph", "altproj.sets", "project_epigraph", "all"),
    ("sets.proximal_normal_generators", "altproj.sets", "proximal_normal_generators", "all"),
    ("qp.project_polyhedron", "altproj.qp", "project_polyhedron", "all"),
    ("qp.project_along_ray", "altproj.qp", "project_along_ray", "all"),
    # The LDP fallback's share of the NNLS calls: qp's own binding, wrapped
    # around the linalg.nnls wrapper installed above.
    ("qp.nnls", "altproj.qp", "nnls", "home"),
    ("engine.check_certificate", "altproj.engine", "check_certificate", "all"),
    ("engine.run", "altproj.engine", "run", "all"),
    ("certify.alpha_polyhedron_halfspace", "altproj.certify", "alpha_polyhedron_halfspace", "all"),
    ("certify.one_step_shift", "altproj.certify", "one_step_shift", "all"),
    ("certify.bound_report", "altproj.certify", "bound_report", "all"),
    ("lp.feasible_vertices", "altproj.lp", "feasible_vertices", "all"),
    ("lp.vertex_oracle", "altproj.lp", "vertex_oracle", "all"),
    ("lp.solve_lp", "altproj.lp", "solve_lp", "all"),
    ("cli.main", "altproj.cli", "main", "all"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "altproj"]


def _sweeps(counts, result):
    counts["qp.project_polyhedron.sweeps"] += result.iterations


def _cycles(counts, result):
    counts["engine.cycles"] += len(result.gaps) // 2


# Counters read off a span's return value.
RESULT_COUNTERS = {"qp.project_polyhedron": _sweeps, "engine.run": _cycles}


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self):
        self.targets = TARGETS
        self.names = [t[0] for t in TARGETS]
        self.counts = {"qp.project_polyhedron.sweeps": 0, "engine.cycles": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched = []  # (module, attribute, original), in install order

    def _wrap(self, name_id: int, fn):
        name_of, parent_of = self.span_name, self.span_parent
        start_of, end_of = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(self.names[name_id])
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            end_of.append(0.0)
            stack.append(idx)
            start_of.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for name_id, (_, home, attr, bindings) in enumerate(self.targets):
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name_id, original)
            scope = modules if bindings == "all" else [sys.modules[home]]
            for module in scope:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_totals(self) -> dict:
        """``{name: (calls, total_s, self_s)}`` over every recorded span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
