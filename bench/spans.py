"""Spans around the public entry points of each pwmjel layer.

The benchmark treats the package as a black box: it never edits ``src/``.
For a traced run it replaces each layer's entry point, at the module
attribute its callers look up, with a wrapper that records a span (wall
time, and self time = wall time minus the time of the spans opened inside
it) plus the work counters the layer's return value exposes.  Spans are
kept in memory; ``Tracer.metrics`` folds them into the per-layer metrics.

Everything runs in one thread of one process, so the stack of open spans
is a plain list.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

from pwmjel import cli, data, el, errors, inference, simulate

# (module, attribute its callers look up, span name "<layer>.<entry point>")
ENTRY_POINTS = (
    (simulate, "sample", "distributions.sample"),
    (inference, "jackknife_pseudo_values", "estimators.jackknife_pseudo_values"),
    (el, "solve_lambda", "el.solve_lambda"),
    *(
        (module, fn, f"{layer}.{fn}")
        for module in (simulate, data)
        for layer, fns in (
            ("inference", ("jel_confidence_interval", "ajel_confidence_interval",
                           "jel_test", "ajel_test")),
            ("comparison", ("plugin_el_ci", "plugin_el_test")),
        )
        for fn in fns
    ),
    (simulate, "run_experiment", "simulate.run_experiment"),
    (cli, "load_csv_column", "data.load_csv_column"),
    (cli, "main", "cli.main"),
)

INTERVALS = ("inference.jel_confidence_interval", "inference.ajel_confidence_interval")

# A failed method-operation surfaces as one of these at the method boundary.
FAILURE_CLASSES = (
    "ConvergenceError",
    "DegenerateSampleError",
    "HullError",
    "NumericError",
    "InsufficientSampleError",
    "MissingColumnError",
    "PwmInputError",
)


def _p50(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class Tracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = defaultdict(list)  # span name -> [(seconds, self seconds)]
        self.newton_iterations = []  # one per EL solve
        self.interval_solves = []  # EL solves under each inference interval
        self.endpoint_steps = []  # ConfidenceInterval.endpoint_iterations
        self.rows_loaded = 0
        self.cells = 0
        self.failures = Counter()
        self._open = []  # child-time accumulator of each open span
        self._originals = []

    def __enter__(self):
        for module, attr, name in ENTRY_POINTS:
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        solves = self.spans["el.solve_lambda"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            solves_before = len(solves)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors.PwmError as exc:
                if layer in ("inference", "comparison"):
                    self.failures[type(exc).__name__] += 1
                if name == "el.solve_lambda" and getattr(exc, "best", None) is not None:
                    self.newton_iterations.append(exc.best.iterations)
                raise
            finally:
                seconds = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += seconds
                self.spans[name].append((seconds, seconds - children[0]))
            self._observe(name, args, result, len(solves) - solves_before)
            return result

        return traced

    def _observe(self, name, args, result, solves):
        if name == "el.solve_lambda":
            self.newton_iterations.append(result.iterations)
        elif name in INTERVALS:
            self.interval_solves.append(solves)
            self.endpoint_steps.append(result.endpoint_iterations)
        elif name == "data.load_csv_column":
            self.rows_loaded += result.values.size + result.skipped
        elif name == "simulate.run_experiment":
            config = args[0]
            self.cells += len(config.r_values) * len(config.n_values)

    def _seconds(self, name):
        return [s for s, _ in self.spans.get(name, ())]

    def _self_seconds(self, layer):
        return sum(own for name, spans in self.spans.items()
                   if name.split(".")[0] == layer for _, own in spans)

    def metrics(self) -> dict:
        """Per-layer metrics; 0 where the workload does not reach a layer."""
        intervals = [s for name in INTERVALS for s in self._seconds(name)]
        loads = self._seconds("data.load_csv_column")
        out = {
            "el.solves": len(self.spans.get("el.solve_lambda", ())),
            "el.newton_iters_total": sum(self.newton_iterations),
            "el.newton_iters_mean": _mean(self.newton_iterations),
            "el.newton_iters_max": max(self.newton_iterations, default=0),
            "el.solve_us_p50": _p50(self._seconds("el.solve_lambda"), 1e6),
            "inference.intervals": len(intervals),
            "inference.solves_per_interval": _mean(self.interval_solves),
            "inference.endpoint_steps_total": sum(self.endpoint_steps),
            "inference.endpoint_steps_per_interval": _mean(self.endpoint_steps),
            "inference.interval_ms_p50": _p50(intervals, 1e3),
            "comparison.interval_ms_p50": _p50(self._seconds("comparison.plugin_el_ci"), 1e3),
            "estimators.pseudo_values_us_p50":
                _p50(self._seconds("estimators.jackknife_pseudo_values"), 1e6),
            "distributions.sample_us_p50": _p50(self._seconds("distributions.sample"), 1e6),
            "simulate.cells": self.cells,
            "data.load_ms_p50": _p50(loads, 1e3),
            "data.rows_per_s": self.rows_loaded / sum(loads) if loads else 0.0,
            "cli.self_ms_p50": _p50([own for _, own in self.spans.get("cli.main", ())], 1e3),
        }
        for layer in ("el", "inference", "comparison", "estimators", "distributions", "simulate"):
            out[f"{layer}.self_s"] = self._self_seconds(layer)
        for cls in FAILURE_CLASSES:
            out[f"failures.{cls}"] = self.failures[cls]
        out["failures.other"] = sum(self.failures.values()) - sum(
            self.failures[cls] for cls in FAILURE_CLASSES)
        return out
