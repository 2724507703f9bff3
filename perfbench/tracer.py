"""Span tracer that times seqloc from outside.

The tracer replaces public functions in the module namespaces where the
package looks them up (``from ... import`` binds a name per importing
module, so one function can need several patches) with wrappers that
record a span per call: name, start, end, parent span and, if the call
raised, the exception name.  Library code is never edited; ``restore``
puts the originals back.  Spans stay in memory until ``write_spans``.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict


def _report_outcome(report):
    return report.iterations, bool(report.converged)


SOLVE_KINDS = (
    ("solve_known_velocity", "kvd"),
    ("solve_joint_velocity", "uvd"),
    ("solve_prior_velocity", "pvd"),
    ("solve_drift_only", "d"),
)


def _solve_targets(module):
    return [(module, fn, f"solvers.solve.{kind}", _report_outcome)
            for fn, kind in SOLVE_KINDS]


def _design_targets(module):
    return [(module, f"build_design_{v}", "model.build_design", None)
            for v in ("kvd", "uvd", "pvd")]


# (module, attribute, span name, outcome recorder).  Each entry is the
# namespace a caller resolves the name in at call time:
#   seqloc.solvers     -- the Gauss-Newton loop's design, residual, step
#   seqloc.analysis    -- theory; experiments reaches it as analysis.<fn>
#   seqloc.simulate    -- the Monte Carlo trial's synthesis and solve
#   seqloc.experiments -- the sweep's per-cell harness call
#   seqloc.cli         -- the solve subcommand
#   seqloc             -- the package exports the benchmark calls directly
# solve_drift_only delegates to seqloc.solvers.solve_known_velocity, which
# is deliberately left unwrapped so a drift-only solve is one span.
TARGETS = (
    _design_targets("seqloc.solvers")
    + [("seqloc.solvers", "residual", "model.residual", None),
       ("seqloc.solvers", "wls_step", "solvers.wls_step", None)]
    + _design_targets("seqloc.analysis")
    + [("seqloc.analysis", "fim", "analysis.fim", None),
       ("seqloc.analysis", "theoretical_rmse",
        "analysis.theoretical_rmse", None),
       ("seqloc.analysis", "bias_deviated_velocity",
        "analysis.bias_deviated_velocity", None),
       ("seqloc.simulate", "synthesize_batch",
        "simulate.synthesize_batch", None)]
    + _solve_targets("seqloc.simulate")
    + [("seqloc.experiments", "run_monte_carlo",
        "simulate.run_monte_carlo", None),
       ("seqloc.cli", "default_scenario",
        "experiments.default_scenario", None)]
    + _solve_targets("seqloc.cli")
    + [("seqloc", "synthesize_batch", "simulate.synthesize_batch", None)]
    + _solve_targets("seqloc")
)


class Tracer:
    """In-memory span recorder.  Use ``install``/``restore`` around traced
    work and ``span`` for the benchmark's own boundaries."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self._next_id = 0
        self._stack: list[int] = []
        # (span id, parent id or -1, name index, start ns, end ns,
        #  exception name or None, outcome or None)
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    def _name_index(self, name: str) -> int:
        idx = self._names.get(name)
        if idx is None:
            idx = self._names[name] = len(self._names)
        return idx

    def _call(self, name_idx, outcome, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        error = None
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            note = outcome(result) if outcome and error is None else None
            self.spans.append((span_id, parent, name_idx, start, end,
                               error, note))

    def wrap(self, name: str, fn, outcome=None):
        name_idx = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name_idx, outcome, fn, args, kwargs)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        return self._call(self._name_index(name), None, fn, args, kwargs)

    def install(self):
        for module_name, attr, name, outcome in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, outcome))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def names(self) -> list[str]:
        by_index = {i: n for n, i in self._names.items()}
        return [by_index[i] for i in range(len(by_index))]

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.names())

    def write_spans(self, path) -> None:
        names = self.names()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns,error\n")
            for sid, parent, name_idx, start, end, error, _ in self.spans:
                fh.write(f"{sid},{parent},{names[name_idx]},{start},{end},"
                         f"{error or ''}\n")


class SpanSummary:
    """Per-name totals over a list of spans: calls, total and self
    nanoseconds, exceptions, recorded outcomes, and child counts by the
    parent's name."""

    def __init__(self, spans, names):
        child_ns = defaultdict(int)
        parent_name = {}
        for sid, parent, name_idx, start, end, _, _ in spans:
            child_ns[parent] += end - start
            parent_name[sid] = names[name_idx]
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.errors = Counter()
        self.outcomes = defaultdict(list)
        self.calls_under = Counter()
        for sid, parent, name_idx, start, end, error, note in spans:
            name = names[name_idx]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns.get(sid, 0)
            if error is not None:
                self.errors[(name, error)] += 1
            if note is not None:
                self.outcomes[name].append(note)
            self.calls_under[(name, parent_name.get(parent))] += 1

    def mean_us(self, name: str) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls[name]
        return self.self_ns[name] / calls / 1e3 if calls else 0.0
