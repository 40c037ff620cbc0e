"""Span recorder for the traced benchmark run.

A :class:`Tracer` wraps public functions of the asyncadmm modules from the
outside (``src/`` is not modified): each call becomes a span (name, start,
end, parent span) kept in memory, and a few return values feed counters.
A layer's self time is its spans' duration minus the time covered by their
child spans, so the self times of all layers add up to the traced wall time
without double counting.

Wrappers are tolerant: a wrapped name that no longer exists, or a return
value whose fields changed, marks that layer's metrics absent (``None``)
instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

from checkout import use_checkout_sources

use_checkout_sources()

from asyncadmm import analysis, caseio, cli, engine, opf  # noqa: E402
from asyncadmm.problem import PartitionedProblem  # noqa: E402


def _on_solve(counts, result, args):
    counts["localsolver.outer_iters"] += result.outer_iters
    counts["localsolver.inner_iters"] += result.inner_iters
    counts["localsolver.max_outer_iters"] = max(counts["localsolver.max_outer_iters"],
                                                result.outer_iters)
    counts["localsolver.floor_hits"] += int(result.at_numeric_floor)


def _on_solve_error(counts, err):
    counts["localsolver.failures"] += 1


def _on_baseline(counts, result, args):
    counts["opf.baseline_outer_iters"] += result.diagnostics.outer_iters
    counts["opf.baseline_inner_iters"] += result.diagnostics.inner_iters


def _on_baseline_error(counts, err):
    counts["opf.baseline_failures"] += 1


def _on_engine_run(counts, result, args):
    events = result.trace.events
    counts["engine.events"] += len(events)
    counts["engine.messages"] += sum(1 for e in events if e.kind == "send")


def _on_trace_write(counts, result, args):
    counts["caseio.trace_bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, return hook, raise hook, counters the hooks feed)
TARGETS = (
    (engine, "run", "engine.run", _on_engine_run, None, ("engine.events", "engine.messages")),
    (engine, "x_update", "localsolver.solve", _on_solve, _on_solve_error,
     ("localsolver.outer_iters", "localsolver.inner_iters", "localsolver.max_outer_iters",
      "localsolver.floor_hits", "localsolver.failures")),
    (engine, "z_update", "kernel.z_update", None, None, ()),
    (engine, "lambda_update", "kernel.lambda_update", None, None, ()),
    (engine, "payload_digest", "engine.digest", None, None, ()),
    (PartitionedProblem, "total_objective", "problem.objective", None, None, ()),
    (analysis, "analyze_trace", "analysis.report", None, None, ()),
    (analysis, "verify_trace_wellformed", "analysis.wellformed", None, None, ()),
    (analysis, "assign_global_iterations", "analysis.assign", None, None, ()),
    (analysis, "measure_omega", "analysis.omega", None, None, ()),
    (analysis, "verify_slicing_rules", "analysis.slicing", None, None, ()),
    (analysis, "check_staleness_bound", "analysis.staleness", None, None, ()),
    (analysis, "check_lambda_bound", "analysis.lambda_bound", None, None, ()),
    (analysis, "check_kkt", "analysis.kkt", None, None, ()),
    (analysis, "timing_from_trace", "analysis.timing", None, None, ()),
    (caseio, "parse_case", "caseio.parse", None, None, ()),
    (caseio, "parse_partition", "caseio.parse", None, None, ()),
    (caseio, "write_trace", "caseio.trace_write", _on_trace_write, None, ("caseio.trace_bytes",)),
    (caseio, "read_trace", "caseio.trace_read", None, None, ()),
    (caseio, "write_results", "caseio.results_write", None, None, ()),
    (opf, "build_regional_subproblems", "opf.compile", None, None, ()),
    (opf, "warm_start", "opf.warm_start", None, None, ()),
    (opf, "centralized_reference_solve", "opf.baseline", _on_baseline, _on_baseline_error,
     ("opf.baseline_outer_iters", "opf.baseline_inner_iters", "opf.baseline_failures")),
    (cli, "toy_centralized_optimum", "cli.toy_baseline", None, None, ()),
)

# per-layer metric -> (unit, span name, what to read: "self", "calls" or "count")
LAYER_METRICS = {
    "localsolver.solves": ("count", "localsolver.solve", "calls"),
    "localsolver.solve_s": ("s", "localsolver.solve", "self"),
    "localsolver.outer_iters": ("count", "localsolver.solve", "count"),
    "localsolver.inner_iters": ("count", "localsolver.solve", "count"),
    "localsolver.max_outer_iters": ("count", "localsolver.solve", "count"),
    "localsolver.floor_hits": ("count", "localsolver.solve", "count"),
    "localsolver.failures": ("count", "localsolver.solve", "count"),
    "opf.baseline_s": ("s", "opf.baseline", "self"),
    "opf.baseline_outer_iters": ("count", "opf.baseline", "count"),
    "opf.baseline_inner_iters": ("count", "opf.baseline", "count"),
    "opf.baseline_failures": ("count", "opf.baseline", "count"),
    "cli.toy_baseline_s": ("s", "cli.toy_baseline", "self"),
    "engine.self_s": ("s", "engine.run", "self"),
    "engine.digest_s": ("s", "engine.digest", "self"),
    "engine.events": ("count", "engine.run", "count"),
    "engine.messages": ("count", "engine.run", "count"),
    "problem.objective_evals": ("count", "problem.objective", "calls"),
    "problem.objective_s": ("s", "problem.objective", "self"),
    "kernel.z_updates": ("count", "kernel.z_update", "calls"),
    "kernel.z_update_s": ("s", "kernel.z_update", "self"),
    "kernel.lambda_update_s": ("s", "kernel.lambda_update", "self"),
    "analysis.report_s": ("s", "analysis.report", "self"),
    "analysis.wellformed_s": ("s", "analysis.wellformed", "self"),
    "analysis.assign_s": ("s", "analysis.assign", "self"),
    "analysis.omega_s": ("s", "analysis.omega", "self"),
    "analysis.slicing_s": ("s", "analysis.slicing", "self"),
    "analysis.staleness_s": ("s", "analysis.staleness", "self"),
    "analysis.lambda_bound_s": ("s", "analysis.lambda_bound", "self"),
    "analysis.kkt_s": ("s", "analysis.kkt", "self"),
    "analysis.timing_s": ("s", "analysis.timing", "self"),
    "caseio.trace_write_s": ("s", "caseio.trace_write", "self"),
    "caseio.trace_bytes": ("count", "caseio.trace_write", "count"),
    "caseio.results_write_s": ("s", "caseio.results_write", "self"),
    "caseio.trace_read_s": ("s", "caseio.trace_read", "self"),
    "caseio.parse_s": ("s", "caseio.parse", "self"),
    "opf.compile_s": ("s", "opf.compile", "self"),
    "opf.compile_calls": ("count", "opf.compile", "calls"),
    "opf.warm_start_s": ("s", "opf.warm_start", "self"),
    "cli.self_s": ("s", "cli.run", "self"),
}


class Tracer:
    """In-memory spans and counters for one traced pass.

    :meth:`install` wraps every name in :data:`TARGETS`; :meth:`uninstall`
    restores the originals. The benchmark opens the root spans ``cli.run``
    and ``cli.analyze`` itself with :meth:`span`.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()  # span names whose target or hook is gone
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _hook(self, name: str, hook, *args) -> None:
        try:
            hook(self.counts, *args)
        except (AttributeError, TypeError, KeyError, OSError):
            self.absent.add(name)

    def _wrap(self, owner, attr, name, on_return, on_raise, counters) -> None:
        real = getattr(owner, attr, None)
        if not callable(real):
            self.absent.add(name)
            return
        for key in counters:
            self.counts.setdefault(key, 0)
        tracer = self

        @functools.wraps(real)
        def traced(*args, **kwargs):
            index = tracer._begin(name)
            try:
                result = real(*args, **kwargs)
            except Exception as err:
                tracer._end(index)
                if on_raise is not None:
                    tracer._hook(name, on_raise, err)
                raise
            tracer._end(index)
            if on_return is not None:
                tracer._hook(name, on_return, result, args)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, real))

    def install(self) -> None:
        for target in TARGETS:
            self._wrap(*target)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, real = self._undo.pop()
            setattr(owner, attr, real)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time and number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float | None]:
        """Every :data:`LAYER_METRICS` entry; ``None`` marks an absent layer."""
        self_s, calls = self.self_times()
        out: dict[str, float | None] = {}
        for metric, (_, span, read) in LAYER_METRICS.items():
            if span in self.absent:
                out[metric] = None
            elif read == "self":
                out[metric] = self_s.get(span, 0.0)
            elif read == "calls":
                out[metric] = calls.get(span, 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out
