"""Workloads, operations, output checks and metrics of the asyncadmm benchmark.

An operation is one ``asyncadmm run`` or one ``asyncadmm analyze`` command,
driven in-process through :func:`asyncadmm.cli.main`. A job is one run of a
config followed by one analyze of the trace that run wrote; a workload is a
list of jobs, and a pass runs every job of its workload once.

Untraced passes time only what the end-to-end metrics need: each command
as a whole and the entry to and return from ``engine.run``. Traced passes
add the span recorder of :mod:`spans`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from checkout import PINNED_THREADS, ROOT, use_checkout_sources

use_checkout_sources()

import numpy as np  # noqa: E402

from asyncadmm import cli, engine  # noqa: E402

import grids  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# generator seeds of the grid16-sync grids; the flat-start baseline raises
# SolveError on grid 9, so every pass of that workload counts one failure
GRID_SEEDS = (8, 9, 10)
RING5_TRACE_PREFIX = "0e5ca57bd9260967"
GAP_LIMIT_PCT = 1.0
ANALYZE_CONSTANTS = ("--gamma", "2", "--m1", "2", "--m2", "1", "--c", "1")
# report sections that the in-run analysis and a later analyze must agree on
SHARED_REPORT_KEYS = ("status", "end_time_ms", "wellformed", "global_iterations",
                      "omega", "staleness_bound", "kkt", "objective", "timing")
SETUP_PROBES = 10  # setup-only runs per job and probe
SHORT_ANALYZE_S = 0.5  # analyses shorter than this are also sampled by probes

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "cycles": "count",
    "virtual_ms": "vms",
    "gap_pct": "%",
    "ok_frac": "frac",
}
ARTIFACT_LAYER_UNITS = {
    "kkt_max": "abs",
    "analysis.slots": "count",
    "analysis.omega": "count",
    "engine.wait_fraction_vms": "frac",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {**{m: u for m, (u, _, _) in spans.LAYER_METRICS.items()},
                   **ARTIFACT_LAYER_UNITS}


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    """One config to run and then analyze."""

    name: str
    config: Path
    tol: str  # the config's tol; analyze gets it so both KKT verdicts match
    outdir: Path
    sets: tuple[str, ...] = ()
    trace_prefix: str | None = None

    def run_argv(self) -> list[str]:
        argv = ["run", str(self.config), "--set", f"outdir={self.outdir}"]
        for item in self.sets:
            argv += ["--set", item]
        return argv

    def analyze_argv(self) -> list[str]:
        return ["analyze", str(self.outdir / "trace.log"), *ANALYZE_CONSTANTS,
                "--tol", self.tol, "--out", str(self.outdir / "analyze.json")]


def make_jobs(workload: str, workdir: Path) -> list[Job]:
    """The jobs of a workload. Every input is fixed: a seed-dependent input
    would move cycles, gap and KKT from one seed to the next."""
    if workload == "ring5-async":
        return [Job("ring5", ROOT / "cases" / "ring5_async.cfg", "1e-3", workdir / "ring5",
                    trace_prefix=RING5_TRACE_PREFIX)]
    if workload == "toy-chain16-async":
        return [Job("toy-chain16", BENCH / "toy_chain16.cfg", "1e-6", workdir / "toy-chain16")]
    if workload == "grid16-sync":
        jobs = []
        for g in GRID_SEEDS:
            case, part = grids.write_grid(g, workdir / "grids")
            jobs.append(Job(f"grid{g}", BENCH / "grid16_sync.cfg", "1e-3", workdir / f"grid{g}",
                            sets=(f"case={case}", f"partition={part}", f"seed={g}")))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# operations


class _ProbeEnd(Exception):
    """Ends a probe run at the engine.run boundary."""


class SolveBoundary:
    """Replaces ``engine.run`` by a wrapper that times its entry and return
    and keeps the cycle count and end time. ``stop_at`` = "entry" or
    "return" ends a probe run there by raising :class:`_ProbeEnd`."""

    def __init__(self):
        self.stop_at = None
        self.reset()
        real = engine.run

        def timed_run(*args, **kwargs):
            self.entered = time.perf_counter()
            if self.stop_at == "entry":
                raise _ProbeEnd
            result = real(*args, **kwargs)
            self.returned = time.perf_counter()
            # keep numbers, not the result: a retained trace would slow the
            # garbage collector in every later command
            self.cycles = len(result.iteration_log)
            self.end_time = result.end_time
            if self.stop_at == "return":
                raise _ProbeEnd
            return result

        engine.run = timed_run

    def reset(self) -> None:
        self.entered = self.returned = self.cycles = self.end_time = None


def _call_cli(argv: list[str]):
    """asyncadmm's main in-process; returns (exit code or the exception raised,
    captured output)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return cli.main(argv), out.getvalue()
    except Exception as err:  # a raising command is a failed operation, not a crash
        return err, out.getvalue()


@dataclass
class Op:
    """One command's wall time and the checks it failed. ``violations`` are
    failed checks that mean a wrong output, not only a missed target."""

    kind: str
    wall_s: float
    failures: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.violations)

    def record_exit(self, code, output: str) -> None:
        if isinstance(code, BaseException):
            self.failures.append(f"raised {type(code).__name__}: {code}")
        elif code != 0:
            last = output.strip().splitlines()[-1:] or [""]
            self.failures.append(f"exit code {code}: {last[0]}")


@dataclass
class JobPass:
    """One job's run and analyze within a pass."""

    job: str
    run: Op
    analyze: Op | None = None
    setup_s: float | None = None  # None when the run never reached engine.run
    solve_s: float | None = None
    cycles: int = 0
    virtual_ms: float = 0.0
    sha: str | None = None
    diagnostics: dict | None = None
    report: dict | None = None  # the analyze output
    timing: dict | None = None


def invariant_violations(report: dict) -> list[str]:
    """Well-formedness, the four slicing rules and the staleness bound."""
    out = []
    flags = dict(report.get("wellformed") or {})
    flags.update({f"rules.{k}": v for k, v in
                  ((report.get("global_iterations") or {}).get("rules") or {}).items()})
    if len(flags) != 7:
        out.append(f"expected 3 wellformed flags and 4 slicing rules, got {sorted(flags)}")
    out += [f"{name} is false" for name, ok in sorted(flags.items()) if ok is not True]
    if (report.get("staleness_bound") or {}).get("holds") is not True:
        out.append("staleness_bound.holds is not true")
    return out


def quality_failures(report: dict) -> list[str]:
    """Convergence status and, where a reference exists, the objective gap."""
    out = []
    if report.get("status") != "converged":
        out.append(f"status {report.get('status')!r}")
    if "baseline" in report:
        gap = report["baseline"].get("gap_percent")
        if gap is None or not gap < GAP_LIMIT_PCT:
            out.append(f"gap_pct {gap} is not below {GAP_LIMIT_PCT}")
    return out


def _read_json(path: Path) -> dict | None:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def _root_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_job(job: Job, boundary: SolveBoundary, shas: dict, tracer=None) -> JobPass:
    """``run`` then ``analyze`` on one job, with every output check."""
    shutil.rmtree(job.outdir, ignore_errors=True)
    boundary.reset()
    with _root_span(tracer, "cli.run"):
        t0 = time.perf_counter()
        code, output = _call_cli(job.run_argv())
        t1 = time.perf_counter()
    rec = JobPass(job.name, Op("run", t1 - t0))
    run = rec.run
    run.record_exit(code, output)
    if boundary.entered is not None:
        rec.setup_s = boundary.entered - t0
    if boundary.returned is not None:
        rec.solve_s = boundary.returned - boundary.entered
        rec.cycles = boundary.cycles
        rec.virtual_ms = boundary.end_time
    trace = job.outdir / "trace.log"
    if trace.is_file():
        rec.sha = hashlib.sha256(trace.read_bytes()).hexdigest()
        if rec.sha != shas.setdefault(job.name, rec.sha):
            run.violations.append("trace sha256 differs from this job's first run")
        if job.trace_prefix and not rec.sha.startswith(job.trace_prefix):
            run.violations.append(f"trace sha256 {rec.sha[:16]} is not {job.trace_prefix}")
    rec.diagnostics = _read_json(job.outdir / "diagnostics.json")
    rec.timing = _read_json(job.outdir / "timing.json")
    if rec.diagnostics is not None:
        run.failures += quality_failures(rec.diagnostics)
        run.violations += invariant_violations(rec.diagnostics)
    elif not run.failed:
        run.failures.append("no diagnostics.json")

    rec.analyze = analyze_job(job, rec, tracer)
    return rec


def analyze_job(job: Job, rec: JobPass, tracer=None) -> Op:
    """``analyze`` on the trace ``run`` just wrote, checked against its report."""
    with _root_span(tracer, "cli.analyze"):
        t0 = time.perf_counter()
        code, output = _call_cli(job.analyze_argv())
        op = Op("analyze", time.perf_counter() - t0)
    op.record_exit(code, output)
    report = _read_json(job.outdir / "analyze.json") if code == 0 else None
    if report is None:
        if not op.failed:
            op.failures.append("no analyze report")
        return op
    rec.report = report
    op.failures += quality_failures(report)
    op.violations += invariant_violations(report)
    if rec.diagnostics is not None:
        op.violations += [f"analyze and run disagree on {key}" for key in SHARED_REPORT_KEYS
                          if report.get(key) != rec.diagnostics.get(key)]
    return op


@dataclass
class Pass:
    jobs: list[JobPass]
    wall_s: float

    def total(self, attr: str) -> float:
        return sum(getattr(j, attr) for j in self.jobs)

    def ops(self) -> list[tuple[str, Op]]:
        return [(j.job, op) for j in self.jobs for op in (j.run, j.analyze)]


def run_pass(jobs: list[Job], boundary: SolveBoundary, shas: dict, tracer=None) -> Pass:
    t0 = time.perf_counter()
    done = [run_job(job, boundary, shas, tracer) for job in jobs]
    return Pass(done, time.perf_counter() - t0)


def probe(job: Job, boundary: SolveBoundary, samples: dict) -> None:
    """Probe runs that add timing samples between full runs of a job:
    :data:`SETUP_PROBES` runs ended at the engine.run call, one ended at its
    return, and, while its analyses take under :data:`SHORT_ANALYZE_S`,
    repeated analyses of the trace the last full run wrote. Probes are not
    operations and are not checked: they repeat commands whose outputs the
    full runs check, and are deterministic."""
    try:
        for stop_at in ("entry",) * SETUP_PROBES + ("return",):
            boundary.stop_at = stop_at
            boundary.reset()
            t0 = time.perf_counter()
            code, _ = _call_cli(job.run_argv())
            if not isinstance(code, _ProbeEnd):
                return  # the full run reports the failure
            samples["setup_s"].append(boundary.entered - t0)
            if stop_at == "return":
                samples["solve_s"].append(boundary.returned - boundary.entered)
    finally:
        boundary.stop_at = None
    spent = 0.0
    while _median(samples["analyze_s"]) < SHORT_ANALYZE_S and spent < SHORT_ANALYZE_S:
        t0 = time.perf_counter()
        code, _ = _call_cli(job.analyze_argv())
        if code != 0:
            return
        samples["analyze_s"].append(time.perf_counter() - t0)
        spent += samples["analyze_s"][-1]


# --------------------------------------------------------------------------
# metrics


def _kkt_max(report: dict | None) -> float | None:
    kkt = (report or {}).get("kkt")
    if not kkt:
        return None
    values = kkt["stationarity"] + kkt["multiplier_consistency"] + kkt["primal"]
    return max(values, default=0.0)


def quality_metrics(p: Pass) -> dict:
    """Deterministic outcome metrics of one pass."""
    gaps = [j.diagnostics["baseline"]["gap_percent"] for j in p.jobs
            if j.diagnostics and (j.diagnostics.get("baseline") or {}).get("gap_percent") is not None]
    kkts = [v for v in (_kkt_max(j.diagnostics or j.report) for j in p.jobs) if v is not None]
    return {
        "cycles": p.total("cycles"),
        "virtual_ms": p.total("virtual_ms"),
        "gap_pct": max(gaps) if gaps else None,
        "kkt_max": max(kkts) if kkts else None,
    }


def artifact_layer_metrics(p: Pass) -> dict:
    """Per-layer metrics read from a pass's artifacts rather than spans."""
    slots, omegas, waits = 0, [], []
    for j in p.jobs:
        report = j.diagnostics or j.report or {}
        slots += (report.get("global_iterations") or {}).get("num_slots", 0)
        if "omega" in report:
            omegas.append(report["omega"])
        timing = j.timing if j.timing is not None else report.get("timing", {})
        waits += [w["wait_fraction"] for w in timing.values()]
    return {
        "kkt_max": quality_metrics(p)["kkt_max"],
        "analysis.slots": slots,
        "analysis.omega": max(omegas) if omegas else None,
        "engine.wait_fraction_vms": statistics.fmean(waits) if waits else None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _commit() -> str:
    """The checked-out commit read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# one workload, untraced or traced


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value (None when absent)
    units: dict
    report: dict  # provenance, per-pass numbers, trace hashes, failed checks

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        }


def _prepare(workload: str) -> tuple[Path, list[Job], SolveBoundary]:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(ROOT)  # the shipped configs name their case files relative to the root
    level = os.environ.get("ASYNCADMM_LOG", "WARNING").upper()
    logging.basicConfig(level=level)  # before cli.main, so its handler is not captured
    return workdir, make_jobs(workload, workdir), SolveBoundary()


def _outcome(passes: list[Pass], metrics: dict, units: dict, report: dict) -> Outcome:
    ops = [(job, op) for p in passes for job, op in p.ops()]
    failed = [(job, op) for job, op in ops if op.failed]
    report["failed_checks"] = [
        {"job": job, "op": op.kind, "failures": op.failures, "violations": op.violations}
        for job, op in failed
    ]
    correct = not any(op.violations for _, op in ops)
    return Outcome(correct, len(ops), len(failed), metrics, units, report)


def _pass_record(p: Pass) -> dict:
    return {
        "wall_s": p.wall_s,
        "jobs": {j.job: {"setup_s": j.setup_s, "solve_s": j.solve_s, "run_s": j.run.wall_s,
                         "analyze_s": j.analyze.wall_s, "cycles": j.cycles,
                         "virtual_ms": j.virtual_ms, "trace_sha256": j.sha}
                 for j in p.jobs},
    }


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    """End-to-end metrics from untraced runs for ``seconds``: full passes
    with probes after each while another round fits, then probes alone.
    Each timing is the median of a job's samples, summed over the jobs."""
    workdir, jobs, boundary = _prepare(workload)
    start = time.perf_counter()
    samples = {job.name: {"setup_s": [], "solve_s": [], "run_s": [], "analyze_s": []}
               for job in jobs}
    shas: dict = {}
    passes: list[Pass] = []
    while True:  # rounds: each job's full run and analyze, then its probes
        t0 = time.perf_counter()
        done, probe_s = [], 0.0
        for job in jobs:
            done.append(run_job(job, boundary, shas))
            for name, value in (("setup_s", done[-1].setup_s), ("solve_s", done[-1].solve_s),
                                ("run_s", done[-1].run.wall_s),
                                ("analyze_s", done[-1].analyze.wall_s)):
                samples[job.name][name].append(value)
            t1 = time.perf_counter()
            probe(job, boundary, samples[job.name])
            probe_s += time.perf_counter() - t1
        passes.append(Pass(done, time.perf_counter() - t0))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    while time.perf_counter() - start + probe_s <= seconds:  # no round fits: probes fill
        t1 = time.perf_counter()
        for job in jobs:
            probe(job, boundary, samples[job.name])
        probe_s = time.perf_counter() - t1
    ops = [op for p in passes for _, op in p.ops()]
    metrics = {name: sum(_median(job[name]) or 0.0 for job in samples.values())
               for name in ("setup_s", "solve_s", "run_s", "analyze_s")}
    metrics["peak_rss_mb"] = peak_rss_mb()
    quality = quality_metrics(passes[-1])
    metrics.update((k, quality[k]) for k in ("cycles", "virtual_ms", "gap_pct"))
    metrics["ok_frac"] = sum(not op.failed for op in ops) / len(ops)
    report = {
        "workload": workload, "trace": 0, "provenance": provenance(seed),
        "kkt_max": quality["kkt_max"],
        "samples": samples,
        "passes": [_pass_record(p) for p in passes], "trace_sha256": shas,
    }
    outcome = _outcome(passes, metrics, END_TO_END_UNITS, report)
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return outcome


def measure_traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Per-layer metrics: untraced and traced passes alternate for
    ``seconds`` (at least one of each); medians over the traced passes."""
    workdir, jobs, boundary = _prepare(workload)
    start = time.perf_counter()
    shas: dict = {}
    untraced: list[Pass] = []
    traced: list[tuple[Pass, spans.Tracer]] = []
    while True:
        pair_start = time.perf_counter()
        untraced.append(run_pass(jobs, boundary, shas))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append((run_pass(jobs, boundary, shas, tracer), tracer))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    run_s = [sum(j.run.wall_s for j in p.jobs) for p in untraced]
    traced_run_s = [sum(j.run.wall_s for j in p.jobs) for p, _ in traced]
    rows = [{**tracer.layer_metrics(), **artifact_layer_metrics(p)} for p, tracer in traced]
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [row.get(name) for row in rows]
        metrics[name] = None if None in values else _median(values)
    metrics["trace.overhead_s"] = _median(traced_run_s) - _median(run_s)
    with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump([{"absent": sorted(t.absent), "spans": t.spans} for _, t in traced], fh)
    report = {
        "workload": workload, "trace": 1, "provenance": provenance(seed),
        "untraced_passes": [_pass_record(p) for p in untraced],
        "traced_passes": [_pass_record(p) for p, _ in traced],
        "absent_layers": sorted(set().union(*(t.absent for _, t in traced))),
        "trace_sha256": shas,
    }
    outcome = _outcome(untraced + [p for p, _ in traced], metrics, PER_LAYER_UNITS, report)
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return outcome
