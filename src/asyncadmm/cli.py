"""Command-line entry point: run a solve, print parameter bounds, analyze a
trace.

``run`` takes a declarative config file (``key = value`` lines, ``#``
comments) plus optional ``--set key=value`` overrides, executes the chosen
mode and writes three artifacts into the output directory: the event trace
(``trace.log``), the per-iteration convergence table (``convergence.csv``)
and the diagnostic report (``diagnostics.json``), whose ``timing`` section
is the per-worker compute/wait split. The report is computed from the
trace, so ``analyze`` reproduces it; a worker's idle time after it reaches
``max_local_iters`` counts as waiting. Exit codes: 0 converged, 2 a cap
was exhausted. Any failure of ``run``, ``analyze`` or ``bounds``, I/O
included, prints one ``error:`` line and exits 1; artifacts already written
stay (a failed local solve leaves the partial ``trace.log``).

Config keys (defaults in parentheses):

    problem        opf | toy_consensus | nonconvex_toy   (opf)
    targets        comma-separated consensus targets for toy_consensus
    case           case file path (opf)
    partition      partition file path (opf)
    mode           sync | async                           (sync)
    rho            penalty weight                         (1.0)
    alpha          proximal weight on the consensus step  (0.0)
    p              waiting threshold in (0, 1]            (1.0)
    lambda_min/lambda_max   multiplier projection box     (-1e6 / 1e6)
    seed           delay sampling seed, non-negative      (0)
    tol            stopping tolerance, residue and mismatch (1e-3)
    max_local_iters / time_cap_ms   run caps              (1000 / 1e12)
    start          flat | warm                            (flat)
    beta_minus / beta_plus   boundary weights             (2.0 / 0.5)
    compute_delay / link_delay      delay specs, e.g. constant:1.0,
                   uniform:0.5,2.0, lognormal:0.0,0.25   (constant:1.0 / constant:0.1)
    compute_delay.<k> / link_delay.<k>-<l>   per-worker / per-edge overrides;
                   k names a worker in 1..K, k-l an edge of the problem
    baseline       true to solve the centralized reference and report the
                   objective gap                          (false)
    outdir         artifact directory                     (out)

``sync`` mode is the lockstep special case: the waiting threshold is forced
to p = 1 while the delay model stays as configured.

The defaults of the keys that the library defines are read from it: those
of ``AdmmParams``, ``StoppingRule`` and ``DelayModel`` and opf's
``DEFAULT_BETA_*``; the table above repeats them. :func:`build_run_config`
turns a config into one :class:`RunConfig`, whose ``problem`` is the
descriptor that the trace embeds as ``meta.problem``: the ``targets`` of
``toy_consensus``, or the text of the ``case`` and ``partition`` files with
the two beta weights. ``run`` and ``analyze`` build the problem from a
descriptor alone (:func:`problem_from_descriptor`).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, caseio, engine, opf
from .kernel import AdmmParams
from .localsolver import SolveError
from .problem import (
    NONCONVEX_TOY_BOUND,
    PartitionedProblem,
    make_nonconvex_toy,
    make_toy_consensus,
)

log = logging.getLogger("asyncadmm")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message}, line {line}")


_DELAYS = engine.DelayModel().describe()
# the CLI's own keys; every other default is read from the library
_DEFAULTS = {
    "problem": "opf",
    "targets": "",
    "case": "",
    "partition": "",
    "mode": "sync",
    "rho": "1.0",  # AdmmParams has no default penalty
    "start": "flat",
    "baseline": "false",
    "outdir": "out",
    **{f.name: repr(f.default) for cls in (AdmmParams, engine.StoppingRule)
       for f in fields(cls) if f.default is not MISSING},
    "compute_delay": _DELAYS["compute"],
    "link_delay": _DELAYS["link"],
    "seed": repr(_DELAYS["seed"]),
    "beta_minus": repr(opf.DEFAULT_BETA_MINUS),
    "beta_plus": repr(opf.DEFAULT_BETA_PLUS),
}


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """key = value lines into {key: (value, line_no)}; later lines win."""
    out: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line_no)
        out[key] = (value, line_no)
    return out


def _parse_delay_spec(text: str, line: int | None) -> engine.DelaySpec:
    if ":" not in text:
        raise ConfigError(f"delay spec {text!r} needs kind:params", line)
    kind, rest = text.split(":", 1)
    try:
        params = tuple(float(tok) for tok in rest.split(",") if tok.strip() != "")
        return engine.DelaySpec(kind.strip(), params)
    except ValueError as err:
        raise ConfigError(f"bad delay spec {text!r}: {err}", line) from None


@dataclass
class RunConfig:
    """One run spec. ``problem`` is the descriptor that the trace embeds as
    ``meta.problem`` and :func:`problem_from_descriptor` builds from."""

    problem: dict
    params: AdmmParams
    stop: engine.StoppingRule
    delays: engine.DelayModel
    start: str
    baseline: bool
    outdir: str


def build_run_config(entries: dict[str, tuple[str, int]]) -> RunConfig:
    merged = {k: (v, None) for k, v in _DEFAULTS.items()}
    merged.update(entries)

    def get(key: str) -> tuple[str, int | None]:
        return merged[key]

    def number(key: str) -> float:
        value, line = get(key)
        try:
            out = float(value)
        except ValueError:
            out = math.nan
        if math.isnan(out):
            raise ConfigError(f"{key} must be a number, got {value!r}", line)
        return out

    def integer(key: str) -> int:
        value, line = get(key)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", line) from None

    known_prefixes = ("compute_delay.", "link_delay.")
    for key, (_, line) in entries.items():
        if key not in _DEFAULTS and not key.startswith(known_prefixes):
            raise ConfigError(f"unknown config key {key!r}", line)

    problem_kind, line = get("problem")
    if problem_kind not in ("opf", "toy_consensus", "nonconvex_toy"):
        raise ConfigError(f"unknown problem kind {problem_kind!r}", line)
    mode, line = get("mode")
    if mode not in ("sync", "async"):
        raise ConfigError(f"mode must be sync or async, got {mode!r}", line)
    start, line = get("start")
    if start not in ("flat", "warm"):
        raise ConfigError(f"start must be flat or warm, got {start!r}", line)

    targets_text, line = get("targets")
    targets = []
    if targets_text:
        try:
            targets = [float(tok) for tok in targets_text.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"targets must be numbers, got {targets_text!r}", line) from None

    p = number("p")
    try:
        params = AdmmParams(
            rho=number("rho"), alpha=number("alpha"),
            p=(1.0 if mode == "sync" else p),
            lambda_min=number("lambda_min"), lambda_max=number("lambda_max"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None

    compute_overrides = {}
    link_overrides = {}
    for key, (value, line) in entries.items():
        if key.startswith("compute_delay."):
            try:
                worker = int(key.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"bad worker index in {key!r}", line) from None
            compute_overrides[worker] = _parse_delay_spec(value, line)
        elif key.startswith("link_delay."):
            tail = key.split(".", 1)[1]
            try:
                a, b = (int(tok) for tok in tail.split("-"))
            except ValueError:
                raise ConfigError(f"bad edge in {key!r}, expected k-l", line) from None
            link_overrides[(min(a, b), max(a, b))] = _parse_delay_spec(value, line)
    delays = engine.DelayModel(
        compute=_parse_delay_spec(*get("compute_delay")),
        link=_parse_delay_spec(*get("link_delay")),
        compute_overrides=compute_overrides,
        link_overrides=link_overrides,
        seed=integer("seed"),
    )

    baseline_text, line = get("baseline")
    if baseline_text.lower() not in ("true", "false", "0", "1"):
        raise ConfigError(f"baseline must be true or false, got {baseline_text!r}", line)

    stop = engine.StoppingRule(tol=number("tol"), max_local_iters=integer("max_local_iters"),
                               time_cap_ms=number("time_cap_ms"))
    betas = {"beta_minus": number("beta_minus"), "beta_plus": number("beta_plus")}

    # the problem descriptor last: its checks read the case and partition files
    if problem_kind == "toy_consensus":
        if len(targets) < 2:
            raise ConfigError("toy_consensus needs at least two targets")
        problem = {"kind": "toy_consensus", "targets": targets}
    elif problem_kind == "nonconvex_toy":
        problem = {"kind": "nonconvex_toy"}
    else:
        problem = {"kind": "opf"}
        for label in ("case", "partition"):
            path = get(label)[0]
            if not path:
                raise ConfigError(f"problem = opf needs a {label} file")
            try:
                problem[label] = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                raise ConfigError(f"cannot read {label} {path}: {err}") from err
        problem.update(betas)
    return RunConfig(problem=problem, params=params, stop=stop, delays=delays, start=start,
                     baseline=baseline_text.lower() in ("true", "1"), outdir=get("outdir")[0])


# --------------------------------------------------------------------------
# problems


def toy_centralized_optimum(problem: PartitionedProblem, descriptor: dict) -> tuple[float, float]:
    """Consensus optimum of a toy instance in closed form; returns (argmin,
    value).

    The consensus toy's sum of (x - c_k)^2 is least at the mean of the
    targets. The non-convex toy's (x^2 - 1)^2 + (x - 0.5)^2 is least at a real
    root of its derivative 4x^3 - 2x - 1 inside the box or at a box end.
    """
    if descriptor["kind"] == "toy_consensus":
        targets = [float(c) for c in descriptor["targets"]]
        candidates = [math.fsum(targets) / len(targets)]
    else:
        b = NONCONVEX_TOY_BOUND
        roots = np.roots([4.0, 0.0, -2.0, -1.0])
        candidates = [float(r.real) for r in roots
                      if abs(r.imag) <= 1e-12 and -b <= r.real <= b] + [-b, b]
    K = problem.num_regions
    value, best = min((problem.total_objective([np.array([v])] * K), v) for v in candidates)
    return best, value


def problem_from_descriptor(descriptor: dict):
    """(problem, OPF layout or None) of a descriptor: a config's
    ``problem`` for ``run``, the trace's ``meta.problem`` for ``analyze``;
    (None, None) for a descriptor of no known kind."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"problem descriptor is a {type(descriptor).__name__}, not an object")
    kind = descriptor.get("kind")
    if kind == "toy_consensus":
        return make_toy_consensus(descriptor["targets"]), None
    if kind == "nonconvex_toy":
        return make_nonconvex_toy(), None
    if kind == "opf":
        case = caseio.parse_case(descriptor["case"])
        partition = caseio.parse_partition(descriptor["partition"], case)
        problem, layout = opf.build_regional_subproblems(
            case, partition,
            descriptor.get("beta_minus", opf.DEFAULT_BETA_MINUS),
            descriptor.get("beta_plus", opf.DEFAULT_BETA_PLUS),
        )
        return problem, layout
    return None, None


def _start_vectors(config: RunConfig, problem, layout):
    if config.start == "flat":
        return None  # engine.run's own flat start
    if layout is not None:
        return opf.warm_start(layout, problem)
    # toy warm start: centralized optimum nudged by ten percent
    v, _ = toy_centralized_optimum(problem, config.problem)
    nudge = v * 1.1 if v != 0.0 else 0.1
    return [np.array([nudge]) for _ in range(problem.num_regions)]


# --------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from err
    entries = parse_config_text(text)
    for override in args.set or []:
        if "=" not in override:
            raise ConfigError(f"--set needs key=value, got {override!r}")
        key, value = override.split("=", 1)
        entries[key.strip()] = (value.strip(), None)
    config = build_run_config(entries)
    problem, layout = problem_from_descriptor(config.problem)
    K, edges = problem.num_regions, {(e.k, e.l) for e in problem.edges}
    for k in config.delays.compute_overrides:
        if not 1 <= k <= K:
            raise ConfigError(f"compute_delay.{k} names no worker of this problem (1..{K})")
    for k, l in config.delays.link_overrides:
        if (k, l) not in edges:
            raise ConfigError(f"link_delay.{k}-{l} names no edge of this problem")
    x0 = _start_vectors(config, problem, layout)
    outdir = Path(config.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot write outdir {outdir}: {err}") from err
    wall_start = time.monotonic()
    try:
        result = engine.run(problem, config.params, config.delays, config.stop,
                            x0=x0, problem_descriptor=config.problem)
    except engine.EngineAbort as err:
        caseio.write_trace(err.trace, outdir / "trace.log")
        raise

    wall_s = time.monotonic() - wall_start
    caseio.write_trace(result.trace, outdir / "trace.log")
    caseio.write_results(result.iteration_log, outdir / "convergence.csv")
    # from here on a failure leaves trace.log and convergence.csv in place
    try:
        index = analysis.TraceIndex(result.trace.meta, result.trace.events)
        report = analysis.analyze_trace(index, problem=problem)
    except analysis.TraceError as err:
        raise analysis.TraceError(f"trace analysis failed: {err}") from err
    # virtual time is the primary axis everywhere; wall time alongside
    report["wall_time_s"] = wall_s
    if config.baseline:
        if layout is not None:
            try:
                central = opf.centralized_reference_solve(layout.case).objective
            except SolveError as err:
                raise SolveError(f"centralized baseline solve failed: {err}",
                                 err.grad_norm, err.constraint_norm) from err
        else:
            _, central = toy_centralized_optimum(problem, config.problem)
        report["baseline"] = analysis.objective_gap(report["objective"], central)
    (outdir / "diagnostics.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("status=%s final_residue=%.3e", result.status, result.max_residue())
    print(f"{result.status}: {result.end_time:.3f} ms virtual, "
          f"max residue {result.max_residue():.3e}, artifacts in {outdir}")
    return 0 if result.converged else 2


def cmd_bounds(args) -> int:
    if not 0 < args.rho < math.inf:
        raise ValueError(f"--rho must be positive and finite, got {args.rho!r}")
    consts = analysis.DiagnosticConstants(
        gamma=args.gamma, m1=args.m1, m2=args.m2, c=args.c, omega=args.omega
    )
    out = analysis.parameter_bounds(consts, args.rho)
    if out["alpha_zero_admissible"]:
        out["message"] = "alpha=0 admissible"
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    try:
        index = caseio.read_trace(args.trace)
    except OSError as err:
        raise OSError(f"cannot read trace {args.trace}: {err}") from err
    given = [args.gamma, args.m1, args.m2, args.c]
    if None in given and any(v is not None for v in given):
        raise ValueError("constants need all of --gamma --m1 --m2 --c")
    constants = None if args.gamma is None else analysis.DiagnosticConstants(
        gamma=args.gamma, m1=args.m1, m2=args.m2, c=args.c
    )
    # malformed metadata other than the descriptor is reported by the analysis
    meta = index.meta if isinstance(index.meta, dict) else {}
    try:
        problem, _ = problem_from_descriptor(meta.get("problem", {}))
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"embedded problem does not rebuild: {err}") from err
    report = analysis.analyze_trace(index, problem=problem, constants=constants,
                                    kkt_tol=args.tol)
    del index  # the report holds none of the index: rendering it can reuse its memory
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="asyncadmm",
        description="partition-based asynchronous ADMM with a delay simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured solve")
    p_run.add_argument("config", help="config file path")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
    p_run.set_defaults(fn=cmd_run)

    p_bounds = sub.add_parser("bounds", help="admissible rho/alpha lower bounds")
    p_bounds.add_argument("--gamma", type=float, required=True)
    p_bounds.add_argument("--m1", type=float, required=True)
    p_bounds.add_argument("--m2", type=float, required=True)
    p_bounds.add_argument("--c", type=float, required=True)
    p_bounds.add_argument("--omega", type=int, default=1)
    p_bounds.add_argument("--rho", type=float, required=True)
    p_bounds.set_defaults(fn=cmd_bounds)

    p_an = sub.add_parser("analyze", help="diagnostic report over a trace file")
    p_an.add_argument("trace", help="trace file path")
    p_an.add_argument("--gamma", type=float)
    p_an.add_argument("--m1", type=float)
    p_an.add_argument("--m2", type=float)
    p_an.add_argument("--c", type=float)
    p_an.add_argument("--tol", type=float, help="KKT tolerance (default: the trace's stop.tol)")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.set_defaults(fn=cmd_analyze)

    args = parser.parse_args(argv)
    # the one failure boundary: every subcommand raises, and a failure is one
    # error line and exit code 1 (a bad ASYNCADMM_LOG level included)
    try:
        logging.basicConfig(level=os.environ.get("ASYNCADMM_LOG", "WARNING").upper())
        return args.fn(args)
    except (OSError, ValueError, SolveError, engine.EngineAbort) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
