"""Command-line entry point: run a solve, print parameter bounds, analyze a
trace.

``run`` takes a declarative config file (``key = value`` lines, ``#``
comments) plus optional ``--set key=value`` overrides, executes the chosen
mode and writes four artifacts into the output directory: the event trace
(``trace.log``), the per-iteration convergence table (``convergence.csv``),
the diagnostic report (``diagnostics.json``) and the per-worker
compute/wait split (``timing.json``), a copy of the report's ``timing``
section. Both are computed from the trace, so ``analyze`` reproduces them;
a worker's idle time after it reaches ``max_local_iters`` counts as
waiting. Exit codes: 0 converged, 2 a cap was exhausted, 1 any error. An
error after the solve (trace analysis or the centralized baseline) prints
one ``error:`` line and keeps the trace and the convergence table already
written.

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
    seed           delay sampling seed                    (0)
    tol            stopping tolerance, residue and mismatch (1e-3)
    max_local_iters / time_cap_ms   run caps              (1000 / 1e12)
    start          flat | warm                            (flat)
    beta_minus / beta_plus   boundary weights             (2.0 / 0.5)
    compute_delay / link_delay      delay specs, e.g. constant:1.0,
                   uniform:0.5,2.0, lognormal:0.0,0.25   (constant:1.0 / constant:0.1)
    compute_delay.<k> / link_delay.<k>-<l>   per-worker / per-edge overrides
    baseline       true to solve the centralized reference and report the
                   objective gap                          (false)
    outdir         artifact directory                     (out)

``sync`` mode is the lockstep special case: the waiting threshold is forced
to p = 1 while the delay model stays as configured.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, caseio, engine, opf
from .kernel import AdmmParams
from .localsolver import SolveError
from .problem import (
    NONCONVEX_TOY_BOUND,
    PartitionedProblem,
    flat_start,
    make_nonconvex_toy,
    make_toy_consensus,
)

log = logging.getLogger("asyncadmm")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message}, line {line}")


_DEFAULTS = {
    "problem": "opf",
    "targets": "",
    "case": "",
    "partition": "",
    "mode": "sync",
    "rho": "1.0",
    "alpha": "0.0",
    "p": "1.0",
    "lambda_min": "-1e6",
    "lambda_max": "1e6",
    "seed": "0",
    "tol": "1e-3",
    "max_local_iters": "1000",
    "time_cap_ms": "1e12",
    "start": "flat",
    "beta_minus": "2.0",
    "beta_plus": "0.5",
    "compute_delay": "constant:1.0",
    "link_delay": "constant:0.1",
    "baseline": "false",
    "outdir": "out",
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
    problem_kind: str
    targets: list[float]
    case_path: str
    partition_path: str
    params: AdmmParams
    tol: float
    max_local_iters: int
    time_cap_ms: float
    start: str
    beta_minus: float
    beta_plus: float
    delays: engine.DelayModel
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

    return RunConfig(
        problem_kind=problem_kind,
        targets=targets,
        case_path=get("case")[0],
        partition_path=get("partition")[0],
        params=params,
        tol=number("tol"),
        max_local_iters=integer("max_local_iters"),
        time_cap_ms=number("time_cap_ms"),
        start=start,
        beta_minus=number("beta_minus"),
        beta_plus=number("beta_plus"),
        delays=delays,
        baseline=baseline_text.lower() in ("true", "1"),
        outdir=get("outdir")[0],
    )


# --------------------------------------------------------------------------
# problem resolution


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


def _resolve_problem(config: RunConfig):
    """Build (problem, layout-or-None, descriptor) from the config: the
    descriptor that the trace embeds, and the problem rebuilt from it as
    ``analyze`` rebuilds it."""
    if config.problem_kind == "toy_consensus":
        if len(config.targets) < 2:
            raise ConfigError("toy_consensus needs at least two targets")
        descriptor = {"kind": "toy_consensus", "targets": config.targets}
    elif config.problem_kind == "nonconvex_toy":
        descriptor = {"kind": "nonconvex_toy"}
    else:
        for label, path in (("case", config.case_path), ("partition", config.partition_path)):
            if not path:
                raise ConfigError(f"problem = opf needs a {label} file")
            if not os.path.exists(path):
                raise ConfigError(f"{label} file not found: {path}")
        descriptor = {
            "kind": "opf",
            "case": Path(config.case_path).read_text(encoding="utf-8"),
            "partition": Path(config.partition_path).read_text(encoding="utf-8"),
            "beta_minus": config.beta_minus,
            "beta_plus": config.beta_plus,
        }
    return (*problem_from_descriptor(descriptor), descriptor)


def problem_from_descriptor(descriptor: dict):
    """Rebuild the problem a trace was produced from, if it is embedded."""
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


def _start_vectors(config: RunConfig, problem, layout, descriptor):
    if config.start == "flat":
        return [flat_start(problem.region(k)) for k in range(1, problem.num_regions + 1)]
    if layout is not None:
        return opf.warm_start(layout, problem)
    # toy warm start: centralized optimum nudged by ten percent
    v, _ = toy_centralized_optimum(problem, descriptor)
    nudge = v * 1.1 if v != 0.0 else 0.1
    return [np.array([nudge]) for _ in range(problem.num_regions)]


# --------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read config {args.config}: {err}", file=sys.stderr)
        return 1
    try:
        entries = parse_config_text(text)
        for override in args.set or []:
            if "=" not in override:
                raise ConfigError(f"--set needs key=value, got {override!r}")
            key, value = override.split("=", 1)
            entries[key.strip()] = (value.strip(), None)
        config = build_run_config(entries)
        stop = engine.StoppingRule(
            tol=config.tol,
            max_local_iters=config.max_local_iters,
            time_cap_ms=config.time_cap_ms,
        )
        problem, layout, descriptor = _resolve_problem(config)
        x0 = _start_vectors(config, problem, layout, descriptor)
    except (ConfigError, caseio.ParseError, opf.BuildError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    wall_start = time.monotonic()
    try:
        result = engine.run(problem, config.params, config.delays, stop,
                            x0=x0, problem_descriptor=descriptor)
    except engine.EngineAbort as err:
        outdir = Path(config.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        caseio.write_trace(err.trace, outdir / "trace.log")
        print(f"error: {err}", file=sys.stderr)
        return 1

    wall_s = time.monotonic() - wall_start
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    caseio.write_trace(result.trace, outdir / "trace.log")
    caseio.write_results(result.iteration_log, outdir / "convergence.csv")
    # from here on a failure leaves trace.log and convergence.csv in place
    try:
        report = analysis.analyze_trace(result.trace, problem=problem, kkt_tol=config.tol)
    except analysis.TraceError as err:
        print(f"error: trace analysis failed: {err}", file=sys.stderr)
        return 1
    # virtual time is the primary axis everywhere; wall time alongside
    report["wall_time_s"] = wall_s
    if config.baseline:
        if layout is not None:
            try:
                central = opf.centralized_reference_solve(layout.case).objective
            except SolveError as err:
                print(f"error: centralized baseline solve failed: {err}", file=sys.stderr)
                return 1
        else:
            _, central = toy_centralized_optimum(problem, descriptor)
        report["baseline"] = analysis.objective_gap(problem.total_objective(result.x), central)
    for name, content in (("diagnostics.json", report), ("timing.json", report["timing"])):
        (outdir / name).write_text(
            json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    log.info("status=%s final_residue=%.3e", result.status, result.max_residue())
    print(f"{result.status}: {result.end_time:.3f} ms virtual, "
          f"max residue {result.max_residue():.3e}, artifacts in {outdir}")
    return 0 if result.converged else 2


def cmd_bounds(args) -> int:
    try:
        consts = analysis.DiagnosticConstants(
            gamma=args.gamma, m1=args.m1, m2=args.m2, c=args.c, omega=args.omega
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    rho_min, alpha_min = analysis.parameter_bounds(consts, args.rho)
    out = {
        "rho": args.rho,
        "rho_min": rho_min,
        "rho_admissible": args.rho > rho_min,
        "alpha_min": alpha_min,
        "alpha_zero_admissible": alpha_min <= 0.0,
    }
    if alpha_min <= 0.0:
        out["message"] = "alpha=0 admissible"
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    if not 0 < args.tol < math.inf:
        print(f"error: --tol must be positive and finite, got {args.tol!r}", file=sys.stderr)
        return 1
    try:
        trace = caseio.read_trace(args.trace)
    except caseio.ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot read trace {args.trace}: {err}", file=sys.stderr)
        return 1
    constants = None
    given = [args.gamma, args.m1, args.m2, args.c]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            print("error: constants need all of --gamma --m1 --m2 --c", file=sys.stderr)
            return 1
        try:
            constants = analysis.DiagnosticConstants(
                gamma=args.gamma, m1=args.m1, m2=args.m2, c=args.c
            )
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    # malformed metadata other than the descriptor is reported by the analysis
    meta = trace.meta if isinstance(trace.meta, dict) else {}
    try:
        problem, _ = problem_from_descriptor(meta.get("problem", {}))
    except (caseio.ParseError, opf.BuildError, KeyError, TypeError, ValueError) as err:
        print(f"error: embedded problem does not rebuild: {err}", file=sys.stderr)
        return 1
    try:
        report = analysis.analyze_trace(trace, problem=problem, constants=constants,
                                        kkt_tol=args.tol)
    except analysis.TraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    del trace  # the report holds no event: rendering it can reuse the events' memory
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("ASYNCADMM_LOG", "WARNING").upper())
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
    p_an.add_argument("--tol", type=float, default=1e-3)
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.set_defaults(fn=cmd_analyze)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
