"""asyncadmm benchmark: time to solution, ``run``/``analyze`` wall time and a
traced per-layer run.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 bench/run.py --workload ring5-async --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload grid16-sync --seed 1 --seconds 36 --trace 1

Every workload, each in a child process of its own so that peak memory does
not carry from one to the next, printed as one table::

    python3 bench/run.py --workload all --seed 1 --seconds 36

For one workload, the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Artifacts,
a ``report.json`` with provenance and per-pass numbers, and the spans of a
traced run go to ``.bench_work/<workload>/`` in the checkout. See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checkout import ROOT, CheckoutError

WORKLOADS = ("ring5-async", "grid16-sync", "toy-chain16-async")
CHILD_TIMEOUT_S = 900


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(args) -> int:
    try:
        import harness
    except CheckoutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    measure = harness.measure_traced if args.trace else harness.measure
    outcome = measure(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + json.dumps(outcome.report["provenance"], sort_keys=True))
    for check in outcome.report["failed_checks"]:
        print(f"# failed {check['job']} {check['op']}: "
              + "; ".join(check["violations"] + check["failures"]))
    for name, value in outcome.metrics.items():
        print(f"{name} = {_fmt(value)} {outcome.units[name]}")
    if not args.trace:
        print(f"# kkt_max = {_fmt(outcome.report['kkt_max'])} abs (reported, not gated)")
    print(json.dumps(outcome.result_line()), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, then one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            if line.startswith("# failed"):
                print(line)
        results[workload] = json.loads(lines[-1])
        report = json.loads((ROOT / ".bench_work" / workload / "report.json").read_text())
        results[workload]["kkt_max"] = report.get("kkt_max")
    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names + ["failed_frac"]) + 2
    print("metric".ljust(width) + "unit".ljust(8) + "".join(w.rjust(20) for w in WORKLOADS))
    rows = [(n, results[WORKLOADS[0]]["metrics"][n]["unit"],
             [results[w]["metrics"][n]["value"] for w in WORKLOADS]) for n in names]
    rows.append(("failed_frac", "frac",
                 [results[w]["failed"] / results[w]["attempted"] for w in WORKLOADS]))
    if not args.trace:
        rows.append(("kkt_max", "abs", [results[w]["kkt_max"] for w in WORKLOADS]))
    rows.append(("correct", "", [results[w]["correct"] for w in WORKLOADS]))
    for name, unit, values in rows:
        print(name.ljust(width) + unit.ljust(8) + "".join(_fmt(v).rjust(20) for v in values))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="asyncadmm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
