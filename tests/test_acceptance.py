"""Acceptance suite: one test per shipped claim, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import time

import numpy as np
import pytest

from asyncadmm import caseio
from asyncadmm.analysis import (
    DiagnosticConstants,
    assign_global_iterations,
    check_kkt,
    check_lambda_bound,
    check_staleness_bound,
    measure_omega,
    objective_gap,
    parameter_bounds,
    slot_snapshots,
    timing_from_trace,
    verify_slicing_rules,
)
from asyncadmm.cli import main
from asyncadmm.engine import DelayModel, DelaySpec, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.opf import Partition, build_regional_subproblems, centralized_reference_solve
from asyncadmm.problem import flat_start, make_nonconvex_toy, make_toy_consensus

from conftest import (
    STAGGERED_BOUNDARIES,
    STAGGERED_OMEGA,
    events_of,
    index_of,
    staggered_trace,
)
from oracles import nonconvex_toy_constants, run_sync_reference

LOCKSTEP = DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.0), seed=0)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def chain3_problem(chain3_case):
    return build_regional_subproblems(chain3_case, Partition({1: 1, 2: 2, 3: 2}))


@pytest.fixture(scope="module")
def ring5_problem(ring5_case):
    # three regions so the waiting threshold p = 0.1 is genuinely partial
    return build_regional_subproblems(
        ring5_case, Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 3})
    )


def compare_engine_to_reference(problem, params, iters):
    """Max per-coordinate deviation between the event-driven run at p = 1
    with zero link delays and the straight-line synchronous loop."""
    ref = run_sync_reference(problem, params, tol=0.0, max_iters=iters)
    res = run(problem, params, LOCKSTEP, StoppingRule(tol=1e-16, max_local_iters=iters))
    starts = events_of(res.trace, "compute_start")
    ends = events_of(res.trace, "compute_end")
    worst = 0.0
    compared = iters
    for k in range(1, problem.num_regions + 1):
        zs = [np.array(e.payload["z"]) for e in starts if e.worker == k]
        xs = [np.array(e.payload["x"]) for e in ends if e.worker == k]
        lams = [np.array(e.payload["lam"]) for e in ends if e.worker == k]
        n = min(len(ref.iterates), len(xs))
        compared = min(compared, n)
        for i in range(n):
            worst = max(worst, float(np.max(np.abs(xs[i] - ref.iterates[i].x[k - 1]))))
            worst = max(worst, float(np.max(np.abs(lams[i] - ref.iterates[i].lam[k - 1]))))
            z_ref = problem.region_z(ref.iterates[i].z, k)
            if zs[i].size:
                worst = max(worst, float(np.max(np.abs(zs[i] - z_ref))))
    return worst, compared


def test_criterion_01_sync_async_equivalence(chain3_problem):
    t0 = time.monotonic()
    toy = make_toy_consensus([0.0, 2.0, -1.0])
    dev_toy, n_toy = compare_engine_to_reference(toy, AdmmParams(rho=5.0, p=1.0), 55)
    problem, _ = chain3_problem
    dev_opf, n_opf = compare_engine_to_reference(problem, AdmmParams(rho=1e5, p=1.0), 55)
    elapsed = time.monotonic() - t0
    ok = (dev_toy <= 1e-12 and dev_opf <= 1e-12
          and n_toy >= 50 and n_opf >= 50 and elapsed < 5.0)
    report(1, ok, f"toy dev {dev_toy:.2e} / opf dev {dev_opf:.2e} over "
                  f"{min(n_toy, n_opf)} iterations in {elapsed:.2f}s (< 5s)")


def test_criterion_02_async_worst_case_convergence():
    t0 = time.monotonic()
    problem = make_toy_consensus([0.0, 2.0])
    delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.5),
                        link=DelaySpec.lognormal(-1.0, 0.3), seed=7)
    res = run(problem, AdmmParams(rho=5.0, alpha=0.0, p=0.1), delays,
              StoppingRule(tol=2e-4, max_local_iters=2000))
    elapsed = time.monotonic() - t0
    # closed-form optimum of x^2 + (x-2)^2 is 1.0
    errs = [abs(float(s.x[0]) - 1.0) for s in res.states]
    ok = (res.converged and res.max_residue() <= 1e-3
          and max(errs) <= 1e-3 and elapsed < 5.0)
    report(2, ok, f"residue {res.max_residue():.2e}, consensus error "
                  f"{max(errs):.2e}, {elapsed:.2f}s (< 5s)")


def test_criterion_03_nonconvex_instance():
    t0 = time.monotonic()
    consts = nonconvex_toy_constants()
    dc = DiagnosticConstants(gamma=consts["gamma"], m1=consts["m1"],
                             m2=consts["m2"], c=consts["c"], omega=1)
    rho_min = parameter_bounds(dc, 1.0)["rho_min"]
    rho = 500.0
    assert rho > rho_min
    problem = make_nonconvex_toy()
    delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.5),
                        link=DelaySpec.lognormal(-1.0, 0.3), seed=7)
    res = run(problem, AdmmParams(rho=rho, p=0.1), delays,
              StoppingRule(tol=1e-7, max_local_iters=30000, time_cap_ms=1e9))
    kkt = check_kkt(problem, [s.x for s in res.states], res.z,
                    [s.lam for s in res.states], tol=1e-3)
    # brute-force local minima of the coupled objective, grid step 1e-4
    xs = np.arange(-2.0, 2.0 + 5e-5, 1e-4)
    vals = (xs**2 - 1.0) ** 2 + (xs - 0.5) ** 2
    interior = np.arange(1, xs.size - 1)
    local_idx = interior[(vals[interior] < vals[interior - 1])
                         & (vals[interior] <= vals[interior + 1])]
    local_values = vals[local_idx]
    achieved = problem.total_objective([s.x for s in res.states])
    nearest = float(np.min(np.abs(local_values - achieved)))
    elapsed = time.monotonic() - t0
    ok = (res.converged and kkt["passed"] and nearest <= 1e-3 and elapsed < 30.0)
    worst = max(kkt["stationarity"] + kkt["multiplier_consistency"] + kkt["primal"])
    report(3, ok, f"rho {rho:.0f} > bound {rho_min:.1f}; kkt max {worst:.2e}; "
                  f"objective off grid minimum by {nearest:.2e}; {elapsed:.1f}s (< 30s)")


def test_criterion_04_opf_end_to_end_gap(ring5_case, ring5_problem):
    t0 = time.monotonic()
    problem, layout = ring5_problem
    x0 = [flat_start(problem.region(k)) for k in range(1, problem.num_regions + 1)]
    central = centralized_reference_solve(ring5_case)
    sync = run(problem, AdmmParams(rho=1e5, p=1.0),
               DelayModel(compute=DelaySpec.constant(1.0),
                          link=DelaySpec.constant(0.1), seed=1),
               StoppingRule(tol=1e-3, max_local_iters=500), x0=x0)
    async_delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.4),
                              link=DelaySpec.lognormal(-1.5, 0.3), seed=11)
    asyn = run(problem, AdmmParams(rho=1e5, p=0.1), async_delays,
               StoppingRule(tol=1e-3, max_local_iters=1500), x0=x0)
    gaps = []
    ok = central.objective > 0
    for label, result in (("sync", sync), ("async", asyn)):
        mismatch = max(s.constraint_violation for s in result.states)
        gap = objective_gap(problem.total_objective([s.x for s in result.states]),
                            central.objective)
        gaps.append((label, gap["gap_percent"]))
        ok = ok and result.converged and result.max_residue() <= 1e-3 \
            and mismatch <= 1e-3 and gap["gap_percent"] < 1.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report(4, ok, "gaps " + ", ".join(f"{l} {g:.3f}%" for l, g in gaps)
           + f" vs centralized {central.objective:.2f}; {elapsed:.1f}s (< 600s)")


def test_criterion_05_trace_inequalities(chain3_case, ring5_case):
    runs = []
    quad_delays = lambda seed: DelayModel(compute=DelaySpec.lognormal(0.0, 0.6),
                                          link=DelaySpec.lognormal(-0.5, 0.4), seed=seed)
    for seed in range(6):  # quadratic toy with analytic constants
        problem = make_toy_consensus([0.0, 2.0])
        res = run(problem, AdmmParams(rho=5.0, p=0.1), quad_delays(seed),
                  StoppingRule(tol=1e-4, max_local_iters=1000))
        runs.append(("quadratic", res))
    for seed in range(5):
        problem = make_toy_consensus([0.0, 1.0, 2.0, 3.0])
        res = run(problem, AdmmParams(rho=6.0, p=0.1),
                  DelayModel(compute=DelaySpec.uniform(0.5, 3.0),
                             link=DelaySpec.uniform(0.0, 1.0), seed=seed),
                  StoppingRule(tol=1e-4, max_local_iters=1500))
        runs.append(("chain4", res))
    for seed in range(3):
        res = run(make_nonconvex_toy(), AdmmParams(rho=500.0, p=0.1),
                  quad_delays(seed), StoppingRule(tol=1e-5, max_local_iters=20000))
        runs.append(("nonconvex", res))
    chain3_p, _ = build_regional_subproblems(chain3_case, Partition({1: 1, 2: 2, 3: 2}))
    ring5_p, _ = build_regional_subproblems(
        ring5_case, Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 3}))
    for seed in range(3):
        res = run(chain3_p, AdmmParams(rho=1e5, p=0.1),
                  DelayModel(compute=DelaySpec.lognormal(0.0, 0.4),
                             link=DelaySpec.lognormal(-1.5, 0.3), seed=seed),
                  StoppingRule(tol=1e-3, max_local_iters=500))
        runs.append(("opf3", res))
    for seed in range(3):
        res = run(ring5_p, AdmmParams(rho=1e5, p=0.1),
                  DelayModel(compute=DelaySpec.lognormal(0.0, 0.4),
                             link=DelaySpec.lognormal(-1.5, 0.3), seed=seed),
                  StoppingRule(tol=1e-3, max_local_iters=500))
        runs.append(("opf5", res))
    assert len(runs) == 20
    staleness_failures = 0
    lambda_violations = 0
    for label, res in runs:
        index = index_of(res.trace)
        assignment = assign_global_iterations(index)
        snapshots = slot_snapshots(index, assignment)
        staleness = check_staleness_bound(assignment, snapshots, measure_omega(assignment))
        if not staleness["holds"]:
            staleness_failures += 1
        if label == "quadratic":
            lambda_violations += len(
                check_lambda_bound(assignment, snapshots, c_const=1.0, m1=2.0)
            )
    ok = staleness_failures == 0 and lambda_violations == 0
    report(5, ok, f"20 seeded runs: {staleness_failures} staleness-bound failures, "
                  f"{lambda_violations} multiplier-bound violations")


def test_criterion_06_parameter_bound_calculator():
    import math

    rho_min = parameter_bounds(
        DiagnosticConstants(gamma=1.0, m1=1.0, m2=1.0, c=1.0, omega=1), 1.0)["rho_min"]
    exact_rho = rho_min == 2.0 + math.sqrt(8.0)
    alpha_min = parameter_bounds(
        DiagnosticConstants(gamma=1.0, m1=1.0, m2=1.0, c=1.0, omega=3), 5.0)["alpha_min"]
    exact_alpha = alpha_min == 17.0
    monotone = True
    base = {"gamma": 1.0, "m1": 1.0, "m2": 1.0, "c": 1.0}
    for field in base:
        prev = -np.inf
        for v in np.linspace(1.0, 5.0, 10):
            kw = dict(base)
            kw[field] = float(v)
            rm = parameter_bounds(DiagnosticConstants(**kw, omega=1), 1.0)["rho_min"]
            monotone = monotone and rm > prev
            prev = rm
    ok = exact_rho and exact_alpha and monotone
    report(6, ok, f"rho_min(1,1,1,1) == 2+sqrt(8): {exact_rho}; "
                  f"alpha_min(rho=5,m2=1,omega=3) == 17: {exact_alpha}; "
                  f"10-point sweeps monotone: {monotone}")


def test_criterion_07_global_counter_reconstruction():
    index = index_of(staggered_trace())
    assignment = assign_global_iterations(index)
    rules = verify_slicing_rules(assignment, index)
    omega = measure_omega(assignment)
    lockstep = run(make_toy_consensus([0.0, 2.0, 1.0]), AdmmParams(rho=5.0, p=1.0),
                   LOCKSTEP, StoppingRule(tol=1e-5, max_local_iters=200))
    lock_omega = measure_omega(assign_global_iterations(index_of(lockstep.trace)))
    ok = (all(rules.values()) and omega == STAGGERED_OMEGA
          and assignment.boundaries == STAGGERED_BOUNDARIES and lock_omega == 1)
    report(7, ok, f"staggered fixture boundaries {assignment.boundaries}, "
                  f"omega {omega} (expected {STAGGERED_OMEGA}); lockstep omega {lock_omega}")


def test_criterion_08_parser_fuzz(chain3_text, ring5_text, chain3_case,
                                  ring5_case, chain3_partition_text,
                                  ring5_partition_text):
    rng = np.random.default_rng(20240817)
    crashes = 0
    total = 0

    def try_case(text):
        nonlocal crashes, total
        total += 1
        try:
            caseio.parse_case(text)
        except caseio.ParseError:
            pass
        except Exception:
            crashes += 1

    def try_partition(text, case):
        nonlocal crashes, total
        total += 1
        try:
            caseio.parse_partition(text, case)
        except caseio.ParseError:
            pass
        except Exception:
            crashes += 1

    for _ in range(4000):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 160))).astype(np.uint8)
        try_case(blob.tobytes().decode("latin-1"))
    alphabet = list("0123456789.eE -+\nBUSRANCHGECOT#:x")
    for _ in range(3000):
        chars = list(chain3_text)
        for _ in range(int(rng.integers(1, 8))):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, max(len(chars), 1)))
            if op == 0 and chars:
                chars[pos % len(chars)] = alphabet[int(rng.integers(0, len(alphabet)))]
            elif op == 1 and chars:
                del chars[pos % len(chars)]
            else:
                chars.insert(pos, alphabet[int(rng.integers(0, len(alphabet)))])
        try_case("".join(chars))
    for _ in range(3000):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 80))).astype(np.uint8)
        try_partition(blob.tobytes().decode("latin-1"), chain3_case)

    round_trips = (
        caseio.parse_case(caseio.serialize_case(chain3_case)) == chain3_case
        and caseio.parse_case(caseio.serialize_case(ring5_case)) == ring5_case
    )
    for text, case in ((chain3_partition_text, chain3_case),
                       (ring5_partition_text, ring5_case)):
        part = caseio.parse_partition(text, case)
        again = caseio.parse_partition(caseio.serialize_partition(part), case)
        round_trips = round_trips and again.assignment == part.assignment
    ok = crashes == 0 and total == 10000 and round_trips
    report(8, ok, f"{total} fuzz inputs, {crashes} crashes; fixture round trips: {round_trips}")


def test_criterion_09_determinism(tmp_path):
    config = """
problem = toy_consensus
targets = 0, 1, 2
mode = async
rho = 5.0
p = 0.1
seed = 99
tol = 1e-3
max_local_iters = 600
compute_delay = lognormal:0.0,0.5
link_delay = uniform:0.0,0.6
"""
    paths = []
    for name in ("one", "two"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config + f"outdir = {tmp_path / name}\n")
        assert main(["run", str(cfg)]) == 0
        paths.append(tmp_path / name / "trace.log")
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(9, identical, f"two seeded runs produced byte-identical traces: {identical}")


def test_criterion_10_time_accounting():
    problem = make_toy_consensus([0.0, 1.0, 2.0, 3.0])
    slow = DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.1),
                      compute_overrides={1: DelaySpec.constant(10.0)}, seed=3)
    sync_run = run(problem, AdmmParams(rho=5.0, p=1.0), slow,
                   StoppingRule(tol=1e-4, max_local_iters=400))
    async_run = run(problem, AdmmParams(rho=5.0, p=0.1), slow,
                    StoppingRule(tol=1e-4, max_local_iters=400))
    wf_sync, wf_async = (
        sum(t["wait_fraction"] for t in timing_from_trace(
            assign_global_iterations(index_of(trace))).values()) / 4
        for trace in (sync_run.trace, async_run.trace))
    ok = sync_run.converged and async_run.converged and wf_sync > wf_async
    report(10, ok, f"average wait fraction: lockstep {wf_sync:.3f} > "
                   f"threshold-0.1 {wf_async:.3f}")
