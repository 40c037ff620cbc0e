import json
import math

import numpy as np
import pytest

from asyncadmm import caseio
from asyncadmm.analysis import (
    DiagnosticConstants,
    GlobalIterationAssignment,
    TraceError,
    TraceIndex,
    analyze_trace,
    assign_global_iterations,
    check_kkt,
    check_lambda_bound,
    check_staleness_bound,
    measure_omega,
    objective_gap,
    parameter_bounds,
    slot_snapshots,
    verify_slicing_rules,
    verify_trace_wellformed,
)
from asyncadmm.cli import main
from asyncadmm.engine import DelayModel, DelaySpec, EventTrace, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.problem import make_toy_consensus

import reference_analysis as reference
from conftest import (
    STAGGERED_BOUNDARIES,
    STAGGERED_MEMBERSHIP,
    STAGGERED_OMEGA,
    event,
    index_of,
    membership,
    staggered_trace,
)


def lockstep_run(targets=(0.0, 2.0, 1.0), iters=200, tol=1e-6):
    problem = make_toy_consensus(list(targets))
    delays = DelayModel(compute=DelaySpec.constant(1.0),
                        link=DelaySpec.constant(0.0), seed=0)
    return problem, run(problem, AdmmParams(rho=5.0, p=1.0), delays,
                        StoppingRule(tol=tol, max_local_iters=iters))


def async_run(targets=(0.0, 2.0), seed=42, tol=1e-4, p=0.1, rho=5.0):
    problem = make_toy_consensus(list(targets))
    delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.6),
                        link=DelaySpec.lognormal(-0.5, 0.4), seed=seed)
    return problem, run(problem, AdmmParams(rho=rho, p=p), delays,
                        StoppingRule(tol=tol, max_local_iters=1000))


def staleness(trace: EventTrace) -> dict:
    """The ``staleness_bound`` section of ``trace``."""
    index = index_of(trace)
    a = assign_global_iterations(index)
    return check_staleness_bound(a, slot_snapshots(index, a), measure_omega(a))


def lambda_violations(trace: EventTrace, c_const: float, m1: float) -> list[dict]:
    """The multiplier-bound violations of ``trace`` under c and m1."""
    index = index_of(trace)
    a = assign_global_iterations(index)
    return check_lambda_bound(a, slot_snapshots(index, a), c_const, m1)


class TestAssignment:
    def test_lockstep_all_workers_every_slot(self):
        _, res = lockstep_run()
        index = index_of(res.trace)
        a = assign_global_iterations(index)
        members = membership(a)
        for nu in range(1, a.num_slots + 1):
            assert members[nu] == {1, 2, 3}
        assert measure_omega(a) == 1
        assert all(verify_slicing_rules(a, index).values())

    def test_double_finish_forces_boundary(self):
        # one worker finishing twice with nothing in between: the second
        # update must land in a fresh slot
        events = [
            event("compute_start", 1, 0, 0.0),
            event("compute_end", 1, 0, 1.0),
            event("compute_start", 1, 1, 1.0),
            event("compute_end", 1, 1, 2.0),
            event("end", 0, 0, 2.0),
        ]
        trace = EventTrace(meta={"k": 1, "edges": [], "x0": [[0.0]], "z0": []}, events=events)
        a = assign_global_iterations(index_of(trace))
        assert a.boundaries == [0.0, 1.0]
        assert a.finish_slot[0] == 1
        assert a.finish_slot[1] == 2

    def test_staggered_fixture_hand_derivation(self):
        index = index_of(staggered_trace())
        a = assign_global_iterations(index)
        assert a.boundaries == STAGGERED_BOUNDARIES
        got = {nu: membership(a).get(nu, set()) for nu in range(1, a.num_slots + 1)}
        assert got == STAGGERED_MEMBERSHIP
        assert measure_omega(a) == STAGGERED_OMEGA
        assert all(verify_slicing_rules(a, index).values())

    def test_start_slot_strictly_before_finish_slot(self):
        _, res = async_run(targets=(0.0, 1.0, 2.0, 3.0), seed=5)
        a = assign_global_iterations(index_of(res.trace))
        omega = measure_omega(a)
        for start_slot, finish_slot in zip(a.start_slot.tolist(), a.finish_slot.tolist()):
            assert start_slot < finish_slot
            assert start_slot >= max(finish_slot - omega, 0)

    def test_malformed_trace_raises(self):
        events = [event("compute_end", 1, 0, 1.0), event("end", 0, 0, 1.0)]
        trace = EventTrace(meta={"k": 1, "edges": [], "x0": [[0.0]], "z0": []}, events=events)
        with pytest.raises(TraceError):
            assign_global_iterations(index_of(trace))
        with pytest.raises(TraceError, match="no end record"):
            TraceIndex({}, [])

    def test_end_record_is_the_end_time(self):
        # an end record at t = 0 before a compute_end at t = 2: the report's
        # end_time_ms and the slicing's end are both the end record's time
        events = [event("compute_start", 1, 0, 0.0),
                  event("compute_end", 1, 0, 2.0, x=[1.0], lam=[]),
                  event("end", 0, 0, 0.0)]
        trace = EventTrace(meta={"k": 1, "edges": [], "x0": [[0.0]], "z0": []}, events=events)
        index = index_of(trace)
        assert analyze_trace(index)["end_time_ms"] == assign_global_iterations(index).end_time \
            == reference.assign_global_iterations(trace).end_time == 0.0


class TestOmega:
    def assignment_with(self, pattern: dict, num_workers: int, slots: int):
        worker = np.array([k for k, present in pattern.items() for _ in present], dtype=np.int64)
        finish_slot = np.array([nu for present in pattern.values() for nu in present],
                               dtype=np.int64)
        zeros, no_receives = np.zeros(len(worker)), (np.empty(0), np.empty(0))
        return GlobalIterationAssignment(
            boundaries=[float(i) for i in range(slots)], end_time=float(slots),
            num_workers=num_workers, worker=worker, cycle=zeros.astype(np.int64),
            start_t=zeros, end_t=zeros, start_slot=finish_slot - 1, finish_slot=finish_slot,
            open_start={}, receives=no_receives,
        )

    def test_lockstep_is_one(self):
        a = self.assignment_with({1: range(1, 8), 2: range(1, 8)}, 2, 7)
        assert measure_omega(a) == 1

    def test_every_third_slot_gives_three(self):
        a = self.assignment_with({1: [1, 4, 7], 2: range(1, 8)}, 2, 7)
        assert measure_omega(a) == 3

    def test_monotone_when_updates_removed(self):
        base = {1: [1, 4, 7], 2: list(range(1, 8))}
        slower = {1: [1, 7], 2: list(range(1, 8))}
        a = self.assignment_with(base, 2, 7)
        b = self.assignment_with(slower, 2, 7)
        assert measure_omega(b) >= measure_omega(a)


class TestParameterBounds:
    def test_unit_constants_exact(self):
        consts = DiagnosticConstants(gamma=1.0, m1=1.0, m2=1.0, c=1.0, omega=1)
        bounds = parameter_bounds(consts, 5.0)
        assert bounds["rho_min"] == 2.0 + math.sqrt(8.0)
        assert bounds["alpha_min"] == -5.0

    def test_hand_computed_alpha(self):
        consts = DiagnosticConstants(gamma=1.0, m1=1.0, m2=1.0, c=1.0, omega=3)
        assert parameter_bounds(consts, 5.0)["alpha_min"] == 17.0

    def test_omega_one_admits_zero_alpha(self):
        consts = DiagnosticConstants(gamma=2.0, m1=3.0, m2=1.5, c=1.0, omega=1)
        assert parameter_bounds(consts, 7.0)["alpha_min"] == -7.0

    @pytest.mark.parametrize("field", ["gamma", "m1", "m2", "c"])
    def test_rho_min_monotone_in_each_constant(self, field):
        base = {"gamma": 1.0, "m1": 1.0, "m2": 1.0, "c": 1.0}
        values = []
        for v in np.linspace(1.0, 4.0, 10):
            kw = dict(base)
            kw[field] = float(v)
            values.append(parameter_bounds(DiagnosticConstants(**kw, omega=1), 1.0)["rho_min"])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            DiagnosticConstants(gamma=-1.0, m1=1.0, m2=1.0, c=1.0)
        with pytest.raises(ValueError):
            DiagnosticConstants(gamma=1.0, m1=1.0, m2=0.5, c=1.0)
        with pytest.raises(ValueError):
            DiagnosticConstants(gamma=1.0, m1=1.0, m2=1.0, c=1.0, omega=0)


class TestKkt:
    def toy_optimum(self):
        problem = make_toy_consensus([0.0, 2.0])
        x = [np.array([1.0]), np.array([1.0])]
        lam = [np.array([-2.0]), np.array([2.0])]  # -grad f_k at the optimum
        z = np.array([1.0])
        return problem, x, z, lam

    def test_closed_form_optimum_passes(self):
        problem, x, z, lam = self.toy_optimum()
        report = check_kkt(problem, x, z, lam, tol=1e-8)
        assert report["passed"]
        assert max(report["stationarity"]) < 1e-12

    def test_perturbed_multiplier_shifts_consistency_exactly(self):
        problem, x, z, lam = self.toy_optimum()
        delta = 0.037
        lam[0] = lam[0] + delta
        report = check_kkt(problem, x, z, lam, tol=1e-8)
        assert max(report["multiplier_consistency"]) == pytest.approx(delta, abs=1e-15)

    def test_converged_run_primal_within_tolerance(self):
        problem, res = lockstep_run(tol=1e-3)
        assert res.converged
        report = check_kkt(problem, [s.x for s in res.states], res.z,
                           [s.lam for s in res.states], tol=1e-3)
        assert max(report["primal"]) <= 1e-3


class TestStalenessBound:
    def test_lockstep_sides_vanish(self):
        _, res = lockstep_run()
        rep = staleness(res.trace)
        assert rep["omega"] == 1
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-15)
        assert rep["holds"]

    def test_async_fixtures_hold(self):
        for seed in (1, 2, 3, 4, 5):
            _, res = async_run(targets=(0.0, 1.0, 2.0, 3.0), seed=seed)
            rep = staleness(res.trace)
            assert rep["holds"], f"seed {seed}: {rep}"

    def test_scaling_z_payloads_is_homogeneous(self):
        _, res = async_run(seed=9)
        base = staleness(res.trace)
        scaled_events = []
        for ev in res.trace.events:
            payload = dict(ev.payload)
            if ev.kind == "z_update":
                payload["z"] = [2.0 * v for v in payload["z"]]
            scaled_events.append(type(ev)(ev.kind, ev.worker, ev.local_iter,
                                          ev.time, payload))
        meta = dict(res.trace.meta)
        meta["z0"] = [2.0 * v for v in meta["z0"]]
        scaled = EventTrace(meta=meta, events=scaled_events)
        rep = staleness(scaled)
        assert rep["lhs"] == pytest.approx(4.0 * base["lhs"], rel=1e-12)
        assert rep["rhs_stated"] == pytest.approx(4.0 * base["rhs_stated"], rel=1e-12)
        assert rep["holds"] == base["holds"]


class TestLambdaBound:
    def test_quadratic_toy_analytic_constants_clean(self):
        for seed in (11, 12, 13):
            _, res = async_run(seed=seed)
            assert lambda_violations(res.trace, c_const=1.0, m1=2.0) == []

    def test_idle_slots_trivially_satisfied(self):
        # workers outside an updater set move neither x nor lambda, so both
        # sides of the bound are zero; verified through the snapshots
        _, res = async_run(targets=(0.0, 1.0, 2.0, 3.0), seed=8)
        index = index_of(res.trace)
        a = assign_global_iterations(index)
        snap = slot_snapshots(index, a)
        members = membership(a)
        for nu in range(1, a.num_slots):
            for k in range(1, 5):
                seen = snap.seen[k]
                if k not in members.get(nu, set()) and seen[nu] > 0:
                    dx = snap.x[k][seen[nu + 1]] - snap.x[k][seen[nu]]
                    dl = snap.lam[k][seen[nu + 1]] - snap.lam[k][seen[nu]]
                    updated_later = bool(np.any((a.worker == k) & (a.finish_slot == nu + 1)))
                    if not updated_later:
                        assert float(dx @ dx) == 0.0
                        assert float(dl @ dl) == 0.0

    def test_understated_constant_reports_violations(self):
        _, res = async_run(seed=14)
        violations = lambda_violations(res.trace, c_const=1.0, m1=0.01)
        assert len(violations) > 0  # diagnostic only: reported, not raised


class TestObjectiveGap:
    def test_equal_objectives(self):
        assert objective_gap(3.0, 3.0)["gap_percent"] == 0.0

    def test_hand_arithmetic(self):
        assert objective_gap(100.05, 100.0)["gap_percent"] == pytest.approx(0.05)

    def test_reference_scale_points(self):
        # representative quality levels for a 30-bus system: 0.005 and
        # 0.025 percent
        f_cent = 8906.14
        assert objective_gap(f_cent * (1 + 5e-5), f_cent)["gap_percent"] == pytest.approx(0.005)
        assert objective_gap(f_cent * (1 - 2.5e-4), f_cent)["gap_percent"] == pytest.approx(0.025)

    def test_zero_baseline_reports_absolute(self):
        gap = objective_gap(0.3, 0.0)
        assert gap["gap_percent"] is None
        assert gap["gap_absolute"] == pytest.approx(0.3)


class TestAggregateReport:
    def test_full_report_on_async_trace(self):
        problem, res = async_run(seed=21)
        consts = DiagnosticConstants(gamma=2.0, m1=2.0, m2=1.0, c=1.0)
        report = analyze_trace(index_of(res.trace), problem=problem, constants=consts)
        assert report["omega"] >= 1
        assert report["staleness_bound"]["holds"]
        assert report["lambda_bound"]["num_violations"] == 0
        assert report["kkt"]["primal"]
        assert all(report["wellformed"].values())
        assert all(report["global_iterations"]["rules"].values())
        import json

        json.dumps(report)  # must be serialisable as emitted

    def test_wellformed_detects_dangling_receive(self):
        events = [
            event("compute_start", 1, 0, 0.0),
            event("compute_end", 1, 0, 1.0),
            event("receive", 1, 0, 1.5, frm=2),
            event("end", 0, 0, 2.0),
        ]
        trace = EventTrace(meta={"k": 1, "edges": [], "x0": [[0.0]], "z0": []}, events=events)
        checks = verify_trace_wellformed(index_of(trace))
        assert not checks["receives_match_sends"]

    # each fault in a message's identity, and the check that must report it
    @pytest.mark.parametrize("fault, check", [
        ("receive-without-send", "receives_match_sends"),
        ("arrival-before-send", "arrivals_after_sends"),
        ("second-send", "receives_match_sends"),
        ("receive-at-another-worker", "receives_match_sends"),
    ])
    def test_wellformed_matches_messages_by_identity(self, tmp_path, fault, check):
        _, res = async_run(seed=21)
        events = res.trace.events
        r = next(i for i, ev in enumerate(events) if ev.kind == "receive")
        receive, p = events[r], events[r].payload
        s = next(i for i, ev in enumerate(events[:r]) if ev.kind == "send"
                 and (ev.worker, ev.payload["edge"], ev.payload["sender_iter"])
                 == (p["from"], p["edge"], p["sender_iter"]))
        if fault == "receive-without-send":
            del events[s]
        elif fault == "arrival-before-send":
            events[r] = receive._replace(time=events[s].time / 2)
        elif fault == "second-send":
            events.insert(s + 1, events[s])
        else:
            events[r] = receive._replace(worker=p["from"])
        checks = verify_trace_wellformed(index_of(res.trace))
        assert checks[check] is False
        # the same verdicts from analyze on the written trace
        path = tmp_path / "trace.log"
        caseio.write_trace(res.trace, path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["wellformed"] == checks
