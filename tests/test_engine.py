
import numpy as np
import pytest

from asyncadmm.analysis import timing_from_trace
from asyncadmm.engine import (
    DelayModel,
    DelaySpec,
    EngineAbort,
    StoppingRule,
    ready_to_update,
    run,
)
from asyncadmm.kernel import AdmmParams
from asyncadmm.problem import PartitionedProblem, RegionSpec, make_toy_consensus

from conftest import events_of
from oracles import run_sync_reference

ZERO_LINK = DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.0), seed=0)


class TestDelaySpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            DelaySpec("constant", (-1.0,))
        with pytest.raises(ValueError):
            DelaySpec("uniform", (2.0, 1.0))
        with pytest.raises(ValueError):
            DelaySpec("warp", (1.0,))

    def test_same_seed_same_stream(self):
        spec = DelaySpec.lognormal(0.0, 0.7)
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        assert [spec.sample(a) for _ in range(5)] == [spec.sample(b) for _ in range(5)]


class TestReadyToUpdate:
    def test_synchronous_needs_all(self):
        assert not ready_to_update(3, 2, p=1.0)
        assert ready_to_update(3, 3, p=1.0)

    def test_worst_case_needs_one(self):
        assert ready_to_update(3, 1, p=0.1)
        assert not ready_to_update(3, 0, p=0.1)

    def test_ceiling_arithmetic(self):
        assert ready_to_update(4, 2, p=0.5)
        assert not ready_to_update(4, 1, p=0.5)

    def test_never_zero_arrivals(self):
        # even tiny p requires one neighbour when neighbours exist
        assert not ready_to_update(10, 0, p=0.01)


class TestSyncEquivalence:
    @pytest.mark.parametrize("alpha,tol", [(0.0, 0.0), (0.3, 1e-12)])
    def test_lockstep_matches_reference(self, alpha, tol):
        # without the proximal pull the consensus update is independent of
        # its centre and both drivers agree bitwise; with it, the average
        # initialisation aligns the phases up to rounding of the shared
        # fixed-point identity
        problem = make_toy_consensus([0.0, 2.0, -1.0])
        params = AdmmParams(rho=5.0, p=1.0, alpha=alpha)
        ref = run_sync_reference(problem, params, tol=0.0, max_iters=60)
        res = run(problem, params, ZERO_LINK, StoppingRule(tol=1e-15, max_local_iters=60))
        starts = events_of(res.trace, "compute_start")
        ends = events_of(res.trace, "compute_end")
        for k in range(1, 4):
            zs = [e.payload["z"] for e in starts if e.worker == k]
            xs = [e.payload["x"] for e in ends if e.worker == k]
            lams = [e.payload["lam"] for e in ends if e.worker == k]
            n = min(len(ref.iterates), len(xs))
            assert n >= 50
            for i in range(n):
                assert xs[i] == pytest.approx(list(ref.iterates[i].x[k - 1]), abs=tol)
                assert lams[i] == pytest.approx(list(ref.iterates[i].lam[k - 1]), abs=tol)
                z_ref = problem.region_z(ref.iterates[i].z, k)
                assert zs[i] == pytest.approx(list(z_ref), abs=tol)

    def test_single_region_solves_in_one_step(self):
        region = RegionSpec(
            dim_x=1,
            objective=lambda x: float((x[0] - 3.0) ** 2),
            gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
            boundary_map=np.zeros((0, 1)),
            lower=np.array([-10.0]),
            upper=np.array([10.0]),
            hessian_diag=lambda x: np.array([2.0]),
        )
        problem = PartitionedProblem(regions=(region,), edges=())
        ref = run_sync_reference(problem, AdmmParams(rho=1.0), tol=1e-6, max_iters=5)
        assert ref.converged and ref.iterations == 1
        assert ref.iterates[0].x[0][0] == pytest.approx(3.0, abs=1e-6)
        res = run(problem, AdmmParams(rho=1.0, p=0.5), ZERO_LINK,
                  StoppingRule(tol=1e-6, max_local_iters=5))
        assert res.converged and res.states[0].local_iter == 1

    def test_reference_convergence_pin(self):
        # regression pin from the first converged run of this fixture
        problem = make_toy_consensus([0.0, 2.0])
        ref = run_sync_reference(problem, AdmmParams(rho=5.0), tol=1e-6, max_iters=300)
        assert ref.converged
        assert ref.iterations == 38
        assert ref.iterates[-1].residue <= 1e-6

    def test_residue_nonincreasing_after_transient(self):
        # empirical pin from the oracle run: monotone decrease from the
        # second iteration until the sequence reaches rounding noise
        problem = make_toy_consensus([0.0, 2.0])
        ref = run_sync_reference(problem, AdmmParams(rho=5.0), tol=1e-8, max_iters=400)
        residues = [it.residue for it in ref.iterates if it.residue > 1e-6]
        tail = residues[2:]
        assert len(tail) > 20
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


class TestAsyncRuns:
    def test_worst_case_toy_converges(self):
        problem = make_toy_consensus([0.0, 2.0])
        delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.5),
                            link=DelaySpec.lognormal(-1.0, 0.3), seed=7)
        res = run(problem, AdmmParams(rho=5.0, alpha=0.0, p=0.1), delays,
                  StoppingRule(tol=2e-4, max_local_iters=2000))
        assert res.converged
        assert res.max_residue() <= 1e-3
        for s in res.states:
            assert abs(s.x[0] - 1.0) <= 1e-3

    def test_deterministic_trace(self):
        problem = make_toy_consensus([0.0, 1.0, 2.0])
        delays = DelayModel(compute=DelaySpec.uniform(0.5, 2.0),
                            link=DelaySpec.lognormal(-1.0, 0.5), seed=13)
        a = run(problem, AdmmParams(rho=5.0, p=0.1), delays,
                StoppingRule(tol=1e-3, max_local_iters=500))
        b = run(problem, AdmmParams(rho=5.0, p=0.1), delays,
                StoppingRule(tol=1e-3, max_local_iters=500))
        assert len(a.trace.events) == len(b.trace.events)
        for e1, e2 in zip(a.trace.events, b.trace.events):
            assert (e1.kind, e1.worker, e1.local_iter, e1.time, e1.payload) == \
                (e2.kind, e2.worker, e2.local_iter, e2.time, e2.payload)

    def test_caps_flag_not_converged(self):
        problem = make_toy_consensus([0.0, 2.0])
        res = run(problem, AdmmParams(rho=5.0, p=1.0), ZERO_LINK,
                  StoppingRule(tol=1e-12, max_local_iters=5))
        assert not res.converged and res.status == "iteration_cap"
        timed = run(problem, AdmmParams(rho=5.0, p=1.0), ZERO_LINK,
                    StoppingRule(tol=1e-12, max_local_iters=10**6, time_cap_ms=7.0))
        assert timed.status == "time_cap"
        assert timed.end_time == 7.0
        # a cap that falls inside a compute ends the run at the cap, and the
        # open compute counts up to it: these workers never wait
        mid = run(problem, AdmmParams(rho=5.0, p=1.0), ZERO_LINK,
                  StoppingRule(tol=1e-12, max_local_iters=10**6, time_cap_ms=7.5))
        assert mid.status == "time_cap" and mid.end_time == 7.5
        assert mid.trace.events[-1].time == 7.5
        for row in timing_from_trace(mid.trace).values():
            assert row["compute_ms"] == 7.5 and row["wait_ms"] == 0.0

    def test_solver_failure_aborts_with_partial_trace(self):
        bad = RegionSpec(
            dim_x=1,
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0]]),
            boundary_map=np.ones((1, 1)),
            lower=np.array([0.0]),
            upper=np.array([1.0]),
            equality=lambda x: np.array([x[0] - 5.0]),  # unreachable in the box
            equality_jacobian=lambda x: np.array([[1.0]]),
            eq_dim=1,
        )
        good = make_toy_consensus([0.0, 2.0]).region(2)
        problem = PartitionedProblem(
            regions=(bad, good),
            edges=make_toy_consensus([0.0, 2.0]).edges,
        )
        with pytest.raises(EngineAbort) as err:
            run(problem, AdmmParams(rho=1.0), ZERO_LINK,
                StoppingRule(tol=1e-3, max_local_iters=10))
        assert err.value.trace.status == "aborted"
        assert any(e.kind == "compute_start" for e in err.value.trace.events)
        # the partial trace is closed and stays machine-readable
        assert err.value.trace.events[-1].kind == "end"


class TestTraceInvariants:
    def run_async(self, seed=21):
        problem = make_toy_consensus([0.0, 1.0, 2.0, 3.0])
        delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.7),
                            link=DelaySpec.uniform(0.0, 2.0), seed=seed)
        return problem, run(problem, AdmmParams(rho=5.0, p=0.1), delays,
                            StoppingRule(tol=5e-4, max_local_iters=800))

    def test_receives_match_sends(self):
        _, res = self.run_async()
        sends = {}  # by (sender, edge, sender_iter)
        for ev in res.trace.events:
            if ev.kind == "send":
                key = (ev.worker, ev.payload["edge"], ev.payload["sender_iter"])
                assert key not in sends
                sends[key] = ev
            elif ev.kind == "receive":
                p = ev.payload
                src = sends.get((p["from"], p["edge"], p["sender_iter"]))
                assert src is not None
                assert src.time <= ev.time
                assert src.payload["to"] == ev.worker
                assert src.payload["sender_iter"] == ev.payload["sender_iter"]

    def test_no_update_without_an_arrival(self):
        # every cycle after the first is closed by at least one consensus
        # update fed by a neighbour's message
        _, res = self.run_async()
        z_updates = {(e.worker, e.local_iter) for e in events_of(res.trace, "z_update")}
        for ev in events_of(res.trace, "compute_start"):
            if ev.local_iter >= 1:
                assert (ev.worker, ev.local_iter - 1) in z_updates

    def test_consumed_messages_never_stale(self):
        # per worker and edge, the producer iteration of consumed messages
        # strictly increases
        _, res = self.run_async()
        last: dict = {}
        for ev in events_of(res.trace, "z_update"):
            key = (ev.worker, ev.payload["edge"])
            if key in last:
                assert ev.payload["sender_iter"] > last[key]
            last[key] = ev.payload["sender_iter"]

    def test_compute_events_alternate(self):
        _, res = self.run_async()
        state: dict = {}
        for ev in res.trace.events:
            if ev.kind == "compute_start":
                assert state.get(ev.worker) in (None, "idle")
                state[ev.worker] = "busy"
            elif ev.kind == "compute_end":
                assert state.get(ev.worker) == "busy"
                state[ev.worker] = "idle"

    def test_shared_blocks_agree_across_region_views(self):
        # each edge block is stored once: assembling either endpoint's
        # boundary vector from the store yields bitwise-identical values,
        # so the agreement constraint holds by construction
        problem, res = self.run_async()
        for i, e in enumerate(problem.edges):
            z_k = problem.region_z(res.z, e.k)[e.block_of(e.k)]
            z_l = problem.region_z(res.z, e.l)[e.block_of(e.l)]
            assert np.array_equal(z_k, z_l)
            assert np.array_equal(z_k, res.z[problem.edge_slice(i)])


class TestTimeAccounting:
    def test_slow_worker_waits_more_in_lockstep(self):
        problem = make_toy_consensus([0.0, 1.0, 2.0, 3.0])
        slow = DelayModel(
            compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.1),
            compute_overrides={1: DelaySpec.constant(10.0)}, seed=3,
        )
        sync_run = run(problem, AdmmParams(rho=5.0, p=1.0), slow,
                       StoppingRule(tol=1e-4, max_local_iters=400))
        async_run = run(problem, AdmmParams(rho=5.0, p=0.1), slow,
                        StoppingRule(tol=1e-4, max_local_iters=400))
        assert sync_run.converged and async_run.converged
        sync_timing = timing_from_trace(sync_run.trace)
        wf_sync = sum(t["wait_fraction"] for t in sync_timing.values()) / 4
        wf_async = sum(t["wait_fraction"] for t in timing_from_trace(async_run.trace).values()) / 4
        assert wf_sync > wf_async
        # the fast workers idle most of each lockstep round
        fast_waits = [sync_timing[k]["wait_fraction"] for k in (2, 3, 4)]
        assert min(fast_waits) > 0.5

    def test_timeline_split_covers_run(self):
        problem = make_toy_consensus([0.0, 2.0])
        res = run(problem, AdmmParams(rho=5.0, p=1.0), ZERO_LINK,
                  StoppingRule(tol=1e-3, max_local_iters=100))
        for t in timing_from_trace(res.trace).values():
            assert t["compute_ms"] + t["wait_ms"] == pytest.approx(res.end_time, abs=1e-9)
        # iteration-capped chain 1-2-3 with a slow end worker: workers 1 and
        # 2 reach the cap of 10 one-millisecond cycles at t = 10; worker 3's
        # fourth four-millisecond cycle ends the run at t = 16 with no fresh
        # message left. The idle tail after a cap counts as waiting.
        slow_end = DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.0),
                              compute_overrides={3: DelaySpec.constant(4.0)}, seed=0)
        res = run(make_toy_consensus([0.0, 1.0, 2.0]), AdmmParams(rho=5.0, p=0.1), slow_end,
                  StoppingRule(tol=1e-12, max_local_iters=10))
        assert (res.status, res.end_time) == ("iteration_cap", 16.0)
        split = {k: (t["compute_ms"], t["wait_ms"])
                 for k, t in timing_from_trace(res.trace).items()}
        assert split == {1: (10.0, 6.0), 2: (10.0, 6.0), 3: (16.0, 0.0)}
