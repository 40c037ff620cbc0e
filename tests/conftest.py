from pathlib import Path

import numpy as np
import pytest

from asyncadmm import analysis, caseio, cli
from asyncadmm.engine import (
    DelayModel,
    DelaySpec,
    EngineAbort,
    EventTrace,
    StoppingRule,
    TraceEvent,
    run,
)
from asyncadmm.kernel import AdmmParams
from asyncadmm.problem import PartitionedProblem, RegionSpec, make_toy_consensus

import reference_analysis as reference

CASES_DIR = Path(__file__).resolve().parent.parent / "cases"

# the benchmark's 16-region toy chain (about 3,200 cycles, 22,909 events):
# the only pinned trace on the many-region, long-run path of the simulator
TOY_CHAIN16_CONFIG = """
problem = toy_consensus
targets = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
mode = async
rho = 5
p = 0.5
seed = 7
tol = 1e-6
compute_delay = lognormal:0.0,0.5
link_delay = lognormal:-1.5,0.3
"""

# the double-well toy: the only pinned run whose objective curvature depends
# on x and whose box bounds are finite, so that a cached Newton model or
# cached inward bounds that went stale would show
NONCONVEX_CONFIG = """
problem = nonconvex_toy
mode = async
rho = 500
p = 0.1
seed = 3
tol = 1e-4
compute_delay = lognormal:0.0,0.5
link_delay = lognormal:-1.5,0.3
"""
# the toy chain with link delays spread over 0-5 ms, far wider than a compute:
# messages on an edge overtake each other, and a message older than one
# already taken on its edge is dropped (2,285 of its receives)
OVERTAKING_CONFIG = TOY_CHAIN16_CONFIG.replace("link_delay = lognormal:-1.5,0.3",
                                               "link_delay = uniform:0.0,5.0")
WRITTEN_CONFIGS = {"toy_chain16": TOY_CHAIN16_CONFIG, "nonconvex": NONCONVEX_CONFIG,
                   "toy_chain16_overtaking": OVERTAKING_CONFIG}


def config_path(name: str, tmp_path: Path) -> Path:
    """The shipped ``cases/<name>.cfg``, or the config ``name`` of
    :data:`WRITTEN_CONFIGS` written into ``tmp_path``."""
    if name not in WRITTEN_CONFIGS:
        return CASES_DIR / f"{name}.cfg"
    path = tmp_path / f"{name}.cfg"
    path.write_text(WRITTEN_CONFIGS[name])
    return path


# the runs whose trace and diagnostics hashes test_shipped_trace_hashes pins
PINNED_CONFIGS = ("toy_sync", "ring5_async", "nine_sync", "toy_chain16", "nine_sync_warm",
                  "nonconvex", "toy_chain16_overtaking")


def run_pinned(name: str, tmp_path: Path) -> Path:
    """The output directory ``tmp_path / "out"`` of one ``run`` of a pinned
    config with the baseline off (nine_sync_warm: nine_sync from a warm
    start)."""
    warm = name == "nine_sync_warm"
    cfg = CASES_DIR / "nine_sync.cfg" if warm else config_path(name, tmp_path)
    extra = ["--set", "start=warm"] if warm else []
    assert cli.main(["run", str(cfg), "--set", f"outdir={tmp_path / 'out'}",
                     "--set", "baseline=false", *extra]) == 0
    return tmp_path / "out"


@pytest.fixture(scope="session")
def pinned_run(tmp_path_factory):
    """A function from a pinned config's name to the output directory of
    :func:`run_pinned`, made once per session."""
    outdirs = {}

    def outdir(name: str) -> Path:
        if name not in outdirs:
            outdirs[name] = run_pinned(name, tmp_path_factory.mktemp(name))
        return outdirs[name]

    return outdir


@pytest.fixture(scope="session")
def chain3_text() -> str:
    return (CASES_DIR / "chain3.case").read_text()


@pytest.fixture(scope="session")
def chain3_partition_text() -> str:
    return (CASES_DIR / "chain3.part").read_text()


@pytest.fixture(scope="session")
def ring5_text() -> str:
    return (CASES_DIR / "ring5.case").read_text()


@pytest.fixture(scope="session")
def ring5_partition_text() -> str:
    return (CASES_DIR / "ring5.part").read_text()


@pytest.fixture(scope="session")
def chain3_case(chain3_text):
    return caseio.parse_case(chain3_text)


@pytest.fixture(scope="session")
def ring5_case(ring5_text):
    return caseio.parse_case(ring5_text)


def event(kind, worker, local_iter, time, **payload) -> TraceEvent:
    return TraceEvent(kind, worker, local_iter, float(time), payload)


def index_of(trace: EventTrace) -> analysis.TraceIndex:
    """The analysis index of an in-memory trace, as ``run`` builds it."""
    return analysis.TraceIndex(trace.meta, trace.events)


def events_of(trace: EventTrace, kind: str) -> list[TraceEvent]:
    """The events of one kind, in trace order."""
    return [e for e in trace.events if e.kind == kind]


def staggered_trace() -> EventTrace:
    """Three fully-connected workers with staggered compute times (2, 3 and
    5 ms) and 0.5 ms links, traced for 10 ms.

    The slicing was derived by hand for this exact event sequence:
    boundaries at 0, 5, 6 and 9; updater sets {1,2,3}, {1,2}, {1,2}, {1,3};
    delay window 3 (worker 3 starts its second update in slot 1 and finishes
    it in slot 4).
    """
    events = [
        event("compute_start", 1, 0, 0.0), event("compute_start", 2, 0, 0.0),
        event("compute_start", 3, 0, 0.0),
        event("compute_end", 1, 0, 2.0),
        event("send", 1, 0, 2.0, to=2), event("send", 1, 0, 2.0, to=3),
        event("receive", 2, 0, 2.5, frm=1), event("receive", 3, 0, 2.5, frm=1),
        event("compute_end", 2, 0, 3.0),
        event("send", 2, 0, 3.0, to=1), event("send", 2, 0, 3.0, to=3),
        event("compute_start", 2, 1, 3.0),
        event("receive", 1, 0, 3.5, frm=2), event("compute_start", 1, 1, 3.5),
        event("receive", 3, 0, 3.5, frm=2),
        event("compute_end", 3, 0, 5.0),
        event("send", 3, 0, 5.0, to=1), event("send", 3, 0, 5.0, to=2),
        event("compute_start", 3, 1, 5.0),
        event("compute_end", 1, 1, 5.5),
        event("send", 1, 1, 5.5, to=2), event("send", 1, 1, 5.5, to=3),
        event("receive", 1, 1, 5.5, frm=3), event("compute_start", 1, 2, 5.5),
        event("receive", 2, 1, 5.5, frm=3),
        event("compute_end", 2, 1, 6.0),
        event("send", 2, 1, 6.0, to=1), event("send", 2, 1, 6.0, to=3),
        event("compute_start", 2, 2, 6.0),
        event("receive", 2, 2, 6.0, frm=1), event("receive", 3, 1, 6.0, frm=1),
        event("receive", 1, 2, 6.5, frm=2), event("receive", 3, 1, 6.5, frm=2),
        event("compute_end", 1, 2, 7.5),
        event("send", 1, 2, 7.5, to=2), event("send", 1, 2, 7.5, to=3),
        event("compute_start", 1, 3, 7.5),
        event("receive", 2, 2, 8.0, frm=1), event("receive", 3, 1, 8.0, frm=1),
        event("compute_end", 2, 2, 9.0),
        event("send", 2, 2, 9.0, to=1), event("send", 2, 2, 9.0, to=3),
        event("compute_start", 2, 3, 9.0),
        event("compute_end", 1, 3, 9.5),
        event("receive", 1, 3, 9.5, frm=2), event("compute_start", 1, 4, 9.5),
        event("compute_end", 3, 1, 10.0), event("end", 0, 0, 10.0),
    ]
    return EventTrace(meta={"k": 3, "edges": [], "x0": [[0.0], [0.0], [0.0]], "z0": []},
                      events=events)


STAGGERED_BOUNDARIES = [0.0, 5.0, 6.0, 9.0]
STAGGERED_MEMBERSHIP = {1: {1, 2, 3}, 2: {1, 2}, 3: {1, 2}, 4: {1, 3}}
STAGGERED_OMEGA = 3


def aborted_trace() -> EventTrace:
    """The partial trace of a run whose first local solve fails (region 1's
    equality lies outside its box): both workers' compute_start, then the
    ``end`` record, and no finished update."""
    bad = RegionSpec(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        boundary_map=np.ones((1, 1)),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        equality=lambda x: np.array([x[0] - 5.0]),
        equality_jacobian=lambda x: np.array([[1.0]]),
    )
    toy = make_toy_consensus([0.0, 2.0])
    delays = DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(0.0), seed=0)
    with pytest.raises(EngineAbort) as err:
        run(PartitionedProblem(regions=(bad, toy.region(2)), edges=toy.edges),
            AdmmParams(rho=1.0), delays, StoppingRule(tol=1e-3, max_local_iters=10))
    return err.value.trace


def membership(assignment: analysis.GlobalIterationAssignment) -> dict[int, set]:
    """Slot -> the workers that finish an update in it, for the slots that
    have one, from the assignment's columns."""
    out: dict[int, set] = {}
    for nu, k in zip(assignment.finish_slot.tolist(), assignment.worker.tolist()):
        out.setdefault(nu, set()).add(k)
    return out


def as_records(assignment: analysis.GlobalIterationAssignment
               ) -> reference.GlobalIterationAssignment:
    """The same slicing in the reference's form, one record per update."""
    updates = list(map(reference.UpdateRecord, assignment.worker.tolist(),
                       assignment.cycle.tolist(), assignment.start_t.tolist(),
                       assignment.end_t.tolist(), assignment.start_slot.tolist(),
                       assignment.finish_slot.tolist()))
    return reference.GlobalIterationAssignment(list(assignment.boundaries), assignment.end_time,
                                               assignment.num_workers, updates,
                                               membership(assignment))


def assert_slicing_matches_reference(trace: EventTrace) -> None:
    """The slicing, omega and rule verdicts of ``asyncadmm.analysis`` equal
    those of the quadratic reference implementation on ``trace``."""
    index = index_of(trace)
    new = analysis.assign_global_iterations(index)
    old = reference.assign_global_iterations(trace)
    assert new.boundaries == old.boundaries
    assert new.end_time == old.end_time and new.num_workers == old.num_workers
    assert [(u.worker, u.cycle, u.start_time, u.end_time, u.start_slot, u.finish_slot)
            for u in as_records(new).updates] == \
        [(u.worker, u.cycle, u.start_time, u.end_time, u.start_slot, u.finish_slot)
         for u in old.updates]
    assert membership(new) == old.membership
    assert analysis.membership_sizes(new) == \
        [len(old.membership.get(nu, ())) for nu in range(1, old.num_slots + 1)]
    assert analysis.measure_omega(new) == reference.measure_omega(old)
    assert analysis.verify_slicing_rules(new, index) == \
        reference.verify_slicing_rules(old, trace)


def assert_analysis_matches_reference(trace: EventTrace, c_const: float = 1.0,
                                      m1: float = 2.0) -> None:
    """The slot snapshots, the staleness and multiplier bounds and the
    compute/wait split of ``asyncadmm.analysis`` equal those of the
    event-by-event reference on ``trace``, bit for bit."""
    index = index_of(trace)
    assignment = analysis.assign_global_iterations(index)
    records = as_records(assignment)
    omega = analysis.measure_omega(assignment)
    snap = analysis.slot_snapshots(index, assignment)
    old = reference.slot_snapshots(trace, records)
    z_at, x_at, lam_at = old
    for phi in range(1, assignment.num_slots + 2):
        assert snap.z[phi].tobytes() == z_at[phi].tobytes()
        for k, seen in snap.seen.items():
            assert snap.x[k][seen[phi]].tobytes() == x_at[phi][k].tobytes()
            assert (seen[phi] == 0) == (lam_at[phi][k] is None)
            if seen[phi]:
                assert snap.lam[k][seen[phi]].tobytes() == lam_at[phi][k].tobytes()

    def exact(value):
        return value.hex() if isinstance(value, float) else value

    def row(section: dict) -> dict:
        return {name: exact(value) for name, value in section.items()}

    def split(timing) -> dict:
        return {k: row(section) for k, section in timing.items()}

    assert row(analysis.check_staleness_bound(assignment, snap, omega)) == \
        row(reference.check_staleness_bound(trace, records, old, omega))
    assert list(map(row, analysis.check_lambda_bound(assignment, snap, c_const, m1))) == \
        list(map(row, reference.check_lambda_bound(trace, records, c_const, m1, old)))
    assert split(analysis.timing_from_trace(assignment)) == \
        split(reference.timing_from_trace(trace))
