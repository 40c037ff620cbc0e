"""Post-hoc diagnostics over execution traces.

Reconstructs a global iteration counter from the event log, measures the
delay window omega, evaluates KKT residuals of a solution, checks the
provable trace inequalities (the consensus-staleness bound and the
multiplier-difference bound), computes admissible parameter lower bounds,
and the objective gap against a centralized baseline.

Global iterations slice the virtual timeline into slots (t_nu, t_nu+1] such
that boundaries fall on x-update start times, the slots are as long as
possible, no worker finishes two x-updates inside one slot, no worker
receives new information inside the slot that contains its update's start
(after that start), and every update spans a boundary. The last constraint
is an addition to the first four: without it a maximal slicing can place an
update's start and finish in one slot, which would break the guarantee
nu_bar < nu that the delay-window bookkeeping relies on.

The maximal slicing is built greedily in one sweep over the sorted start
times, with every rule reduced to (key, time) pairs under a suffix minimum;
omega is the largest gap between a worker's appearance slots and the rules
are checked by bisection, so the analysis costs O(E log E) for E events.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .engine import EventTrace, TraceEvent
from .problem import Array, PartitionedProblem


class TraceError(ValueError):
    """The trace is structurally unusable for analysis."""


# --------------------------------------------------------------------------
# global iteration reconstruction


@dataclass
class UpdateRecord:
    """One finished x-update: who, which local cycle, when, and the slots
    containing its start (nu_bar) and finish (nu)."""

    worker: int
    cycle: int
    start_time: float
    end_time: float
    start_slot: int = -1
    finish_slot: int = -1


@dataclass
class GlobalIterationAssignment:
    """Slot boundaries, per-slot updater sets, and per-update back-pointers.

    Slot nu (nu >= 1) is (boundaries[nu-1], boundaries[nu]] with the final
    slot closed by the end of the trace; everything at or before
    boundaries[0] belongs to slot 0 (initialization).
    """

    boundaries: list[float]
    end_time: float
    num_workers: int
    updates: list[UpdateRecord]
    membership: dict[int, set] = field(default_factory=dict)
    receives: list[tuple] | None = None  # from _worker_updates; None: re-read the trace

    @property
    def num_slots(self) -> int:
        return len(self.boundaries)

    def slot_of(self, t: float) -> int:
        return bisect_left(self.boundaries, t)

    def members(self, nu: int) -> set:
        return self.membership.get(nu, set())


def _worker_updates(trace: EventTrace) -> tuple[list[UpdateRecord], list[tuple]]:
    """Match compute_start/compute_end pairs per worker and collect receive
    events as (worker, time, position-in-log, governing start time)."""
    open_start: dict[int, TraceEvent] = {}
    last_start_time: dict[int, float] = {}
    updates: list[UpdateRecord] = []
    receives: list[tuple] = []
    for pos, ev in enumerate(trace.events):
        if ev.kind == "compute_start":
            if ev.worker in open_start:
                raise TraceError(
                    f"worker {ev.worker}: compute_start at t={ev.time} while computing"
                )
            open_start[ev.worker] = ev
            last_start_time[ev.worker] = ev.time
        elif ev.kind == "compute_end":
            started = open_start.pop(ev.worker, None)
            if started is None:
                raise TraceError(f"worker {ev.worker}: compute_end without start at t={ev.time}")
            updates.append(UpdateRecord(
                worker=ev.worker, cycle=ev.local_iter,
                start_time=started.time, end_time=ev.time,
            ))
        elif ev.kind == "receive":
            receives.append((ev.worker, ev.time, pos, last_start_time.get(ev.worker)))
    return updates, receives


def _maximal_boundaries(starts: list[float], updates, receives) -> list[float]:
    """The greedy maximal slicing as one sweep over the sorted start times.

    Every rule becomes (key, t): a window (cur, c] with cur < key breaks
    once c >= t. From each boundary, a suffix minimum over the rules sorted
    by key gives the first breaking time T, and the next boundary is the
    last start before T, or the first start after the boundary if none is.
    """
    # an update inside the window must span its left end; keying on
    # min(start, end) keeps this exact for out-of-order timestamps
    rules = [(min(u.start_time, u.end_time), u.end_time) for u in updates]
    # no receive after a start within the start's slot
    rules += [(s, t) for _, t, _, s in receives if s is not None and s < t]
    ends_of: dict[int, list[float]] = {}
    for u in updates:
        ends_of.setdefault(u.worker, []).append(u.end_time)
    for ends in ends_of.values():
        ends.sort()
        rules += zip(ends, ends[1:])  # one finish per worker and slot
    rules.sort()
    keys = [key for key, _ in rules]
    first_break = list(accumulate(reversed([t for _, t in rules]), min, initial=math.inf))
    first_break.reverse()

    boundaries = [starts[0]]
    while True:
        t_break = first_break[bisect_right(keys, boundaries[-1])]
        nxt = bisect_right(starts, boundaries[-1])
        if t_break == math.inf or nxt == len(starts):
            return boundaries
        last = bisect_left(starts, t_break) - 1
        boundaries.append(starts[max(last, nxt)])  # the shortest extension if none fits


def assign_global_iterations(trace: EventTrace) -> GlobalIterationAssignment:
    """Greedy maximal slicing of the trace into global iterations."""
    updates, receives = _worker_updates(trace)
    starts = sorted({e.time for e in trace.events if e.kind == "compute_start"})
    end_time = trace.end_time or max((e.time for e in trace.events), default=0.0)
    workers = sorted({e.worker for e in trace.events if e.kind == "compute_start"})
    if not starts:
        return GlobalIterationAssignment([], end_time, len(workers), [], receives=receives)

    assignment = GlobalIterationAssignment(
        boundaries=_maximal_boundaries(starts, updates, receives), end_time=end_time,
        num_workers=len(workers), updates=updates, receives=receives,
    )
    for u in updates:
        u.start_slot = assignment.slot_of(u.start_time)
        u.finish_slot = assignment.slot_of(u.end_time)
        assignment.membership.setdefault(u.finish_slot, set()).add(u.worker)
    return assignment


def verify_slicing_rules(assignment: GlobalIterationAssignment, trace: EventTrace) -> dict:
    """Machine check of the slicing invariants on a finished assignment:
    boundaries sit on x-update start times, no worker finishes twice in one
    slot, a worker that started an update receives nothing else inside the
    slot holding that start, and every update's start and finish straddle a
    boundary."""
    starts = {e.time for e in trace.events if e.kind == "compute_start"}
    bounds = assignment.boundaries
    finishes = Counter((u.finish_slot, u.worker) for u in assignment.updates
                       if 1 <= u.finish_slot <= assignment.num_slots)
    receives = assignment.receives
    if receives is None:
        receives = _worker_updates(trace)[1]
    # a boundary must separate a start from its worker's later receives; a
    # boundary placed exactly at the start time counts
    after = [*bounds, math.inf]
    quiet_after_start = all(after[bisect_left(bounds, s)] < t_r
                            for _, t_r, _, s in receives if s is not None and s < t_r)
    return {
        "boundaries_on_start_times": all(b in starts for b in bounds),
        "one_finish_per_slot": max(finishes.values(), default=1) <= 1,
        "no_receive_after_start_within_slot": quiet_after_start,
        "updates_span_a_boundary": all(u.start_slot < u.finish_slot
                                       for u in assignment.updates),
    }


def measure_omega(assignment: GlobalIterationAssignment) -> int:
    """Smallest window omega such that every worker appears in every run of
    omega consecutive slots (the initial states count as slot-0 updates for
    all workers): the largest gap between consecutive slots in which one
    worker appears, with slots 0 and S+1 counted as appearances."""
    S = assignment.num_slots
    slots_of: dict[int, list[int]] = {k: [] for k in range(1, assignment.num_workers + 1)}
    for u in assignment.updates:
        slots_of.setdefault(u.worker, []).append(u.finish_slot)
    omega = 1
    for slots in slots_of.values():
        present = sorted({0, S + 1, *(nu for nu in slots if 0 < nu <= S)})
        omega = max(omega, *(b - a for a, b in zip(present, present[1:])))
    return omega


# --------------------------------------------------------------------------
# snapshots along the slot boundaries


def _trace_dims(trace: EventTrace):
    """Start vectors x0 and z0, the z slice of each edge and each worker's z
    slices (in edge order) from the trace metadata, checked for consistency."""
    meta = trace.meta
    if not isinstance(meta, dict):
        raise TraceError("trace metadata is not a JSON object")
    try:
        K = int(meta["k"])
        edges = [(int(em["k"]), int(em["l"]), int(em["dim"])) for em in meta["edges"]]
        x0 = [np.array(v, dtype=float) for v in meta["x0"]]
        z0 = np.array(meta["z0"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise TraceError(f"trace metadata lacks problem dimensions: {err}") from None
    dims = [dim for _, _, dim in edges]
    if min(dims, default=0) < 0 or len(x0) != K or z0.shape != (sum(dims),):
        raise TraceError(f"trace metadata is inconsistent: k = {K} with {len(x0)} start "
                         f"vectors, z0 of shape {z0.shape} for edge blocks of {sum(dims)}")
    cuts = np.cumsum([0, *dims]).tolist()
    slices = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    blocks: dict[int, list[slice]] = {}
    for (k, l, _), sl in zip(edges, slices):
        for worker in {k, l}:
            blocks.setdefault(worker, []).append(sl)
    return x0, z0, slices, blocks


def slot_snapshots(trace: EventTrace, assignment: GlobalIterationAssignment):
    """Consensus, iterate and multiplier snapshots measured at each slot
    boundary.

    Returns (z_at, x_at, lam_at) where ``z_at[phi]`` is the global consensus
    vector z^phi for phi = 1..S+1 (index 0 unused), i.e. the value at time
    boundaries[phi-1], with z^{S+1} taken at the end of the trace; x_at and
    lam_at hold per-worker dictionaries at the same instants. Slots share
    the x and lam arrays that did not change between them: read-only.
    """
    x0, z, slices, _ = _trace_dims(trace)
    x = dict(enumerate(x0, start=1))
    lam = {k: None for k in x}
    times = list(assignment.boundaries) + [assignment.end_time]
    z_at, x_at, lam_at = ([None] * (len(times) + 1) for _ in range(3))
    events = [e for e in trace.events if e.kind in ("z_update", "compute_end")]
    pos = 0
    for phi, t in enumerate(times, start=1):
        while pos < len(events) and events[pos].time <= t:
            ev = events[pos]
            try:
                if ev.kind == "z_update":
                    edge, value = ev.payload["edge"], np.asarray(ev.payload["z"], dtype=float)
                    if edge not in range(len(slices)) or value.shape != z[slices[int(edge)]].shape:
                        raise IndexError(f"edge {edge!r} of {len(slices)}, z of shape {value.shape}")
                    z[slices[int(edge)]] = value
                elif ev.worker not in x:
                    raise IndexError(f"worker {ev.worker} is not one of {len(x)}")
                else:
                    x[ev.worker] = np.asarray(ev.payload["x"], dtype=float)
                    lam[ev.worker] = np.asarray(ev.payload["lam"], dtype=float)
            except (KeyError, TypeError, ValueError, IndexError) as err:
                raise TraceError(f"malformed {ev.kind} event at t={ev.time}: {err}") from None
            pos += 1
        z_at[phi] = z.copy()
        x_at[phi] = dict(x)
        lam_at[phi] = dict(lam)
    return z_at, x_at, lam_at


@dataclass
class StalenessBoundReport:
    lhs: float
    rhs_stated: float
    rhs_tight: float
    omega: int
    holds: bool
    holds_tight: bool


def check_staleness_bound(trace: EventTrace, assignment: GlobalIterationAssignment,
                          snapshots: tuple | None = None,
                          omega: int | None = None) -> StalenessBoundReport:
    """Consensus-staleness inequality over the whole trace.

    The staleness each updater saw, summed over all updates,

        lhs = sum_phi sum_{k in A_phi} ||z_k^{nu_bar_k + 1} - z_k^phi||^2,

    is bounded by 2 (omega-1)^2 times the summed consensus movement
    sum_phi ||z^{phi+1} - z^phi||^2. A tighter variant with factor
    (omega-1)^2 is also evaluated and reported alongside; the verdict uses
    the looser guaranteed factor. With omega = 1 the left side must vanish.
    The :func:`slot_snapshots` and :func:`measure_omega` results are
    computed here unless the caller passes them in.
    """
    *_, blocks = _trace_dims(trace)
    z_at = (snapshots or slot_snapshots(trace, assignment))[0]
    S = assignment.num_slots
    lhs = 0.0
    for u in assignment.updates:
        nu, nu_bar = u.finish_slot, u.start_slot
        if nu < 1:
            continue
        total = 0.0
        for sl in blocks.get(u.worker, ()):
            d = z_at[nu_bar + 1][sl] - z_at[nu][sl]
            total += float(d @ d)
        lhs += total
    movement = 0.0
    for phi in range(1, S + 1):
        d = z_at[phi + 1] - z_at[phi]
        movement += float(d @ d)
    if omega is None:
        omega = measure_omega(assignment)
    rhs_stated = 2.0 * (omega - 1) ** 2 * movement
    rhs_tight = 1.0 * (omega - 1) ** 2 * movement
    slack = 1e-9 * max(1.0, movement)
    if omega == 1:
        holds = lhs <= slack
        holds_tight = holds
    else:
        holds = lhs <= rhs_stated + slack
        holds_tight = lhs <= rhs_tight + slack
    return StalenessBoundReport(lhs, rhs_stated, rhs_tight, omega, holds, holds_tight)


@dataclass
class LambdaBoundViolation:
    slot: int
    worker: int
    lhs: float
    rhs: float


def check_lambda_bound(
    trace: EventTrace,
    assignment: GlobalIterationAssignment,
    c_const: float,
    m1: float,
    snapshots: tuple | None = None,
) -> list[LambdaBoundViolation]:
    """Per-slot multiplier movement bound ||lam^{nu+1} - lam^nu||^2 <=
    c m1^2 ||x^{nu+1} - x^nu||^2, checked for every updater of every slot.

    Each worker's first update is exempt: the bound rests on local
    stationarity holding at both ends of the difference, and the supplied
    start point carries no such relation. The comparison allows a small
    relative slack because the bound is tight for quadratic objectives and
    the local solver leaves a stationarity residual of its own. Constants
    are user estimates, so violations are reported for inspection rather
    than raised. ``snapshots`` as for :func:`check_staleness_bound`."""
    _, x_at, lam_at = snapshots or slot_snapshots(trace, assignment)
    out: list[LambdaBoundViolation] = []
    for u in assignment.updates:
        nu = u.finish_slot
        if nu < 1 or u.cycle == 0:
            continue
        k = u.worker
        lam_after, lam_before = lam_at[nu + 1][k], lam_at[nu][k]
        if lam_after is None:
            continue
        dl = lam_after - (lam_before if lam_before is not None else 0.0)
        dx = x_at[nu + 1][k] - x_at[nu][k]
        lhs = float(dl @ dl)
        rhs = float(c_const * m1 * m1 * (dx @ dx))
        if lhs > rhs + 1e-5 * max(1.0, rhs):
            out.append(LambdaBoundViolation(slot=nu, worker=k, lhs=lhs, rhs=rhs))
    return out


# --------------------------------------------------------------------------
# parameter bounds, KKT, objective gap


@dataclass(frozen=True)
class DiagnosticConstants:
    """User-supplied problem constants for the trace diagnostics: curvature
    bound gamma, subgradient Lipschitz constant m1, boundary-map norm
    equivalence m2, boundary pseudo-inverse norm c, delay window omega.

    m2 = 1 is admitted; norm-preserving boundary maps attain it."""

    gamma: float
    m1: float
    m2: float
    c: float
    omega: int = 1

    def __post_init__(self):
        for name in ("gamma", "m1", "m2", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.m2 < 1.0:
            raise ValueError("m2 must be at least 1")
        if self.omega < 1:
            raise ValueError("omega must be a positive integer")


def parameter_bounds(consts: DiagnosticConstants, rho: float) -> tuple[float, float]:
    """Admissible lower bounds (rho_min, alpha_min) for the penalty and the
    proximal weight:

        rho_min  = (gamma + c m1^2) m2^2
                   + sqrt((gamma + c m1^2)^2 m2^4 + 4 c m1^2 m2^2)
        alpha_min = (2 rho m2^4 + 1)(omega - 1)^2 / 2 - rho

    With omega = 1 the proximal bound is -rho, so alpha = 0 is admissible.
    """
    s = consts.gamma + consts.c * consts.m1**2
    rho_min = s * consts.m2**2 + math.sqrt(
        s**2 * consts.m2**4 + 4.0 * consts.c * consts.m1**2 * consts.m2**2
    )
    alpha_min = (2.0 * rho * consts.m2**4 + 1.0) * (consts.omega - 1) ** 2 / 2.0 - rho
    return rho_min, alpha_min


@dataclass
class KktReport:
    stationarity: list[float]
    multiplier: list[float]
    primal: list[float]
    tol: float

    @property
    def max_stationarity(self) -> float:
        return max(self.stationarity, default=0.0)

    @property
    def max_multiplier(self) -> float:
        return max(self.multiplier, default=0.0)

    @property
    def max_primal(self) -> float:
        return max(self.primal, default=0.0)

    @property
    def passed(self) -> bool:
        return max(self.max_stationarity, self.max_multiplier, self.max_primal) <= self.tol


def check_kkt(
    problem: PartitionedProblem,
    x_all: list[Array],
    z_global: Array,
    lam_all: list[Array],
    tol: float = 1e-3,
) -> KktReport:
    """First-order optimality residuals of a candidate solution.

    Three families: per-region stationarity of the local Lagrangian (the
    indicator of the feasible set is represented by the projected gradient
    at the box, with equality multipliers estimated by least squares on the
    inactive coordinates), per-edge multiplier consistency
    ||lam_k + lam_l||_inf, and per-region primal agreement ||A x - z||_inf.
    """
    stationarity = []
    primal = []
    active_tol = 1e-9
    for k in range(1, problem.num_regions + 1):
        region = problem.region(k)
        x = np.asarray(x_all[k - 1], dtype=float)
        lam = np.asarray(lam_all[k - 1], dtype=float)
        g = np.asarray(region.gradient(x), dtype=float) + region.boundary_map.T @ lam
        if region.equality is not None:
            J = np.asarray(region.equality_jacobian(x), dtype=float)
            free = (x > region.lower + active_tol) & (x < region.upper - active_tol)
            if np.any(free) and J.shape[0] > 0:
                y, *_ = np.linalg.lstsq(J.T[free], -g[free], rcond=None)
                g = g + J.T @ y
        stationarity.append(float(
            np.max(np.abs(x - np.clip(x - g, region.lower, region.upper)), initial=0.0)
        ))
        z_k = problem.region_z(z_global, k)
        r = region.boundary_map @ x - z_k
        primal.append(float(np.max(np.abs(r), initial=0.0)))
    multiplier = []
    for e in problem.edges:
        lk = np.asarray(lam_all[e.k - 1], dtype=float)[e.block_of(e.k)]
        ll = np.asarray(lam_all[e.l - 1], dtype=float)[e.block_of(e.l)]
        multiplier.append(float(np.max(np.abs(lk + ll), initial=0.0)))
    return KktReport(stationarity=stationarity, multiplier=multiplier,
                     primal=primal, tol=tol)


@dataclass(frozen=True)
class ObjectiveGap:
    percent: float | None
    absolute: float

    @property
    def defined(self) -> bool:
        return self.percent is not None


def objective_gap(distributed_objective: float, centralized_objective: float) -> ObjectiveGap:
    """100 |f_dist - f_cent| / |f_cent|; undefined against a zero baseline,
    in which case only the absolute difference is meaningful."""
    diff = abs(distributed_objective - centralized_objective)
    if centralized_objective == 0.0:
        return ObjectiveGap(percent=None, absolute=diff)
    return ObjectiveGap(percent=100.0 * diff / abs(centralized_objective), absolute=diff)


# --------------------------------------------------------------------------
# trace well-formedness and the aggregate report


def verify_trace_wellformed(trace: EventTrace,
                            assignment: GlobalIterationAssignment | None = None) -> dict:
    """Structural checks: per-worker start/end alternation, every receive
    matching an earlier send (same digest), causal timestamps. An assignment
    built from the trace has already checked the alternation."""
    if assignment is None:
        _worker_updates(trace)  # raises TraceError on broken alternation
    sends: dict[str, TraceEvent] = {}
    receive_ok = True
    causal = True
    for ev in trace.events:
        if ev.kind == "send":
            sends[ev.digest] = ev
        elif ev.kind == "receive":
            src = sends.get(ev.digest)
            if src is None:
                receive_ok = False
            elif ev.time < src.time:
                causal = False
            elif src.payload.get("sender_iter") != ev.payload.get("sender_iter"):
                receive_ok = False
    times_ok = all(
        trace.events[i].time <= trace.events[i + 1].time for i in range(len(trace.events) - 1)
    )
    return {
        "receives_match_sends": receive_ok,
        "arrivals_after_sends": causal,
        "events_time_ordered": times_ok,
    }


def timing_from_trace(trace: EventTrace) -> dict[int, dict]:
    """Compute-vs-wait split per worker over the full virtual timeline."""
    end = trace.end_time
    compute: dict[int, float] = {}
    open_start: dict[int, float] = {}
    workers = set()
    for ev in trace.events:
        if ev.kind == "compute_start":
            workers.add(ev.worker)
            open_start[ev.worker] = ev.time
        elif ev.kind == "compute_end":
            compute[ev.worker] = compute.get(ev.worker, 0.0) + ev.time - open_start.pop(ev.worker)
    for k, t0 in open_start.items():
        compute[k] = compute.get(k, 0.0) + max(end - t0, 0.0)
    out = {}
    for k in sorted(workers):
        c = compute.get(k, 0.0)
        wait = max(end - c, 0.0)
        total = c + wait
        out[k] = {
            "compute_ms": c,
            "wait_ms": wait,
            "wait_fraction": wait / total if total > 0 else 0.0,
        }
    return out


def _final_state(trace: EventTrace, problem: PartitionedProblem):
    """The final x, lam per region and z from the trace's ``final`` and
    ``final_z`` records, checked against the problem's dimensions; None when
    the trace has none (an aborted run)."""
    finals = [e.payload for e in trace.events if e.kind == "final"]
    z_records = [e.payload for e in trace.events if e.kind == "final_z"]
    if not finals or not z_records:
        return None
    K = problem.num_regions
    if len(finals) != K:
        raise TraceError(f"trace holds {len(finals)} final records for {K} regions")
    try:
        x_all = [np.asarray(f["x"], dtype=float) for f in finals]
        lam_all = [np.asarray(f["lam"], dtype=float) for f in finals]
        z = np.asarray(z_records[-1]["z"], dtype=float)
    except (TypeError, ValueError) as err:
        raise TraceError(f"trace holds a non-numeric final state: {err}") from None
    for k, region, x, lam in zip(range(1, K + 1), problem.regions, x_all, lam_all):
        if x.shape != (region.dim_x,) or lam.shape != (region.boundary_rows,):
            raise TraceError(f"final record {k} holds x of shape {x.shape} and lam of shape "
                             f"{lam.shape}, region {k} needs ({region.dim_x},) and "
                             f"({region.boundary_rows},)")
    if z.shape != (problem.boundary_dim,):
        raise TraceError(f"final z has shape {z.shape}, the problem needs "
                         f"({problem.boundary_dim},)")
    return x_all, lam_all, z


def analyze_trace(
    trace: EventTrace,
    problem: PartitionedProblem | None = None,
    constants: DiagnosticConstants | None = None,
    kkt_tol: float = 1e-3,
) -> dict:
    """Full diagnostic report over one trace, JSON-serialisable."""
    report: dict = {"status": trace.status, "end_time_ms": trace.end_time}
    assignment = assign_global_iterations(trace)
    report["wellformed"] = verify_trace_wellformed(trace, assignment)
    omega = measure_omega(assignment)
    report["global_iterations"] = {
        "boundaries": assignment.boundaries,
        "num_slots": assignment.num_slots,
        "membership_sizes": [
            len(assignment.members(nu)) for nu in range(1, assignment.num_slots + 1)
        ],
        "rules": verify_slicing_rules(assignment, trace),
    }
    report["omega"] = omega
    snapshots = slot_snapshots(trace, assignment)
    staleness = check_staleness_bound(trace, assignment, snapshots, omega)
    report["staleness_bound"] = {
        "lhs": staleness.lhs,
        "rhs_stated": staleness.rhs_stated,
        "rhs_tight": staleness.rhs_tight,
        "holds": staleness.holds,
        "holds_tight_factor": staleness.holds_tight,
        "omega": staleness.omega,
    }
    if constants is not None:
        violations = check_lambda_bound(trace, assignment, constants.c, constants.m1,
                                        snapshots)
        try:
            rho = float(trace.meta.get("params", {}).get("rho", 0.0)) or 1.0
        except (AttributeError, TypeError, ValueError):
            raise TraceError("trace metadata holds a malformed params.rho") from None
        consts_here = DiagnosticConstants(
            gamma=constants.gamma, m1=constants.m1, m2=constants.m2,
            c=constants.c, omega=omega,
        )
        rho_min, alpha_min = parameter_bounds(consts_here, rho)
        report["lambda_bound"] = {
            "violations": [vars(v) for v in violations],
            "num_violations": len(violations),
        }
        report["parameter_bounds"] = {
            "rho": rho,
            "rho_min": rho_min,
            "alpha_min": alpha_min,
            "rho_admissible": rho > rho_min,
            "alpha_zero_admissible": alpha_min <= 0.0,
        }
    final = _final_state(trace, problem) if problem is not None else None
    if final is not None:
        x_all, lam_all, z_final = final
        kkt = check_kkt(problem, x_all, z_final, lam_all, tol=kkt_tol)
        report["kkt"] = {
            "stationarity": kkt.stationarity,
            "multiplier_consistency": kkt.multiplier,
            "primal": kkt.primal,
            "tol": kkt.tol,
            "passed": kkt.passed,
        }
        report["objective"] = problem.total_objective(x_all)
    report["timing"] = timing_from_trace(trace)
    return report
