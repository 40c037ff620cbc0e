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

The trace is indexed once (:class:`TraceIndex`) and every pass reads the
index. The slicing is one sweep over the sorted start times, every rule a
(key, time) pair under a suffix minimum; snapshots and bounds work on one
array per edge and worker and add in a loop's order, so the analysis costs
O(E log E) for E events and matches the event-by-event loops bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter
from typing import NamedTuple

import numpy as np

from .engine import EventTrace
from .problem import Array, PartitionedProblem


class TraceError(ValueError):
    """The trace is structurally unusable for analysis."""


# --------------------------------------------------------------------------
# the event index


class TraceIndex:
    """One trace's events read once: ``time`` and ``worker`` per event, keys
    ``by_worker`` that order events by worker, then log position, and
    :meth:`of`, the log-ordered positions of some kinds' events. One serves
    all passes of :func:`analyze_trace`; rebuild it after changing events."""

    def __init__(self, trace: EventTrace):
        self.events = events = trace.events
        kinds = [e.kind for e in events]
        self.time = np.array([e.time for e in events], dtype=float)
        self.worker = np.array([e.worker for e in events], dtype=np.int64)
        self.by_worker = self.worker * len(events) + np.arange(len(events))
        codes = {kind: i for i, kind in enumerate(dict.fromkeys(kinds))}
        code = np.fromiter(map(codes.__getitem__, kinds), dtype=np.intp, count=len(kinds))
        self._positions = {kind: np.flatnonzero(code == i) for kind, i in codes.items()}

    def of(self, *kinds: str) -> np.ndarray:
        return np.sort(np.concatenate([self._positions.get(kind, np.empty(0, np.intp))
                                       for kind in kinds]), kind="stable")


def _matched_updates(index: TraceIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of each finished x-update's compute_start and compute_end,
    in the order of the ends, and of the starts still open at the end. Each
    worker's starts and ends must alternate, beginning with a start; the
    first event in the log that breaks this raises TraceError."""
    starts = index.of("compute_start")
    pos = np.concatenate([starts, index.of("compute_end")])
    order = np.argsort(index.by_worker[pos], kind="stable")
    pos, is_end = pos[order], order >= len(starts)
    same = np.diff(index.worker[pos]) == 0  # event i + 1 has event i's worker
    after_end = np.ones(len(pos), dtype=bool)  # the worker's previous event is an end, or none
    after_end[1:] = ~same | is_end[:-1]
    if (broken := pos[is_end == after_end]).size:
        ev = index.events[broken.min()]
        if ev.kind == "compute_start":
            raise TraceError(f"worker {ev.worker}: compute_start at t={ev.time} while computing")
        raise TraceError(f"worker {ev.worker}: compute_end without start at t={ev.time}")
    ends = np.flatnonzero(is_end)[np.argsort(pos[is_end], kind="stable")]
    last = np.append(~same, True)  # each worker's last event
    return pos[ends - 1], pos[ends], pos[last & ~is_end]


def _receives(index: TraceIndex) -> tuple[np.ndarray, np.ndarray]:
    """(start time, receive time) of each receive later in time than its
    worker's last compute_start before it in the log."""
    starts = np.sort(index.by_worker[index.of("compute_start")], kind="stable")
    received = index.of("receive")
    last = np.searchsorted(starts, index.by_worker[received]) - 1
    received, last = received[last >= 0], starts[last[last >= 0]]
    n = len(index.events)
    governed = last // max(n, 1) == index.worker[received]
    start_t, receive_t = index.time[last[governed] % max(n, 1)], index.time[received[governed]]
    return start_t[start_t < receive_t], receive_t[start_t < receive_t]


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
    receives: tuple | None = None  # from _receives; None: re-read the trace

    @property
    def num_slots(self) -> int:
        return len(self.boundaries)

    def members(self, nu: int) -> set:
        return self.membership.get(nu, set())


def _maximal_boundaries(starts: list[float], start_t, end_t, worker, receives) -> list[float]:
    """The greedy maximal slicing as one sweep over the sorted start times.

    Every rule becomes (key, t): a window (cur, c] with cur < key breaks
    once c >= t. From each boundary, a suffix minimum over the rules sorted
    by key gives the first breaking time T, and the next boundary is the
    last start before T, or the first start after the boundary if none is.
    """
    # an update inside the window must span its left end (keyed on
    # min(start, end), exact for out-of-order timestamps), no receive may
    # follow a start within the start's slot, one finish per worker and slot
    order = np.lexsort((end_t, worker))
    ends, same = end_t[order], np.diff(worker[order]) == 0
    keys = np.concatenate([np.minimum(start_t, end_t), receives[0], ends[:-1][same]])
    times = np.concatenate([end_t, receives[1], ends[1:][same]])
    order = np.lexsort((times, keys))
    keys = keys[order].tolist()
    first_break = np.minimum.accumulate(times[order][::-1])[::-1].tolist() + [math.inf]

    boundaries = [starts[0]]
    while True:
        t_break = first_break[bisect_right(keys, boundaries[-1])]
        nxt = bisect_right(starts, boundaries[-1])
        if t_break == math.inf or nxt == len(starts):
            return boundaries
        last = bisect_left(starts, t_break) - 1
        boundaries.append(starts[max(last, nxt)])  # the shortest extension if none fits


def assign_global_iterations(trace: EventTrace,
                             index: TraceIndex | None = None) -> GlobalIterationAssignment:
    """Greedy maximal slicing of the trace into global iterations."""
    index = index or TraceIndex(trace)
    first, last, _ = _matched_updates(index)
    receives = _receives(index)
    start_pos = index.of("compute_start")
    starts = sorted(set(index.time[start_pos].tolist()))
    end_time = trace.end_time or max(index.time.tolist(), default=0.0)
    num_workers = len(set(index.worker[start_pos].tolist()))
    if not starts:
        return GlobalIterationAssignment([], end_time, num_workers, [], receives=receives)

    start_t, end_t, worker = index.time[first], index.time[last], index.worker[last]
    boundaries = _maximal_boundaries(starts, start_t, end_t, worker, receives)
    finish_slots, workers = np.searchsorted(boundaries, end_t).tolist(), worker.tolist()
    cycles = [index.events[i].local_iter for i in last.tolist()]
    updates = list(map(UpdateRecord, workers, cycles, start_t.tolist(), end_t.tolist(),
                       np.searchsorted(boundaries, start_t).tolist(), finish_slots))
    assignment = GlobalIterationAssignment(boundaries, end_time, num_workers, updates,
                                           receives=receives)
    for nu, k in zip(finish_slots, workers):
        assignment.membership.setdefault(nu, set()).add(k)
    return assignment


def verify_slicing_rules(assignment: GlobalIterationAssignment, trace: EventTrace,
                         index: TraceIndex | None = None) -> dict:
    """Machine check of the slicing invariants on a finished assignment:
    boundaries sit on x-update start times, no worker finishes twice in one
    slot, a worker that started an update receives nothing else inside the
    slot holding that start, and every update's start and finish straddle a
    boundary."""
    index = index or TraceIndex(trace)
    starts = set(index.time[index.of("compute_start")].tolist())
    bounds = assignment.boundaries
    S = assignment.num_slots
    finishes = [(u.finish_slot, u.worker) for u in assignment.updates if 1 <= u.finish_slot <= S]
    receives = assignment.receives
    if receives is None:
        receives = _receives(index)
    # a boundary must separate a start from its worker's later receives; a
    # boundary placed exactly at the start time counts
    after = np.array([*bounds, math.inf])[np.searchsorted(bounds, receives[0])]
    quiet_after_start = bool(np.all(after < receives[1]))
    return {
        "boundaries_on_start_times": all(b in starts for b in bounds),
        "one_finish_per_slot": len(set(finishes)) == len(finishes),
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


class SlotSnapshots(NamedTuple):
    """Consensus, iterates and multipliers at each slot boundary. Row phi of
    ``z`` (phi = 1..S+1; row 0 is z0) is z^phi at time boundaries[phi-1],
    and z^{S+1} is taken at the end of the trace. Worker k's iterate and
    multiplier at phi are rows ``seen[k][phi]`` of ``x[k]`` and ``lam[k]``,
    where seen counts the worker's compute_end records measured by then; row
    0 holds the start vector and, as no multiplier is known yet, zeros."""

    z: np.ndarray
    x: dict[int, np.ndarray]
    lam: dict[int, np.ndarray]
    seen: dict[int, np.ndarray]


def slot_snapshots(trace: EventTrace, assignment: GlobalIterationAssignment,
                   index: TraceIndex | None = None) -> SlotSnapshots:
    """The :class:`SlotSnapshots` along the assignment's slot boundaries.
    Each boundary measures the z_update and compute_end events in log order
    up to the first one later than it; each edge's z blocks and each
    worker's x and lam become one array."""
    index = index or TraceIndex(trace)
    x0, z0, slices, _ = _trace_dims(trace)
    times = np.maximum.accumulate(np.array([*assignment.boundaries, assignment.end_time]))
    pos = index.of("z_update", "compute_end")
    # an event is measured at the first boundary phi that reaches its time
    # and every earlier event's; len(times) + 1 if none does
    phi = np.searchsorted(times, np.maximum.accumulate(index.time[pos])) + 1
    pos, phi = pos[phi <= len(times)], phi[phi <= len(times)]
    is_z = np.zeros(len(index.events), dtype=bool)
    is_z[index.of("z_update")] = True
    is_z = is_z[pos]
    at = np.arange(len(times) + 1)
    z = np.tile(z0, (len(times) + 1, 1))
    x, lam, seen = {}, {}, {}
    try:
        payloads = [index.events[i].payload for i in pos[is_z].tolist()]
        edges = [p["edge"] for p in payloads]
        if not set(edges) <= set(range(len(slices))):
            raise IndexError(edges)
        edge = np.fromiter(edges, dtype=np.intp, count=len(edges))
        for e, sl in enumerate(slices):
            rows = np.flatnonzero(edge == e)
            blocks = np.array([z0[sl], *(payloads[i]["z"] for i in rows.tolist())], dtype=float)
            if blocks.shape != (len(rows) + 1, sl.stop - sl.start):
                raise ValueError(blocks.shape)
            z[1:, sl] = blocks[np.searchsorted(phi[is_z][rows], at[1:], side="right")]
        payloads = [index.events[i].payload for i in pos[~is_z].tolist()]
        worker = index.worker[pos[~is_z]]
        if not ((worker >= 1) & (worker <= len(x0))).all():
            raise IndexError(worker)
        for k, start in enumerate(x0, start=1):
            rows = np.flatnonzero(worker == k)
            own = [payloads[i] for i in rows.tolist()]
            x[k] = np.array([start, *(p["x"] for p in own)], dtype=float)
            lams = [p["lam"] for p in own]
            lam[k] = np.array([np.zeros(np.shape(lams[0] if lams else [])), *lams], dtype=float)
            if x[k].ndim != 2 or lam[k].ndim != 2:
                raise ValueError(x[k].shape, lam[k].shape)
            seen[k] = np.searchsorted(phi[~is_z][rows], at, side="right")
    except (KeyError, TypeError, ValueError, IndexError):
        pass  # find the first event that cannot be measured, as a loop would
    else:
        return SlotSnapshots(z, x, lam, seen)
    for ev in map(index.events.__getitem__, pos.tolist()):
        try:
            if ev.kind == "z_update":
                edge, value = ev.payload["edge"], np.asarray(ev.payload["z"], dtype=float)
                if edge not in range(len(slices)) or value.shape != z0[slices[int(edge)]].shape:
                    raise IndexError(f"edge {edge!r} of {len(slices)}, z of shape {value.shape}")
            elif ev.worker not in range(1, len(x0) + 1):
                raise IndexError(f"worker {ev.worker} is not one of {len(x0)}")
            else:
                np.asarray(ev.payload["x"], dtype=float)
                np.asarray(ev.payload["lam"], dtype=float)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            raise TraceError(f"malformed {ev.kind} event at t={ev.time}: {err}") from None
    raise TraceError("compute_end records give a worker x or lam of differing shapes")


@dataclass
class StalenessBoundReport:
    lhs: float
    rhs_stated: float
    rhs_tight: float
    omega: int
    holds: bool
    holds_tight: bool


def _dots(d: np.ndarray) -> np.ndarray:
    """``float(row @ row)`` for each row of d, bit for bit: the matmul inner
    loop that ``row @ row`` runs, over the stack of rows."""
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


def _fold(values: np.ndarray) -> float:
    """The values added left to right, as a loop adds them."""
    return reduce(add, values.tolist(), 0.0)


def _fields(updates: list[UpdateRecord], *names: str) -> tuple[np.ndarray, ...]:
    """One integer array per named field of the update records."""
    return tuple(np.fromiter(map(attrgetter(name), updates), dtype=np.int64, count=len(updates))
                 for name in names)


def check_staleness_bound(trace: EventTrace, assignment: GlobalIterationAssignment,
                          snapshots: SlotSnapshots | None = None,
                          omega: int | None = None,
                          index: TraceIndex | None = None) -> StalenessBoundReport:
    """Consensus-staleness inequality over the whole trace.

    The staleness each updater saw, summed over all updates,

        lhs = sum_phi sum_{k in A_phi} ||z_k^{nu_bar_k + 1} - z_k^phi||^2,

    is bounded by 2 (omega-1)^2 times the summed consensus movement
    sum_phi ||z^{phi+1} - z^phi||^2. A tighter variant with factor
    (omega-1)^2 is also evaluated and reported alongside; the verdict uses
    the looser guaranteed factor. With omega = 1 the left side must vanish.
    The :func:`slot_snapshots` and :func:`measure_omega` results are
    computed here unless the caller passes them in. The sums add the same
    terms in the same order as a loop over the updates and their blocks.
    """
    *_, blocks = _trace_dims(trace)
    z = (snapshots or slot_snapshots(trace, assignment, index)).z
    nu_bar, nu, worker = _fields(assignment.updates, "start_slot", "finish_slot", "worker")
    totals = np.zeros(len(nu))
    for k, worker_blocks in blocks.items():
        rows = np.flatnonzero((worker == k) & (nu >= 1))
        for sl in worker_blocks:
            totals[rows] += _dots(z[nu_bar[rows] + 1, sl] - z[nu[rows], sl])
    lhs = _fold(totals)
    movement = _fold(_dots(np.diff(z[1:assignment.num_slots + 2], axis=0)))
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
    snapshots: SlotSnapshots | None = None,
    index: TraceIndex | None = None,
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
    snap = snapshots or slot_snapshots(trace, assignment, index)
    updates = assignment.updates
    nu, worker, cycle = _fields(updates, "finish_slot", "worker", "cycle")
    checked = (nu >= 1) & (cycle != 0)
    lhs, rhs = np.full(len(updates), np.nan), np.zeros(len(updates))  # nan: not checked
    for k, seen in snap.seen.items():
        rows = np.flatnonzero(checked & (worker == k))
        after, before = seen[nu[rows] + 1], seen[nu[rows]]
        known = after > 0  # a multiplier after the slot
        rows, after, before = rows[known], after[known], before[known]
        lhs[rows] = _dots(snap.lam[k][after] - snap.lam[k][before])
        rhs[rows] = c_const * m1 * m1 * _dots(snap.x[k][after] - snap.x[k][before])
    violated = lhs > rhs + 1e-5 * np.where(rhs > 1.0, rhs, 1.0)
    return [LambdaBoundViolation(updates[i].finish_slot, updates[i].worker, float(lhs[i]),
                                 float(rhs[i])) for i in np.flatnonzero(violated).tolist()]


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
                            assignment: GlobalIterationAssignment | None = None,
                            index: TraceIndex | None = None) -> dict:
    """Structural checks: per-worker start/end alternation, every receive
    matching an earlier send (same digest), causal timestamps. An assignment
    built from the trace has already checked the alternation."""
    index = index or TraceIndex(trace)
    if assignment is None:
        _matched_updates(index)  # raises TraceError on broken alternation
    sends, receive_ok, causal = {}, True, True  # sends by digest
    for ev in map(index.events.__getitem__, index.of("send", "receive").tolist()):
        if ev.kind == "send":
            sends[ev.digest] = ev
        else:
            src = sends.get(ev.digest)
            if src is None:
                receive_ok = False
            elif ev.time < src.time:
                causal = False
            elif src.payload.get("sender_iter") != ev.payload.get("sender_iter"):
                receive_ok = False
    return {
        "receives_match_sends": receive_ok,
        "arrivals_after_sends": causal,
        "events_time_ordered": bool(np.all(index.time[:-1] <= index.time[1:])),
    }


def timing_from_trace(trace: EventTrace, index: TraceIndex | None = None) -> dict[int, dict]:
    """Compute-vs-wait split per worker over the full virtual timeline. A
    worker's compute time adds each finished update's end and subtracts its
    start in log order, then the update still open at the end."""
    index = index or TraceIndex(trace)
    starts, ends, still_open = _matched_updates(index)
    time, worker = index.time, index.worker[ends]
    open_start = dict(zip(index.worker[still_open].tolist(), time[still_open].tolist()))
    out = {}
    for k in sorted(set(index.worker[index.of("compute_start")].tolist())):
        own = worker == k
        steps = np.column_stack([time[ends[own]], -time[starts[own]]]).ravel()
        c = _fold(steps) + (max(trace.end_time - open_start[k], 0.0) if k in open_start else 0.0)
        wait = max(trace.end_time - c, 0.0)
        total = c + wait
        out[k] = {
            "compute_ms": c,
            "wait_ms": wait,
            "wait_fraction": wait / total if total > 0 else 0.0,
        }
    return out


def _final_state(index: TraceIndex, problem: PartitionedProblem):
    """The final x, lam per region and z from the trace's ``final`` and
    ``final_z`` records, checked against the problem's dimensions; None when
    the trace has none (an aborted run)."""
    finals = [index.events[i].payload for i in index.of("final").tolist()]
    z_records = [index.events[i].payload for i in index.of("final_z").tolist()]
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
    """Full diagnostic report over one trace, JSON-serialisable. The trace
    is indexed once, and every pass reads that index."""
    report: dict = {"status": trace.status, "end_time_ms": trace.end_time}
    index = TraceIndex(trace)
    assignment = assign_global_iterations(trace, index)
    report["wellformed"] = verify_trace_wellformed(trace, assignment, index)
    omega = measure_omega(assignment)
    report["global_iterations"] = {
        "boundaries": assignment.boundaries,
        "num_slots": assignment.num_slots,
        "membership_sizes": [
            len(assignment.members(nu)) for nu in range(1, assignment.num_slots + 1)
        ],
        "rules": verify_slicing_rules(assignment, trace, index),
    }
    report["omega"] = omega
    snapshots = slot_snapshots(trace, assignment, index)
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
    final = _final_state(index, problem) if problem is not None else None
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
    report["timing"] = timing_from_trace(trace, index)
    return report
