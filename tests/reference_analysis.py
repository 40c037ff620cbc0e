"""Reference implementations of the trace analysis, kept as test oracles
for :mod:`asyncadmm.analysis`.

The slicing routines are the original quadratic ones: a greedy search that
rescans every update and receive for each candidate boundary, a per-slot
scan for the one-finish rule, and a window-by-window search for omega. They
are slow (O(S·C·(U+R)) for the slicing) but direct transcriptions of the
slicing rules, so the near-linear sweep in ``asyncadmm.analysis`` must agree
with them exactly.

The event-by-event passes below them (update matching, slot snapshots as
per-slot dictionaries, the staleness and multiplier bounds with one dot
product per block, the compute/wait split) are the loops that the indexed,
array-based passes replaced; those must reproduce them bit for bit. They
keep one record per update, where the analysis keeps one array per field.
Not collected as tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from asyncadmm.analysis import TraceError, _trace_dims
from asyncadmm.engine import EventTrace, TraceEvent

from oracles import end_of


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
    """Slot boundaries, per-slot updater sets, and per-update records.

    Slot nu (nu >= 1) is (boundaries[nu-1], boundaries[nu]] with the final
    slot closed by the end of the trace; everything at or before
    boundaries[0] belongs to slot 0 (initialization).
    """

    boundaries: list[float]
    end_time: float
    num_workers: int
    updates: list[UpdateRecord]
    membership: dict[int, set] = field(default_factory=dict)

    @property
    def num_slots(self) -> int:
        return len(self.boundaries)


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


def assign_global_iterations(trace: EventTrace) -> GlobalIterationAssignment:
    """Greedy maximal slicing of the trace into global iterations."""
    updates, receives = _worker_updates(trace)
    starts = sorted({e.time for e in trace.events if e.kind == "compute_start"})
    end_time = end_of(trace)[1]
    workers = sorted({e.worker for e in trace.events if e.kind == "compute_start"})
    if not starts:
        return GlobalIterationAssignment([], end_time, len(workers), [])

    boundaries = [starts[0]]
    cur = starts[0]
    while not _window_valid((cur, math.inf), updates, receives):
        candidates = [t for t in starts if t > cur]
        best = None
        for c in candidates:
            if _window_valid((cur, c), updates, receives):
                best = c
            else:
                break  # longer candidates only add more events to the window
        if best is None:
            # the shortest extension is always valid; guard anyway
            best = candidates[0] if candidates else math.inf
            if best is math.inf:
                break
        boundaries.append(best)
        cur = best

    assignment = GlobalIterationAssignment(
        boundaries=boundaries, end_time=end_time,
        num_workers=len(workers), updates=updates,
    )
    for u in updates:
        u.start_slot = bisect_left(assignment.boundaries, u.start_time)
        u.finish_slot = bisect_left(assignment.boundaries, u.end_time)
        assignment.membership.setdefault(u.finish_slot, set()).add(u.worker)
    return assignment


def _window_valid(window: tuple, updates, receives) -> bool:
    cur, c = window
    finishes: dict[int, int] = {}
    for u in updates:
        inside_end = cur < u.end_time <= c
        if inside_end:
            finishes[u.worker] = finishes.get(u.worker, 0) + 1
            if finishes[u.worker] > 1:
                return False  # one finish per worker per slot
            if u.start_time > cur:
                return False  # an update must span a boundary
    for _, t_r, _, start_t in receives:
        if cur < t_r <= c and start_t is not None and cur < start_t < t_r:
            return False  # no new information after a start inside one slot
    return True


def verify_slicing_rules(assignment: GlobalIterationAssignment, trace: EventTrace) -> dict:
    """Machine check of the slicing invariants on a finished assignment:
    boundaries sit on x-update start times, no worker finishes twice in one
    slot, a worker that started an update receives nothing else inside the
    slot holding that start, and every update's start and finish straddle a
    boundary."""
    starts = {e.time for e in trace.events if e.kind == "compute_start"}
    on_starts = all(b in starts for b in assignment.boundaries)
    spans = all(u.start_slot < u.finish_slot for u in assignment.updates)
    one_finish = True
    for nu in range(1, assignment.num_slots + 1):
        seen: set = set()
        for u in assignment.updates:
            if u.finish_slot == nu:
                if u.worker in seen:
                    one_finish = False
                seen.add(u.worker)
    _, receives = _worker_updates(trace)
    quiet_after_start = True
    for _, t_r, _, start_t in receives:
        if start_t is None or not start_t < t_r:
            continue
        # a boundary must separate the start from the receive; a boundary
        # placed exactly at the start time counts
        if not any(start_t <= b < t_r for b in assignment.boundaries):
            quiet_after_start = False
    return {
        "boundaries_on_start_times": on_starts,
        "one_finish_per_slot": one_finish,
        "no_receive_after_start_within_slot": quiet_after_start,
        "updates_span_a_boundary": spans,
    }


def measure_omega(assignment: GlobalIterationAssignment) -> int:
    """Smallest window omega such that every worker appears in every run of
    omega consecutive slots (the initial states count as slot-0 updates for
    all workers)."""
    S = assignment.num_slots
    if S == 0:
        return 1
    workers = set(range(1, assignment.num_workers + 1)) or {
        u.worker for u in assignment.updates
    }
    slots_of: dict[int, set] = {k: {0} for k in workers}
    for u in assignment.updates:
        slots_of.setdefault(u.worker, {0}).add(u.finish_slot)
    for omega in range(1, S + 2):
        ok = True
        for nu in range(1, S + 1):
            lo = max(nu - omega + 1, 0)
            window = set(range(lo, nu + 1))
            for k, present in slots_of.items():
                if not (present & window):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return omega
    return S + 1


def slot_snapshots(trace: EventTrace, assignment: GlobalIterationAssignment):
    """Consensus, iterate and multiplier snapshots measured at each slot
    boundary.

    Returns (z_at, x_at, lam_at) where ``z_at[phi]`` is the global consensus
    vector z^phi for phi = 1..S+1 (index 0 unused), i.e. the value at time
    boundaries[phi-1], with z^{S+1} taken at the end of the trace; x_at and
    lam_at hold per-worker dictionaries at the same instants. Slots share
    the x and lam arrays that did not change between them: read-only.
    """
    x0, z, slices, _ = _trace_dims(trace.meta)
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


def check_staleness_bound(trace: EventTrace, assignment: GlobalIterationAssignment,
                          snapshots: tuple | None = None,
                          omega: int | None = None) -> dict:
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
    *_, blocks = _trace_dims(trace.meta)
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
    return {"lhs": lhs, "rhs_stated": rhs_stated, "rhs_tight": rhs_tight, "holds": holds,
            "holds_tight_factor": holds_tight, "omega": omega}


def check_lambda_bound(
    trace: EventTrace,
    assignment: GlobalIterationAssignment,
    c_const: float,
    m1: float,
    snapshots: tuple | None = None,
) -> list[dict]:
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
    out: list[dict] = []
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
            out.append({"slot": nu, "worker": k, "lhs": lhs, "rhs": rhs})
    return out



def timing_from_trace(trace: EventTrace) -> dict[int, dict]:
    """Compute-vs-wait split per worker over the full virtual timeline."""
    _, end = end_of(trace)
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
