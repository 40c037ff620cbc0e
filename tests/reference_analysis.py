"""Reference implementation of the global-iteration slicing, kept as a test
oracle for :mod:`asyncadmm.analysis`.

These are the original quadratic routines: a greedy search that rescans every
update and receive for each candidate boundary, a per-slot scan for the
one-finish rule, and a window-by-window search for omega. They are slow
(O(S·C·(U+R)) for the slicing) but direct transcriptions of the slicing
rules, so the near-linear sweep in ``asyncadmm.analysis`` must agree with
them exactly. Not collected as tests.
"""

from __future__ import annotations

import math

from asyncadmm.analysis import GlobalIterationAssignment, _worker_updates
from asyncadmm.engine import EventTrace


def assign_global_iterations(trace: EventTrace) -> GlobalIterationAssignment:
    """Greedy maximal slicing of the trace into global iterations."""
    updates, receives = _worker_updates(trace)
    starts = sorted({e.time for e in trace.events if e.kind == "compute_start"})
    end_time = trace.end_time or max((e.time for e in trace.events), default=0.0)
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
        u.start_slot = assignment.slot_of(u.start_time)
        u.finish_slot = assignment.slot_of(u.end_time)
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
