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

The trace is indexed once (:class:`TraceIndex`), and every pass takes that
index, or the assignment and snapshots built from it, as its input. The
slicing is one sweep over the sorted start times, every rule a (key, time)
pair under a suffix minimum, and it keeps one array per update field;
snapshots and bounds work on one array per edge and worker and add in a
loop's order, so the analysis costs O(E log E) for E events and matches the
event-by-event loops bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, itemgetter
from typing import NamedTuple

import numpy as np

from .problem import Array, PartitionedProblem


class TraceError(ValueError):
    """The trace is structurally unusable for analysis."""


# --------------------------------------------------------------------------
# the event index


_MISSING = object()  # a payload key that the record lacks

# kind -> (row list, payload keys, value of an absent key): per event of the kind, in log
# order, the values' tuple (one key: the value); a message's peer is a send's to, a receive's from
_ROWS = {
    "send": ("messages", ("to", "edge", "sender_iter"), None),
    "receive": ("messages", ("from", "edge", "sender_iter"), None),
    "compute_end": ("updates", ("x", "lam"), _MISSING),
    "z_update": ("z_updates", ("edge", "z"), _MISSING),
    "final": ("finals", ("x", "lam"), _MISSING),
    "final_z": ("final_z", ("z",), _MISSING),
    "end": ("ends", ("status",), "incomplete"),
}


class TraceIndex:
    """One trace read once, as columns, keeping no event or payload: ``meta``; ``status`` and
    ``end_time`` from the last ``end`` record; per event its kind ``kinds[code]``, ``worker``,
    ``local_iter``, ``time`` and a key ``by_worker`` (worker, then log position); :meth:`of`, the
    log-ordered positions of some kinds' events; the ``_ROWS`` lists. ``records`` are (kind,
    worker, local_iter, time, payload) tuples, the engine's events or the reader's, and hold an
    ``end`` record. Every pass reads it; rebuild it after changing events."""

    def __init__(self, meta, records):
        self.meta, codes, code, worker, iters, time = meta, {}, [], [], [], []
        self.messages, self.updates, self.z_updates = [], [], []
        self.finals, self.final_z, self.ends = [], [], []
        rows = {kind: (getattr(self, row).append, itemgetter(*keys), dict.fromkeys(keys, missing))
                for kind, (row, keys, missing) in _ROWS.items()}
        for kind, w, it, t, payload in records:
            code.append(codes.setdefault(kind, len(codes)))
            worker.append(w)
            iters.append(it)
            time.append(t)
            if (row := rows.get(kind)) is not None:
                add, get, absent = row
                try:
                    add(get(payload))
                except KeyError:
                    add(get({**absent, **payload}))
        self.kinds, self.time = list(codes), np.array(time, dtype=float)
        try:
            self.code, self.worker, self.local_iter = np.array([code, worker, iters], np.int64)
        except OverflowError:
            raise TraceError("trace holds a worker or local iteration beyond 64 bits") from None
        self.by_worker = self.worker * len(code) + np.arange(len(code))
        self._positions = {kind: np.flatnonzero(self.code == i)
                           for i, kind in enumerate(self.kinds)}
        if not self.ends:
            raise TraceError("trace holds no end record")
        self.status, self.end_time = self.ends[-1], self.time[self.of("end")[-1]].item()

    def of(self, *kinds: str) -> np.ndarray:
        return np.sort(np.concatenate([self._positions.get(kind, np.empty(0, np.intp))
                                       for kind in kinds]), kind="stable")


def _present(value, key: str):  # a row's value of payload key ``key``
    if value is _MISSING:
        raise KeyError(key)
    return value


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
        i = broken.min()
        worker, time = index.worker[i].item(), index.time[i].item()
        if index.kinds[index.code[i]] == "compute_start":
            raise TraceError(f"worker {worker}: compute_start at t={time} while computing")
        raise TraceError(f"worker {worker}: compute_end without start at t={time}")
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
    n = len(index.time)
    governed = last // max(n, 1) == index.worker[received]
    start_t, receive_t = index.time[last[governed] % max(n, 1)], index.time[received[governed]]
    return start_t[start_t < receive_t], receive_t[start_t < receive_t]


# --------------------------------------------------------------------------
# global iteration reconstruction


@dataclass
class GlobalIterationAssignment:
    """Slot boundaries and the finished x-updates as columns, one entry per
    update in the order of their ends: ``worker``, local ``cycle``, start
    and end time, and the slots containing the start (``start_slot``,
    nu_bar) and the finish (``finish_slot``, nu). ``open_start`` maps each
    worker whose update is still open at the end to its start time.
    ``receives`` holds the (start time, receive time) pairs that the
    quiet-after-start rule reads.

    Slot nu (nu >= 1) is (boundaries[nu-1], boundaries[nu]] with the final
    slot closed by the end of the trace; everything at or before
    boundaries[0] belongs to slot 0 (initialization).
    """

    boundaries: list[float]
    end_time: float
    num_workers: int
    worker: np.ndarray
    cycle: np.ndarray
    start_t: np.ndarray
    end_t: np.ndarray
    start_slot: np.ndarray
    finish_slot: np.ndarray
    open_start: dict[int, float]
    receives: tuple[np.ndarray, np.ndarray]

    @property
    def num_slots(self) -> int:
        return len(self.boundaries)


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


def assign_global_iterations(index: TraceIndex) -> GlobalIterationAssignment:
    """Greedy maximal slicing of the trace into global iterations."""
    first, last, still_open = _matched_updates(index)
    receives = _receives(index)
    start_pos = index.of("compute_start")
    starts = sorted(set(index.time[start_pos].tolist()))
    num_workers = len(set(index.worker[start_pos].tolist()))
    start_t, end_t, worker = index.time[first], index.time[last], index.worker[last]
    boundaries = _maximal_boundaries(starts, start_t, end_t, worker, receives) if starts else []
    return GlobalIterationAssignment(
        boundaries, index.end_time, num_workers, worker, index.local_iter[last], start_t, end_t,
        np.searchsorted(boundaries, start_t), np.searchsorted(boundaries, end_t),
        dict(zip(index.worker[still_open].tolist(), index.time[still_open].tolist())), receives)


def verify_slicing_rules(assignment: GlobalIterationAssignment, index: TraceIndex) -> dict:
    """Machine check of the slicing invariants on a finished assignment:
    boundaries sit on x-update start times, no worker finishes twice in one
    slot, a worker that started an update receives nothing else inside the
    slot holding that start, and every update's start and finish straddle a
    boundary."""
    starts = set(index.time[index.of("compute_start")].tolist())
    bounds = assignment.boundaries
    nu, worker = assignment.finish_slot, assignment.worker
    inside = (nu >= 1) & (nu <= assignment.num_slots)
    finishes = list(zip(nu[inside].tolist(), worker[inside].tolist()))
    start_t, receive_t = assignment.receives
    # a boundary must separate a start from its worker's later receives; a
    # boundary placed exactly at the start time counts
    after = np.array([*bounds, math.inf])[np.searchsorted(bounds, start_t)]
    return {
        "boundaries_on_start_times": all(b in starts for b in bounds),
        "one_finish_per_slot": len(set(finishes)) == len(finishes),
        "no_receive_after_start_within_slot": bool(np.all(after < receive_t)),
        "updates_span_a_boundary": bool(np.all(assignment.start_slot < nu)),
    }


def membership_sizes(assignment: GlobalIterationAssignment) -> list[int]:
    """The number of workers that finish an update in each slot 1..S."""
    order = np.lexsort((assignment.worker, assignment.finish_slot))
    nu, worker = assignment.finish_slot[order], assignment.worker[order]
    first = np.ones(len(nu), dtype=bool)  # the first update of its (slot, worker) pair
    first[1:] = (np.diff(nu) != 0) | (np.diff(worker) != 0)
    S = assignment.num_slots
    return np.bincount(nu[first], minlength=S + 1)[1:S + 1].tolist()


def measure_omega(assignment: GlobalIterationAssignment) -> int:
    """Smallest window omega such that every worker appears in every run of
    omega consecutive slots (the initial states count as slot-0 updates for
    all workers): the largest gap between consecutive slots in which one
    worker appears, with slots 0 and S+1 counted as appearances."""
    S = assignment.num_slots
    nu, worker = assignment.finish_slot, assignment.worker
    inside = (nu > 0) & (nu <= S)
    omega = 1
    for k in set(range(1, assignment.num_workers + 1)).union(worker.tolist()):
        present = np.unique(np.concatenate([[0, S + 1], nu[inside & (worker == k)]]))
        omega = max(omega, int(np.diff(present).max()))
    return omega


# --------------------------------------------------------------------------
# snapshots along the slot boundaries


def _trace_dims(meta):
    """Start vectors x0 and z0, the z slice of each edge and each worker's z
    slices (in edge order) from the trace metadata, checked for consistency."""
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
    0 holds the start vector and, as no multiplier is known yet, zeros.
    ``blocks`` are each worker's z slices, in edge order."""

    z: np.ndarray
    x: dict[int, np.ndarray]
    lam: dict[int, np.ndarray]
    seen: dict[int, np.ndarray]
    blocks: dict[int, list[slice]]


def slot_snapshots(index: TraceIndex, assignment: GlobalIterationAssignment) -> SlotSnapshots:
    """The :class:`SlotSnapshots` along the assignment's slot boundaries.
    Each boundary measures the z_update and compute_end events in log order
    up to the first one later than it; each edge's z blocks and each
    worker's x and lam become one array."""
    x0, z0, slices, z_blocks = _trace_dims(index.meta)
    times = np.maximum.accumulate(np.array([*assignment.boundaries, assignment.end_time]))
    pos = index.of("z_update", "compute_end")
    # an event is measured at the first boundary phi that reaches its time
    # and every earlier event's; len(times) + 1 if none does
    phi = np.searchsorted(times, np.maximum.accumulate(index.time[pos])) + 1
    pos, phi = pos[phi <= len(times)], phi[phi <= len(times)]
    z_pos = index.of("z_update")
    is_z = np.isin(pos, z_pos)
    z_rows = [index.z_updates[i] for i in np.searchsorted(z_pos, pos[is_z]).tolist()]
    end_rows = [index.updates[i]
                for i in np.searchsorted(index.of("compute_end"), pos[~is_z]).tolist()]
    at = np.arange(len(times) + 1)
    z = np.tile(z0, (len(times) + 1, 1))
    x, lam, seen = {}, {}, {}
    try:
        edges = [edge for edge, _ in z_rows]
        if not set(edges) <= set(range(len(slices))):
            raise IndexError(edges)
        edge = np.fromiter(edges, dtype=np.intp, count=len(edges))
        for e, sl in enumerate(slices):
            rows = np.flatnonzero(edge == e)
            # a z of another length than its edge's makes the rows ragged: ValueError
            blocks = np.array([z0[sl], *(z_rows[i][1] for i in rows.tolist())], dtype=float)
            z[1:, sl] = blocks[np.searchsorted(phi[is_z][rows], at[1:], side="right")]
        worker = index.worker[pos[~is_z]]
        if not ((worker >= 1) & (worker <= len(x0))).all():
            raise IndexError(worker)
        for k, start in enumerate(x0, start=1):
            rows = np.flatnonzero(worker == k)
            own = [end_rows[i] for i in rows.tolist()]
            x[k] = np.array([start, *(row[0] for row in own)], dtype=float)
            lams = [row[1] for row in own]
            lam[k] = np.array([np.zeros(np.shape(lams[0] if lams else [])), *lams], dtype=float)
            if x[k].ndim != 2 or lam[k].ndim != 2:
                raise ValueError(x[k].shape, lam[k].shape)
            seen[k] = np.searchsorted(phi[~is_z][rows], at, side="right")
    except (KeyError, TypeError, ValueError, IndexError):
        pass  # find the first event that cannot be measured, as a loop would
    else:
        return SlotSnapshots(z, x, lam, seen, z_blocks)
    z_rows, end_rows = iter(z_rows), iter(end_rows)
    for i, z_event in zip(pos.tolist(), is_z.tolist()):
        kind, worker, time = index.kinds[index.code[i]], index.worker[i], index.time[i].item()
        try:
            if z_event:
                edge, value = next(z_rows)
                edge, value = _present(edge, "edge"), np.asarray(_present(value, "z"), dtype=float)
                if edge not in range(len(slices)) or value.shape != z0[slices[int(edge)]].shape:
                    raise IndexError(f"edge {edge!r} of {len(slices)}, z of shape {value.shape}")
            elif worker not in range(1, len(x0) + 1):
                raise IndexError(f"worker {worker} is not one of {len(x0)}")
            else:
                for value, key in zip(next(end_rows), ("x", "lam")):
                    np.asarray(_present(value, key), dtype=float)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            raise TraceError(f"malformed {kind} event at t={time}: {err}") from None
    raise TraceError("compute_end records give a worker x or lam of differing shapes")


def _dots(d: np.ndarray) -> np.ndarray:
    """``float(row @ row)`` for each row of d, bit for bit: the matmul inner
    loop that ``row @ row`` runs, over the stack of rows."""
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


def _fold(values: np.ndarray) -> float:
    """The values added left to right, as a loop adds them."""
    return reduce(add, values.tolist(), 0.0)


def check_staleness_bound(assignment: GlobalIterationAssignment, snapshots: SlotSnapshots,
                          omega: int) -> dict:
    """Consensus-staleness inequality over the whole trace, as the report's
    ``staleness_bound`` section.

    The staleness each updater saw, summed over all updates,

        lhs = sum_phi sum_{k in A_phi} ||z_k^{nu_bar_k + 1} - z_k^phi||^2,

    is bounded by 2 (omega-1)^2 times the summed consensus movement
    sum_phi ||z^{phi+1} - z^phi||^2. A tighter variant with factor
    (omega-1)^2 is also evaluated and reported alongside; the verdict uses
    the looser guaranteed factor. With omega = 1 the left side must vanish.
    ``omega`` is :func:`measure_omega` of the assignment. The sums add the
    same terms in the same order as a loop over the updates and their
    blocks.
    """
    z = snapshots.z
    nu_bar, nu, worker = assignment.start_slot, assignment.finish_slot, assignment.worker
    totals = np.zeros(len(nu))
    for k, worker_blocks in snapshots.blocks.items():
        rows = np.flatnonzero((worker == k) & (nu >= 1))
        for sl in worker_blocks:
            totals[rows] += _dots(z[nu_bar[rows] + 1, sl] - z[nu[rows], sl])
    lhs = _fold(totals)
    movement = _fold(_dots(np.diff(z[1:assignment.num_slots + 2], axis=0)))
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


def check_lambda_bound(assignment: GlobalIterationAssignment, snapshots: SlotSnapshots,
                       c_const: float, m1: float) -> list[dict]:
    """Per-slot multiplier movement bound ||lam^{nu+1} - lam^nu||^2 <=
    c m1^2 ||x^{nu+1} - x^nu||^2, checked for every updater of every slot;
    each violation as ``{slot, worker, lhs, rhs}``.

    Each worker's first update is exempt: the bound rests on local
    stationarity holding at both ends of the difference, and the supplied
    start point carries no such relation. The comparison allows a small
    relative slack because the bound is tight for quadratic objectives and
    the local solver leaves a stationarity residual of its own. Constants
    are user estimates, so violations are reported for inspection rather
    than raised."""
    nu, worker = assignment.finish_slot, assignment.worker
    checked = (nu >= 1) & (assignment.cycle != 0)
    lhs, rhs = np.full(len(nu), np.nan), np.zeros(len(nu))  # nan: not checked
    for k, seen in snapshots.seen.items():
        rows = np.flatnonzero(checked & (worker == k))
        after, before = seen[nu[rows] + 1], seen[nu[rows]]
        known = after > 0  # a multiplier after the slot
        rows, after, before = rows[known], after[known], before[known]
        lhs[rows] = _dots(snapshots.lam[k][after] - snapshots.lam[k][before])
        rhs[rows] = c_const * m1 * m1 * _dots(snapshots.x[k][after] - snapshots.x[k][before])
    violated = lhs > rhs + 1e-5 * np.where(rhs > 1.0, rhs, 1.0)
    return [{"slot": int(nu[i]), "worker": int(worker[i]), "lhs": float(lhs[i]),
             "rhs": float(rhs[i])}
            for i in np.flatnonzero(violated).tolist()]


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.m2 < 1.0:
            raise ValueError("m2 must be at least 1")
        if self.omega < 1:
            raise ValueError("omega must be a positive integer")


def parameter_bounds(consts: DiagnosticConstants, rho: float) -> dict:
    """The report's ``parameter_bounds`` section: the admissible lower
    bounds for the penalty and the proximal weight,

        rho_min  = (gamma + c m1^2) m2^2
                   + sqrt((gamma + c m1^2)^2 m2^4 + 4 c m1^2 m2^2)
        alpha_min = (2 rho m2^4 + 1)(omega - 1)^2 / 2 - rho,

    and whether ``rho`` exceeds rho_min and alpha = 0 meets alpha_min. With
    omega = 1 the proximal bound is -rho, so alpha = 0 is admissible.
    """
    s = consts.gamma + consts.c * consts.m1**2
    rho_min = s * consts.m2**2 + math.sqrt(
        s**2 * consts.m2**4 + 4.0 * consts.c * consts.m1**2 * consts.m2**2
    )
    alpha_min = (2.0 * rho * consts.m2**4 + 1.0) * (consts.omega - 1) ** 2 / 2.0 - rho
    return {"rho": rho, "rho_min": rho_min, "alpha_min": alpha_min,
            "rho_admissible": rho > rho_min, "alpha_zero_admissible": alpha_min <= 0.0}


def check_kkt(
    problem: PartitionedProblem,
    x_all: list[Array],
    z_global: Array,
    lam_all: list[Array],
    tol: float = 1e-3,
) -> dict:
    """First-order optimality residuals of a candidate solution, as the
    report's ``kkt`` section.

    Three families: per-region stationarity of the local Lagrangian (the
    indicator of the feasible set is represented by the projected gradient
    at the box, with equality multipliers estimated by least squares on the
    inactive coordinates), per-edge multiplier consistency
    ||lam_k + lam_l||_inf, and per-region primal agreement ||A x - z||_inf.
    ``passed`` holds when every residual is at most ``tol``, so a NaN
    residual fails.
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
    passed = all(v <= tol for v in (*stationarity, *multiplier, *primal))
    return {"stationarity": stationarity, "multiplier_consistency": multiplier,
            "primal": primal, "tol": tol, "passed": passed}


def objective_gap(distributed: float, centralized: float) -> dict:
    """The report's ``baseline`` section: both objectives, the absolute gap
    |f_dist - f_cent| and the percent gap 100 |f_dist - f_cent| / |f_cent|,
    None against a zero baseline, where only the absolute gap is meaningful."""
    diff = abs(distributed - centralized)
    return {"centralized_objective": centralized, "distributed_objective": distributed,
            "gap_percent": None if centralized == 0.0 else 100.0 * diff / abs(centralized),
            "gap_absolute": diff}


# --------------------------------------------------------------------------
# trace well-formedness and the aggregate report


def verify_trace_wellformed(index: TraceIndex) -> dict:
    """Structural checks: one send per (sender, edge, sender_iter), every
    receive matching an earlier send to it by that identity, causal
    timestamps. The per-worker start/end alternation is checked by
    :func:`assign_global_iterations`, which raises TraceError on a break."""
    sends, receive_ok, causal = {}, True, True  # sends by (sender, edge, sender_iter)
    pos = index.of("send", "receive")
    is_send = np.isin(pos, index.of("send")).tolist()
    for send, worker, time, (peer, edge, sender_iter) in zip(
            is_send, index.worker[pos].tolist(), index.time[pos].tolist(), index.messages):
        try:
            key = (worker if send else peer, edge, sender_iter)
            src = sends.get(key)
            if send:
                sends[key] = (peer, time)
        except TypeError:  # an unhashable identity matches no send
            src = None
        if send:
            receive_ok &= src is None  # no earlier send has its identity
        elif src is None or src[0] != worker:
            receive_ok = False
        elif time < src[1]:
            causal = False
    return {
        "receives_match_sends": receive_ok,
        "arrivals_after_sends": causal,
        "events_time_ordered": bool(np.all(index.time[:-1] <= index.time[1:])),
    }


def timing_from_trace(assignment: GlobalIterationAssignment) -> dict[int, dict]:
    """Compute-vs-wait split per worker over the virtual timeline up to the
    assignment's ``end_time``, from its columns. A worker's compute time adds
    each finished update's end and subtracts its start in log order, then the
    update still open at the end."""
    worker, open_start, end_time = assignment.worker, assignment.open_start, assignment.end_time
    out = {}
    for k in sorted(open_start.keys() | set(worker.tolist())):
        own = worker == k
        steps = np.column_stack([assignment.end_t[own], -assignment.start_t[own]]).ravel()
        c = _fold(steps) + (max(end_time - open_start[k], 0.0) if k in open_start else 0.0)
        wait = max(end_time - c, 0.0)
        total = c + wait
        out[k] = {
            "compute_ms": c,
            "wait_ms": wait,
            "wait_fraction": wait / total if total > 0 else 0.0,
        }
    return out


def _final_state(index: TraceIndex, problem: PartitionedProblem):
    """The final x, lam per region and z from the trace's ``final`` and
    ``final_z`` records, checked against the problem's dimensions and for
    finite values; None when the trace has none (an aborted run)."""
    if not index.finals or not index.final_z:
        return None
    K = problem.num_regions
    if len(index.finals) != K:
        raise TraceError(f"trace holds {len(index.finals)} final records for {K} regions")
    try:
        x_all = [np.asarray(x, dtype=float) for x, _ in index.finals]
        lam_all = [np.asarray(lam, dtype=float) for _, lam in index.finals]
        z = np.asarray(index.final_z[-1], dtype=float)
    except (TypeError, ValueError) as err:
        raise TraceError(f"trace holds a non-numeric final state: {err}") from None
    for k, region, x, lam in zip(range(1, K + 1), problem.regions, x_all, lam_all):
        if x.shape != (region.dim_x,) or lam.shape != (region.boundary_rows,):
            raise TraceError(f"final record {k} holds x of shape {x.shape} and lam of shape "
                             f"{lam.shape}, region {k} needs ({region.dim_x},) and "
                             f"({region.boundary_rows},)")
        if not (np.isfinite(x).all() and np.isfinite(lam).all()):
            raise TraceError(f"final record {k} holds a non-finite x or lam")
    if z.shape != (problem.boundary_dim,):
        raise TraceError(f"final z has shape {z.shape}, the problem needs "
                         f"({problem.boundary_dim},)")
    if not np.isfinite(z).all():
        raise TraceError("final z holds a non-finite value")
    return x_all, lam_all, z


def analyze_trace(
    index: TraceIndex,
    problem: PartitionedProblem | None = None,
    constants: DiagnosticConstants | None = None,
    kkt_tol: float | None = None,
) -> dict:
    """Full diagnostic report over one indexed trace, JSON-serialisable;
    every pass reads the index or what was built from it. The KKT tolerance
    is ``kkt_tol``, else the run's ``stop.tol`` (1e-3 if the trace has none)."""
    report: dict = {"status": index.status, "end_time_ms": index.end_time}
    assignment = assign_global_iterations(index)
    report["wellformed"] = verify_trace_wellformed(index)
    omega = measure_omega(assignment)
    report["global_iterations"] = {
        "boundaries": assignment.boundaries,
        "num_slots": assignment.num_slots,
        "membership_sizes": membership_sizes(assignment),
        "rules": verify_slicing_rules(assignment, index),
    }
    report["omega"] = omega
    snapshots = slot_snapshots(index, assignment)
    report["staleness_bound"] = check_staleness_bound(assignment, snapshots, omega)
    if constants is not None:
        violations = check_lambda_bound(assignment, snapshots, constants.c, constants.m1)
        try:
            rho = float(index.meta.get("params", {}).get("rho", 0.0)) or 1.0
        except (AttributeError, TypeError, ValueError):
            raise TraceError("trace metadata holds a malformed params.rho") from None
        report["lambda_bound"] = {"violations": violations, "num_violations": len(violations)}
        report["parameter_bounds"] = parameter_bounds(replace(constants, omega=omega), rho)
    final = _final_state(index, problem) if problem is not None else None
    if final is not None:
        x_all, lam_all, z_final = final
        if kkt_tol is None:
            stop = index.meta.get("stop", {"tol": 1e-3})
            kkt_tol = stop.get("tol") if isinstance(stop, dict) else None
            if not (isinstance(kkt_tol, (int, float)) and 0 < kkt_tol < math.inf):
                raise TraceError("trace metadata holds a malformed stop.tol")
        report["kkt"] = check_kkt(problem, x_all, z_final, lam_all, tol=kkt_tol)
        report["objective"] = problem.total_objective(x_all)
    report["timing"] = timing_from_trace(assignment)
    return report
