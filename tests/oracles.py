"""Test oracles that the library itself does not need: the augmented
Lagrangian value, the double-well toy's constants and grid minimum, a
reader for the convergence table, the straight-line synchronous ADMM loop,
the line-by-line trace reader, and the earlier forms of the local solver's
Newton direction and of an OPF region's equality and Jacobian. Not
collected as tests.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from asyncadmm.caseio import _TRACE_HEADER, RESULTS_HEADER, ParseError
from asyncadmm.engine import EventTrace, TraceEvent
from asyncadmm.kernel import (
    AdmmParams,
    WorkerState,
    initial_z,
    lambda_update,
    x_update,
    z_update,
)
from asyncadmm.opf import OpfCase, RegionLayout, admittance_matrix
from asyncadmm.problem import (
    NONCONVEX_TOY_BOUND,
    Array,
    PartitionedProblem,
    RegionSpec,
    flat_start,
)


@dataclass(frozen=True)
class LagrangianValue:
    feasible: bool
    value: float | None
    max_violation: float


def _violation(region: RegionSpec, x: Array) -> float:
    box = max(np.max(region.lower - x, initial=0.0), np.max(x - region.upper, initial=0.0))
    if region.equality is None:
        return float(box)
    h = np.asarray(region.equality(x), dtype=float)
    return float(max(box, np.max(np.abs(h), initial=0.0)))


def augmented_lagrangian(
    problem: PartitionedProblem,
    x_all: list[Array],
    z_global: Array,
    lam_all: list[Array],
    params: AdmmParams,
    feas_tol: float = 1e-6,
) -> LagrangianValue:
    """Sum over regions of f_k + lam_k.(A_k x_k - z_k) + (rho/2)||A_k x_k - z_k||^2.

    The consensus constraint on z holds by construction (one block per edge).
    If any x_k violates its box or equality constraints beyond ``feas_tol``
    the value is undefined: the result carries ``feasible=False`` and no
    scalar, never a synthetic large number.
    """
    xs = [np.asarray(x, dtype=float) for x in x_all]
    worst = max(_violation(r, x) for r, x in zip(problem.regions, xs))
    if worst > feas_tol:
        return LagrangianValue(feasible=False, value=None, max_violation=worst)
    total = 0.0
    for k, (region, x) in enumerate(zip(problem.regions, xs), start=1):
        r = region.boundary_map @ x - problem.region_z(z_global, k)
        total += region.objective(x) + float(lam_all[k - 1] @ r) + 0.5 * params.rho * float(r @ r)
    return LagrangianValue(feasible=True, value=total, max_violation=worst)


def nonconvex_toy_constants() -> dict[str, float]:
    """Curvature/conditioning constants of the double-well toy, exact for the
    shipped box: gamma and m1 are max |f''| over [-1.25, 1.25], the boundary
    maps are 1-D identities (m2 = 1, c = 1)."""
    b = NONCONVEX_TOY_BOUND
    curvature = max(12.0 * b * b - 4.0, 2.0)
    return {"gamma": curvature, "m1": curvature, "m2": 1.0, "c": 1.0}


def nonconvex_toy_minimum(step: float = 1e-4) -> tuple[float, float]:
    """Consensus minimiser of the double-well toy by exhaustive grid search
    over [-2, 2]; returns (argmin, value)."""
    xs = np.arange(-2.0, 2.0 + step / 2, step)
    vals = (xs**2 - 1.0) ** 2 + (xs - 0.5) ** 2
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def read_results(path) -> list[tuple]:
    """Rows of a convergence table written by ``caseio.write_results``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != RESULTS_HEADER:
            raise ParseError(f"unexpected results header {header!r}", line=1)
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError("results row needs 5 columns", line=line_no)
            try:
                rows.append((int(parts[0]), float(parts[1]), float(parts[2]),
                             float(parts[3]), float(parts[4])))
            except ValueError:
                raise ParseError("results row is not numeric", line=line_no) from None
    return rows


def _interned_keys(pairs: list[tuple]) -> dict:
    return {sys.intern(key): value for key, value in pairs}


_decode_payload = json.JSONDecoder(object_pairs_hook=_interned_keys).decode


def read_trace_by_line(path) -> EventTrace:
    """The trace reader as it was before it decoded the file at once and
    called the JSON scanner directly, reading one line at a time; the new
    reader must give the same events and the same errors (message, line and
    byte offset)."""
    trace = None
    saw_end = False
    offset = line_no = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as err:
                raise ParseError("trace is not valid UTF-8", offset=offset + err.start) from None
            if trace is None:
                if not line.startswith(_TRACE_HEADER + " "):
                    raise ParseError("missing trace header", line=1, offset=0)
                try:
                    trace = EventTrace(meta=json.loads(line[len(_TRACE_HEADER) + 1:]))
                except json.JSONDecodeError as err:
                    raise ParseError(f"bad trace metadata: {err.msg}", line=1,
                                     offset=err.pos) from None
            elif line:
                saw_end |= _read_event(trace, line, line_no, offset)
            offset += len(raw)
    if trace is None:
        raise ParseError("missing trace header", line=1, offset=0)
    if not saw_end:
        raise ParseError("truncated trace: no end record", line=line_no, offset=offset)
    return trace


def _read_event(trace: EventTrace, line: str, line_no: int, offset: int) -> bool:
    """Append one event record to ``trace``; True for the end record."""
    parts = line.split(" ", 5)
    if len(parts) != 6:
        raise ParseError("malformed event record", line=line_no, offset=offset)
    kind, worker_s, iter_s, time_s, _digest, payload_s = parts
    try:
        worker = int(worker_s)
        local_iter = int(iter_s)
        time = float(time_s)
        payload = _decode_payload(payload_s)
    except (ValueError, json.JSONDecodeError):
        raise ParseError("malformed event record", line=line_no, offset=offset) from None
    if not math.isfinite(time):
        raise ParseError(f"non-finite event time {time_s!r}", line=line_no, offset=offset)
    if not isinstance(payload, dict):
        raise ParseError("event payload is not a JSON object", line=line_no, offset=offset)
    kind = sys.intern(kind)
    trace.events.append(TraceEvent(kind, worker, local_iter, time, payload))
    if kind == "end":
        trace.status = payload.get("status", "incomplete")
        trace.end_time = time
    # the analysis reads the final state from these records
    try:
        if kind == "final" and not {"x", "lam"} <= payload.keys():
            raise KeyError("x, lam")
        if kind == "final_z":
            np.asarray(payload["z"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"malformed {kind} record", line=line_no, offset=offset) from None
    return kind == "end"


def newton_direction(H, g, x, lo, hi, D):
    """The local solver's two-metric Newton direction as it was before its
    thresholds and identity were hoisted out of the call and the free block
    was gathered with ``take``; the new one must agree with it bit for bit."""
    eps = 1e-10
    free = ~(((x <= lo + eps) & (g > 0)) | ((x >= hi - eps) & (g < 0)))
    if not free.any():
        return -g / D
    all_free = free.all()
    Hf, gf = (H, g) if all_free else (H[np.ix_(free, free)], g[free])
    n = gf.size
    reg = 1e-9 * max(float(Hf.trace()) / n, 1.0)
    eye = np.eye(n)
    for _ in range(6):
        try:
            step = np.linalg.solve(Hf + reg * eye, -gf)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.isfinite(step).all() and float(gf @ step) < 0:
            if all_free:
                return step
            d = -g / D
            d[free] = step
            return d
        reg *= 100.0
    return None


def opf_equality_and_jacobian(case: OpfCase, layout: RegionLayout):
    """A region's power-balance equality h and Jacobian J as they were built
    before V and I were shared between them and J was filled through flat
    indices; each call evaluates from scratch. The compiled region's h and
    J must agree with these bit for bit."""
    base = case.base_mva
    idx = case.bus_index()
    own_ids = layout.own_bus_ids
    Y = admittance_matrix(case)
    Yloc = Y[np.ix_([idx[b] for b in own_ids],
                    [idx[b] for b in own_ids + layout.dup_bus_ids])]
    n_own, dim = layout.n_own, layout.dim
    p_load = np.array([case.bus(b).p_load for b in own_ids]) / base
    q_load = np.array([case.bus(b).q_load for b in own_ids]) / base
    gen_pos = np.array([own_ids.index(case.generators[g].bus) for g in layout.gen_indices],
                       dtype=int)
    e_sl, f_sl, u_sl = layout.e, layout.f, layout.u
    p_sl, q_sl = layout.p, layout.q
    ed_sl, fd_sl = layout.e_dup, layout.f_dup
    own = np.arange(n_own)
    own_e, own_f = e_sl.start + own, f_sl.start + own
    e_loc = np.concatenate([own_e, np.arange(ed_sl.start, ed_sl.stop)])
    f_loc = np.concatenate([own_f, np.arange(fd_sl.start, fd_sl.stop)])
    ef_cols = np.concatenate([e_loc, f_loc])
    Yconj = np.conj(Yloc)

    def equality(x):
        V = x[e_loc] + 1j * x[f_loc]
        I = Yloc @ V
        p_bus = np.bincount(gen_pos, weights=x[p_sl], minlength=n_own)
        q_bus = np.bincount(gen_pos, weights=x[q_sl], minlength=n_own)
        S = (p_bus - p_load) + 1j * (q_bus - q_load)
        mism = S - V[:n_own] * np.conj(I)
        u_gap = x[e_sl] ** 2 + x[f_sl] ** 2 - x[u_sl]
        return np.concatenate([mism.real, mism.imag, u_gap])

    diag = (own, own)
    u_rows = 2 * n_own + own
    J_const = np.zeros((3 * n_own, dim))
    for j, pos in enumerate(gen_pos):
        J_const[pos, p_sl.start + j] = 1.0
        J_const[n_own + pos, q_sl.start + j] = 1.0
    J_const[u_rows, u_sl.start + own] = -1.0
    re, im = slice(0, n_own), slice(n_own, 2 * n_own)

    def jacobian(x):
        V = x[e_loc] + 1j * x[f_loc]
        I = Yloc @ V
        dV = Yconj * V[:n_own][:, None]
        conj_I = np.conj(I)
        dSdE = dV.copy()
        dSdE[diag] += conj_I
        dSdF = -1j * dV
        dSdF[diag] += 1j * conj_I
        J = J_const.copy()
        dS = np.concatenate([dSdE, dSdF], axis=1)
        J[re, ef_cols] = -dS.real
        J[im, ef_cols] = -dS.imag
        J[u_rows, own_e] = 2.0 * x[e_sl]
        J[u_rows, own_f] = 2.0 * x[f_sl]
        return J

    return equality, jacobian


@dataclass
class SyncIterate:
    """One synchronous iteration: the consensus vector used by the local
    solves, the new local iterates and multipliers, and the residue."""

    z: Array
    x: list[Array]
    lam: list[Array]
    residue: float
    mismatch: float


@dataclass
class SyncRun:
    iterates: list[SyncIterate]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def run_sync_reference(
    problem: PartitionedProblem,
    params: AdmmParams,
    x0: list[Array] | None = None,
    tol: float = 1e-3,
    max_iters: int = 1000,
) -> SyncRun:
    """Plain synchronous loop (consensus step, then every region's local
    solve and multiplier step, each iteration); ground truth for equivalence
    tests. With one region and no edges the first local solve is the
    centralized problem."""
    K = problem.num_regions
    if x0 is None:
        x0 = [flat_start(problem.region(k)) for k in range(1, K + 1)]
    x = [np.asarray(v, dtype=float).copy() for v in x0]
    lam = [np.zeros(problem.region(k).boundary_rows) for k in range(1, K + 1)]
    z = initial_z(problem, x)
    solver_warm: dict[int, tuple | None] = {k: None for k in range(1, K + 1)}
    iterates: list[SyncIterate] = []
    converged = False
    for _ in range(max_iters):
        z_prev = z.copy()
        for i, e in enumerate(problem.edges):
            sl = problem.edge_slice(i)
            ax_k = problem.region(e.k).boundary_map @ x[e.k - 1]
            ax_l = problem.region(e.l).boundary_map @ x[e.l - 1]
            z[sl] = z_update(
                e,
                lam[e.k - 1][e.block_of(e.k)], lam[e.l - 1][e.block_of(e.l)],
                ax_k[e.block_of(e.k)], ax_l[e.block_of(e.l)],
                z_prev[sl], params,
            )
        max_res = 0.0
        mismatch = 0.0
        new_x, new_lam = [], []
        for k in range(1, K + 1):
            region = problem.region(k)
            z_k = problem.region_z(z, k)
            state = WorkerState(
                region_index=k, x=x[k - 1], lam=lam[k - 1], z=z_k,
                ax=region.boundary_map @ x[k - 1],
            )
            result = x_update(region, state, params, warm_state=solver_warm[k])
            solver_warm[k] = result.warm_state
            ax_new = region.boundary_map @ result.x
            lam_new = lambda_update(state, ax_new, z_k, params)
            z_k_prev = problem.region_z(z_prev, k)
            if z_k.size:
                gamma = max(
                    float(np.max(np.abs(ax_new - z_k))),
                    float(np.max(np.abs(z_k - z_k_prev))),
                )
            else:
                gamma = 0.0
            max_res = max(max_res, gamma)
            mismatch = max(mismatch, result.constraint_norm)
            new_x.append(result.x)
            new_lam.append(lam_new)
        x, lam = new_x, new_lam
        iterates.append(SyncIterate(
            z=z.copy(), x=[v.copy() for v in x], lam=[v.copy() for v in lam],
            residue=max_res, mismatch=mismatch,
        ))
        if max_res <= tol and mismatch <= tol:
            converged = True
            break
    return SyncRun(iterates=iterates, converged=converged)
