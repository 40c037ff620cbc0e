"""Test oracles that the library itself does not need: the augmented
Lagrangian value, the double-well toy's constants and grid minimum, a
reader for the convergence table, and the earlier forms of the local
solver's Newton direction and of an OPF region's equality and Jacobian.
Not collected as tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from asyncadmm.caseio import RESULTS_HEADER, ParseError
from asyncadmm.kernel import AdmmParams
from asyncadmm.opf import OpfCase, RegionLayout, admittance_matrix
from asyncadmm.problem import NONCONVEX_TOY_BOUND, Array, PartitionedProblem, RegionSpec


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
    e_sl, f_sl, u_sl = layout.e_slice(), layout.f_slice(), layout.u_slice()
    p_sl, q_sl = layout.p_slice(), layout.q_slice()
    ed_sl, fd_sl = layout.e_dup_slice(), layout.f_dup_slice()
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
