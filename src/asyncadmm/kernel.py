"""The algebra of one ADMM step.

All functions here are pure: x-subproblem assembly, the multiplier update,
the closed-form proximal consensus update for one edge, the per-worker
residue, and the multiplier box projection. The one thing kept between
calls is :func:`penalty_model`, the penalty curvature rho A^T A with the
local solver's constants for it, which a driver builds once per worker and
run. Synchronous and asynchronous drivers share these primitives so their
iterates can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .localsolver import NewtonModel, SolveResult, _clip, _max, last_point_memo, solve_local
from .problem import Array, CouplingEdge, PartitionedProblem, RegionSpec


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight rho, proximal weight alpha on the consensus update,
    waiting threshold p, and the multiplier projection box.

    The projection box defaults to [-1e6, 1e6] per coordinate: wide enough to
    stay inactive on all shipped fixtures, present so the multipliers are
    bounded by construction.
    """

    rho: float
    alpha: float = 0.0
    p: float = 1.0
    lambda_min: float = -1.0e6
    lambda_max: float = 1.0e6

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be nonnegative and finite")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not self.lambda_min <= self.lambda_max:
            raise ValueError("lambda box is empty or not a number")


@dataclass
class WorkerState:
    """One region's mutable iterate: x, multipliers, consensus snapshot.

    ``z`` is the snapshot of this worker's boundary blocks taken at the start
    of its current x-update; ``ax`` caches A_k x for the current x. ``lam``
    and ``z`` always have as many entries as A_k has rows. ``local_iter``
    counts completed local cycles and never decreases.
    """

    region_index: int
    x: Array
    lam: Array
    z: Array
    ax: Array
    local_iter: int = 0
    residue: float | None = None
    constraint_violation: float = 0.0

    @classmethod
    def initial(cls, problem: PartitionedProblem, k: int, x0: Array, z_global: Array):
        region = problem.region(k)
        x0 = np.asarray(x0, dtype=float)
        z = problem.region_z(z_global, k)
        return cls(
            region_index=k,
            x=x0,
            lam=np.zeros(region.boundary_rows),
            z=z,
            ax=region.boundary_map @ x0,
        )


class BoundaryPenalty:
    """The linear-plus-quadratic coupling term of the x-subproblem:

        g(x) = lam . (A x) + (rho / 2) ||A x - z||^2

    with gradient A^T lam + rho A^T (A x - z); its constant Hessian rho A^T A
    is :func:`penalty_model`'s. ``value`` and ``grad`` at one point share
    A x and A x - z.
    """

    def __init__(self, A: Array, lam: Array, z: Array, rho: float):
        self.A, self.lam, self.z, self.rho = A, lam, z, rho

        @last_point_memo
        def residual(x):
            ax = A @ x
            return ax, ax - z

        self._residual = residual

    def value(self, x: Array) -> float:
        ax, r = self._residual(x)
        return float(self.lam @ ax + 0.5 * self.rho * (r @ r))

    def grad(self, x: Array) -> Array:
        r = self._residual(x)[1]
        return self.A.T @ (self.lam + self.rho * r)


def penalty_model(region: RegionSpec, rho: float) -> NewtonModel:
    """The region's Newton model under the penalty's constant curvature
    (rho A^T A, its diagonal); rho is fixed for a run, so one serves every
    x-update of the region's worker."""
    A = region.boundary_map
    return NewtonModel(region, extra=(rho * (A.T @ A), rho * (A * A).sum(axis=0)))


def project_lambda(lam: Array, lower, upper) -> Array:
    """Coordinatewise clamp onto the multiplier box; idempotent."""
    return _clip(lam, lower, upper)


def x_update(region: RegionSpec, state: WorkerState, params: AdmmParams, model: NewtonModel,
             warm: SolveResult | None = None) -> SolveResult:
    """Solve the local x-subproblem

        argmin_x  f_k(x) + lam . (A x) + (rho / 2) ||A x - state.z||^2

    over the region's feasible set, warm-started from the current x and, if
    given, from ``warm``, the region's previous solve. ``model`` is
    :func:`penalty_model` of the region and ``params.rho``. ``state.z`` must
    be the snapshot taken at the start of this update. Returns the solver
    result (minimiser plus diagnostics).
    """
    penalty = BoundaryPenalty(region.boundary_map, state.lam, state.z, params.rho)
    return solve_local(region, penalty, state.x, warm=warm, model=model)


def lambda_update(state: WorkerState, ax_new: Array, z_snapshot: Array, params: AdmmParams) -> Array:
    """lam + rho (A x_new - z_snapshot) of float arrays, projected onto the
    multiplier box."""
    if ax_new.shape != state.lam.shape or z_snapshot.shape != state.lam.shape:
        raise ValueError("lambda update: vector lengths differ")
    return project_lambda(
        state.lam + params.rho * (ax_new - z_snapshot), params.lambda_min, params.lambda_max
    )


def z_update(
    edge: CouplingEdge,
    lam_kl: Array,
    lam_lk: Array,
    ax_k: Array,
    ax_l: Array,
    z_prev: Array,
    params: AdmmParams,
) -> Array:
    """Closed-form proximal consensus update for one edge block:

        z = (lam_kl + lam_lk + rho ax_k + rho ax_l + alpha z_prev) / (2 rho + alpha)

    The same value serves as both regions' copy of the block. The output
    satisfies the stationarity identity

        lam_kl + lam_lk + rho (ax_k - z) + rho (ax_l - z) - alpha (z - z_prev) = 0

    to floating-point accuracy. All five vectors are float arrays.
    """
    if not lam_kl.shape == lam_lk.shape == ax_k.shape == ax_l.shape == z_prev.shape \
            == (edge.dim,):
        raise ValueError(f"z update on edge ({edge.k},{edge.l}): expected length {edge.dim}")
    return (lam_kl + lam_lk + params.rho * ax_k + params.rho * ax_l + params.alpha * z_prev) / (
        2.0 * params.rho + params.alpha
    )


def residue(state: WorkerState, z_prev: Array) -> float:
    """Infinity norm of the stacked primal (A x - z) and dual (z - z_prev)
    residuals of one worker; ``z_prev`` is a float array."""
    if z_prev.shape != state.z.shape:
        raise ValueError("residue: z_prev length differs from state.z")
    if state.z.size == 0:
        return 0.0
    primal = state.ax - state.z
    dual = state.z - z_prev
    return float(max(_max(np.abs(primal)), _max(np.abs(dual))))


def initial_z(problem: PartitionedProblem, x_all: list[Array]) -> Array:
    """Edge-wise average of the two regions' boundary values at x_all.

    This is the consensus minimiser for zero multipliers, so a first
    consensus update from the same data leaves it unchanged; both drivers
    initialise z this way.
    """
    z = np.zeros(problem.boundary_dim)
    for i, e in enumerate(problem.edges):
        ax_k = problem.region(e.k).boundary_map @ np.asarray(x_all[e.k - 1], dtype=float)
        ax_l = problem.region(e.l).boundary_map @ np.asarray(x_all[e.l - 1], dtype=float)
        z[problem.edge_slice(i)] = 0.5 * (ax_k[e.block_of(e.k)] + ax_l[e.block_of(e.l)])
    return z
