"""Local subproblem solver: box bounds handled by projection, smooth equality
constraints by an augmented-Lagrangian outer loop.

The inner loop is monotone projected descent along the box-projection arc
with Armijo backtracking: a two-metric Newton direction on the free
coordinates, and a Barzilai-Borwein scaled gradient step when the Newton
system is unusable or its line search fails. The Newton model of the
augmented objective f + y^T h + (mu/2)|h|^2 is the clamped objective
curvature plus mu J^T J (Gauss-Newton). A region that supplies
``RegionSpec.equality_hessian`` also gets the constraint curvature
sum_i w_i Hessian(h_i) at w = y + mu h, which makes the model the exact
Hessian on the constraint side.

Built once per region and constant extra curvature (a :class:`NewtonModel`,
which the ADMM x-update keeps per region and rho): the box moved 1e-10
inward, the identity, and the clamped curvature model diag(max(d, 0)) plus
the penalty's curvature, rebuilt only when the objective curvature d
changes (the non-convex toy); per iterate: h and J, so the line search's h
at the accepted point serves the gradient, the Newton model and the
stage-end residual. The hot loop calls numpy's ufuncs, their reductions and
the LAPACK solve gufunc directly, without the Python wrappers around them.
The loops are bounded by ``_MAX_STAGES`` outer stages of at most
``_INNER_MAX_ITERS`` inner iterations each.
Everything is deterministic: identical inputs produce bitwise-identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .problem import Array, RegionSpec

# the kernels behind ndarray.clip, np.linalg.solve, .max, .all and .any,
# called on the hot path without their Python wrappers
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip
_solve1 = _umath_linalg.solve1
_max = np.maximum.reduce
_all = np.logical_and.reduce
_any = np.logical_or.reduce

_ARMIJO = 1e-4
_STEP_MIN = 1e-14
_STEP_MAX = 1e12
_PENALTY_MAX = 1e12
_MAX_STAGES = 60  # augmented-Lagrangian outer stages
_INNER_MAX_ITERS = 3000  # inner iterations per stage
_GRAD_TOL = 1e-6  # relative to the start point's gradient magnitude
_CONSTRAINT_TOL = 1e-6
_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0


@dataclass
class SolveResult:
    x: Array
    grad_norm: float
    constraint_norm: float
    outer_iters: int
    inner_iters: int
    eq_multipliers: Array
    penalty: float = 0.0
    # (merit at stage start, merit at stage end) for each outer stage;
    # the inner loop is monotone, so end <= start holds per stage.
    merit_path: list[tuple[float, float]] = field(default_factory=list)
    # the line search hit double-precision resolution before reaching the
    # gradient tolerance; grad_norm then reports the achieved floor
    at_numeric_floor: bool = False

    @property
    def warm_state(self) -> tuple[Array, float]:
        """Carry (equality multipliers, penalty) into the next similar solve."""
        return self.eq_multipliers, self.penalty


class SolveError(RuntimeError):
    """Raised when the solver exhausts its caps with residuals above
    tolerance. Carries the residuals of the most nearly feasible iterate
    found, for the error report."""

    def __init__(self, message: str, grad_norm: float, constraint_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm
        self.constraint_norm = constraint_norm


def last_point_memo(fn):
    """``fn`` keeping its value at the last point asked for, keyed on the exact
    bytes of the point (so -0.0 and 0.0 are different points). The (key,
    value) pair is replaced whole; callers must not modify the value."""
    last = [(None, None)]

    def at_last_point(x: Array):
        key = x.tobytes()
        pair = last[0]
        if key != pair[0]:
            pair = last[0] = (key, fn(x))
        return pair[1]

    return at_last_point


def _projected_gradient_norm(x: Array, g: Array, lo: Array, hi: Array) -> float:
    return float(_max(np.abs(x - _clip(x - g, lo, hi)), initial=0.0))


def _safe_metric(raw: Array) -> Array:
    """Positive diagonal metric from a raw curvature estimate."""
    top = float(_max(raw, initial=0.0))
    if top <= 0.0:
        return np.ones(raw.size)
    return np.maximum(raw, 1e-8 * top)


class NewtonModel:
    """A region's solver constants under a constant extra curvature
    ``extra_H`` (or None): the box, the box moved 1e-10 inward (None when
    no bound is finite: Newton directions are only taken at finite x, where
    such a box pins nothing), the identity, and ``clamped(d)``, the model
    diag(max(d, 0)) + extra_H kept for the last d (keyed on its bytes, so
    x-dependent curvature stays exact). Callers must not modify the model."""

    def __init__(self, region: RegionSpec, extra_H: Array | None = None):
        self.lo, self.hi = region.lower, region.upper
        boxed = np.isfinite(self.lo).any() or np.isfinite(self.hi).any()
        self.lo_in, self.hi_in = (self.lo + 1e-10, self.hi - 1e-10) if boxed else (None, None)
        self.eye = np.eye(region.dim_x)

        @last_point_memo
        def clamped(d):
            # negative objective curvature is clamped out of the Newton model
            H = np.diag(np.maximum(d, 0.0))
            return H if extra_H is None else H + extra_H

        self.clamped = clamped


def _newton_direction(H, g, x, lo_in, hi_in, D, eye):
    """Two-metric descent direction: a damped Newton step on the free
    coordinates, a metric-scaled gradient step on the ones pinned at an
    active bound; returns None when the Newton system is unusable. ``lo_in``
    and ``hi_in`` are the bounds moved 1e-10 inward (None: nothing pinned),
    ``eye`` the identity."""
    if lo_in is None:
        n = x.size
    else:
        idx = (~(((x <= lo_in) & (g > 0)) | ((x >= hi_in) & (g < 0)))).nonzero()[0]
        n = idx.size
    if n == 0:
        return -g / D
    all_free = n == x.size
    Hf, gf = (H, g) if all_free else (H.take(idx, 0).take(idx, 1), g.take(idx))
    reg = 1e-9 * max(float(Hf.trace()) / n, 1.0)
    eye = eye if all_free else eye[:n, :n]
    for _ in range(6):
        system = Hf + reg * eye
        # a singular system comes back as NaN, where np.linalg.solve raises
        with np.errstate(all="ignore"):
            step = _solve1(system, -gf)
        if _all(np.isfinite(step)) and float(gf @ step) < 0:
            if all_free:
                return step
            d = -g / D
            d[idx] = step
            return d
        reg *= 100.0
    return None


def _pg_minimize(value, grad, x, v, g, model, tol, metric, hess):
    """Monotone projected descent with backtracking Armijo line search along
    the box-projection arc, from ``x`` (inside the box of ``model``) with
    value ``v`` and gradient ``g`` there, for at most ``_INNER_MAX_ITERS``
    iterations.

    The search direction is a two-metric Newton step (free coordinates take
    a damped Newton step from ``hess``, bound-pinned coordinates a scaled
    gradient step); when the Newton system is unusable or its line search
    fails, a Barzilai-Borwein scaled gradient step under the diagonal
    ``metric``. The stopping norm is the plain (unscaled) projected
    gradient. Returns (x, value, grad, pg_norm, iterations, stalled) where
    ``stalled`` means the line search could not certify any further
    decrease."""
    D = _safe_metric(metric)
    lo, hi, lo_in, hi_in, eye = model.lo, model.hi, model.lo_in, model.hi_in, model.eye
    t = 1.0
    prev_x = prev_g = None
    it = 0
    stalled = False
    pgn = _projected_gradient_norm(x, g, lo, hi)
    while pgn > tol and it < _INNER_MAX_ITERS:
        direction = _newton_direction(hess(x), g, x, lo_in, hi_in, D, eye)
        accepted = False
        if direction is not None:
            step = 1.0
            for _ in range(30):
                xn = _clip(x + step * direction, lo, hi)
                d = xn - x
                if not _any(d):
                    break
                vn = value(xn)
                if math.isfinite(vn) and vn <= v + _ARMIJO * float(g @ d):
                    accepted = True
                    break
                step *= 0.5
        if not accepted:
            # scaled-gradient step with BB seed
            if prev_x is not None:
                s = x - prev_x
                yg = g - prev_g
                sty = float(s @ yg)
                if sty > 0.0:
                    t = float(s @ (D * s)) / sty
                else:
                    t = min(t * 2.0, _STEP_MAX)
            t = min(max(t, _STEP_MIN), _STEP_MAX)
            step = t
            for _ in range(60):
                xn = _clip(x - (step / D) * g, lo, hi)
                d = xn - x
                if not _any(d):
                    break
                vn = value(xn)
                if math.isfinite(vn) and vn <= v + _ARMIJO * float(g @ d):
                    accepted = True
                    break
                step *= 0.5
        if not accepted:
            stalled = True
            break  # projection arc exhausted: cannot certify further descent
        prev_x, prev_g = x, g
        x, v = xn, vn
        g = grad(x)
        it += 1
        pgn = _projected_gradient_norm(x, g, lo, hi)
    return x, v, g, pgn, it, stalled


def solve_local(
    region: RegionSpec,
    extra,
    x_start,
    eq_multipliers: Array | None = None,
    penalty_start: float | None = None,
    model: NewtonModel | None = None,
) -> SolveResult:
    """Find a local minimiser of f_k(x) + extra(x) over the region's box and
    equality constraints.

    ``extra`` is any object with ``value(x)`` and ``grad(x)`` (or None);
    an optional ``hess_diag(x)`` improves the inner metric, and an optional
    ``hess(x)``, constant in x, joins the Newton model. The start point is
    clamped into the box. ``eq_multipliers`` warm-starts the equality
    multiplier estimates; repeated similar solves (as in an ADMM loop)
    finish in very few outer stages when they are carried over. ``model``
    is the region's :class:`NewtonModel` for ``extra.hess``, built here when
    not given; repeated solves pass the same one.

    The inner Newton model is Gauss-Newton unless the region supplies
    ``equality_hessian``; then the constraint curvature is added and the
    model is exact. That pays off when the equality constraints' curvature
    dominates, as in a cold centralized solve. When a large ``extra`` term
    (an ADMM penalty) dominates instead, Gauss-Newton is as good and cheaper.

    On success the returned point satisfies the box exactly, the equality
    constraints to ``_CONSTRAINT_TOL`` (infinity norm), and the projected
    gradient of the local Lagrangian is below the gradient tolerance. The
    gradient tolerance is relative to the objective's gradient magnitude at
    the start point (floored at 1), so problems stated in large units are
    not held to an absolute cutoff below floating-point resolution. Cap
    exhaustion raises :class:`SolveError` with the best iterate's residuals.

    The only early exit short of the tolerances is the numeric floor: a
    feasible stage whose line search can certify no further decrease
    returns with ``at_numeric_floor`` set. Otherwise a failing solve runs
    to the caps: ``_MAX_STAGES`` stages of ``_INNER_MAX_ITERS`` inner
    iterations each (180,000), every inner iteration with one Newton model
    and up to 90 trial values. A box-only solve has one stage, so at most
    ``_INNER_MAX_ITERS`` iterations.
    """
    x = _clip(np.asarray(x_start, dtype=float), region.lower, region.upper)
    extra_hess_diag = getattr(extra, "hess_diag", None)
    if model is None:
        extra_hess = getattr(extra, "hess", None)
        model = NewtonModel(region, None if extra_hess is None
                            else np.asarray(extra_hess(x), dtype=float))

    def phi(xv):
        val = region.objective(xv)
        if extra is not None:
            val += extra.value(xv)
        return float(val)

    def phi_grad(xv):
        g = np.asarray(region.gradient(xv), dtype=float)
        if extra is not None:
            g = g + extra.grad(xv)
        return g

    def region_hess_diag(xv):
        if region.hessian_diag is None:
            return np.zeros(region.dim_x)
        return np.asarray(region.hessian_diag(xv), dtype=float)

    def phi_hess_diag(xv):
        d = region_hess_diag(xv)
        if extra_hess_diag is not None:
            d = d + np.asarray(extra_hess_diag(xv), dtype=float)
        return d

    def phi_hess(xv):
        return model.clamped(region_hess_diag(xv))

    g0 = phi_grad(x)
    grad_scale = max(1.0, float(_max(np.abs(g0), initial=0.0)))
    grad_tol = _GRAD_TOL * grad_scale

    if region.equality is None:
        x, _, g, pgn, it, stalled = _pg_minimize(phi, phi_grad, x, phi(x), g0, model,
                                                 grad_tol, phi_hess_diag(x), phi_hess)
        if pgn > grad_tol and not stalled:
            raise SolveError(
                f"projected gradient stopped at |pg|={pgn:.3e} > {grad_tol:.1e}",
                pgn, 0.0,
            )
        return SolveResult(x, pgn, 0.0, 1, it, np.zeros(0),
                           penalty=0.0, at_numeric_floor=stalled)

    h_at = last_point_memo(lambda xv: np.asarray(region.equality(xv), dtype=float))
    J_at = last_point_memo(lambda xv: np.asarray(region.equality_jacobian(xv), dtype=float))
    eq_hess = region.equality_hessian
    y = (np.asarray(eq_multipliers, dtype=float).copy()
         if eq_multipliers is not None else np.zeros(region.eq_dim))
    mu = float(penalty_start) if penalty_start else _PENALTY_INIT
    merit_path: list[tuple[float, float]] = []
    total_inner = 0
    best = (np.inf, np.inf)  # (constraint norm, pg norm) of the most feasible stage
    prev_hnorm = math.inf

    for outer in range(1, _MAX_STAGES + 1):

        def al_value(xv, y=y, mu=mu):
            h = h_at(xv)
            return phi(xv) + float(y @ h) + 0.5 * mu * float(h @ h)

        def al_grad(xv, y=y, mu=mu):
            return phi_grad(xv) + J_at(xv).T @ (y + mu * h_at(xv))

        def al_hess(xv, y=y, mu=mu):
            # Gauss-Newton part mu J^T J, plus the constraint curvature at the
            # first-order multiplier estimate y + mu h when the region has it
            J = J_at(xv)
            H = phi_hess(xv) + mu * (J.T @ J)
            if eq_hess is not None:
                w = y + mu * h_at(xv)
                H = H + np.asarray(eq_hess(xv, w), dtype=float)
            return H

        J0 = J_at(x)
        metric = phi_hess_diag(x) + mu * (J0 * J0).sum(axis=0)
        start_val = al_value(x)
        x, end_val, g, pgn, it, stalled = _pg_minimize(
            al_value, al_grad, x, start_val, al_grad(x), model, grad_tol, metric, al_hess,
        )
        merit_path.append((start_val, end_val))
        total_inner += it
        h = h_at(x)
        hnorm = float(_max(np.abs(h), initial=0.0))
        if hnorm < best[0]:
            best = (hnorm, pgn)
        if hnorm <= _CONSTRAINT_TOL and pgn <= grad_tol:
            return SolveResult(x, pgn, hnorm, outer, total_inner, y + mu * h,
                               penalty=mu, merit_path=merit_path)
        if hnorm <= _CONSTRAINT_TOL and stalled:
            # feasible, and descent is no longer certifiable at this
            # precision: report the achieved floor instead of spinning
            return SolveResult(x, pgn, hnorm, outer, total_inner, y + mu * h,
                               penalty=mu, merit_path=merit_path,
                               at_numeric_floor=True)
        # first-order multiplier step every stage; grow the penalty when
        # feasibility is not improving fast enough, and always out of a
        # stall (a sharper feasibility valley restores resolvable descent)
        y = y + mu * h
        if hnorm > _CONSTRAINT_TOL and (stalled or hnorm > 0.25 * prev_hnorm):
            mu = min(mu * _PENALTY_GROWTH, _PENALTY_MAX)
        prev_hnorm = hnorm

    raise SolveError(
        f"local solve stopped after {len(merit_path)} stages: "
        f"|h|={best[0]:.3e}, |pg|={best[1]:.3e}",
        best[1], best[0],
    )
