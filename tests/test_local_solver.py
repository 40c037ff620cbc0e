from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from asyncadmm import caseio, kernel, localsolver
from asyncadmm.cli import main
from asyncadmm.kernel import BoundaryPenalty, penalty_model
from asyncadmm.localsolver import SolveError, _newton_direction, solve_local
from asyncadmm.opf import build_regional_subproblems
from asyncadmm.problem import RegionSpec, flat_start

from conftest import CASES_DIR
from oracles import newton_direction


def box_quadratic():
    return RegionSpec(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([1.0]),
        upper=np.array([2.0]),
        hessian_diag=lambda x: np.array([2.0]),
    )


def equality_region():
    # f(x, y) = x^2 + y^2 subject to x + y = 2
    return RegionSpec(
        objective=lambda v: float(v[0] ** 2 + v[1] ** 2),
        gradient=lambda v: 2.0 * v,
        boundary_map=np.zeros((0, 2)),
        lower=np.full(2, -10.0),
        upper=np.full(2, 10.0),
        equality=lambda v: np.array([v[0] + v[1] - 2.0]),
        equality_jacobian=lambda v: np.array([[1.0, 1.0]]),
        hessian_diag=lambda v: np.array([2.0, 2.0]),
    )


def test_box_qp_active_bound():
    # KKT of min x^2 on [1, 2]: the lower bound is active, x* = 1
    result = solve_local(box_quadratic(), None, np.array([1.7]))
    assert result.x[0] == pytest.approx(1.0, abs=1e-9)
    assert result.constraint_norm == 0.0


def test_equality_constrained_closed_form():
    # Lagrange: 2x + y_mult = 0, 2y + y_mult = 0, x + y = 2 -> (1, 1)
    result = solve_local(equality_region(), None, np.array([3.0, -1.0]))
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-6)
    assert result.constraint_norm <= 1e-6
    # converged multiplier estimate matches the closed form -2
    assert result.eq_multipliers[0] == pytest.approx(-2.0, abs=1e-4)


def test_equality_count_is_read_from_the_constraint():
    # min |x|^2 subject to x0 + x1 = 1, no curvature hint: the cold solve
    # sizes its multipliers from h(x), which the region declares nowhere else
    region = RegionSpec(
        objective=lambda v: float(v @ v),
        gradient=lambda v: 2.0 * v,
        boundary_map=np.zeros((0, 2)),
        lower=np.full(2, -10.0),
        upper=np.full(2, 10.0),
        equality=lambda v: np.array([v[0] + v[1] - 1.0]),
        equality_jacobian=lambda v: np.array([[1.0, 1.0]]),
    )
    result = solve_local(region, None, np.zeros(2))
    assert result.x == pytest.approx([0.5, 0.5], abs=1e-6)
    assert result.eq_multipliers.shape == (1,)


def test_warm_start_at_minimum_returns_immediately():
    region = equality_region()
    first = solve_local(region, None, np.array([0.0, 0.0]))
    again = solve_local(region, None, first.x, warm=first)
    assert again.outer_iters == 1
    assert np.max(np.abs(again.x - first.x)) <= 1e-8


def test_deterministic():
    region = equality_region()
    a = solve_local(region, None, np.array([4.0, -2.0]))
    b = solve_local(region, None, np.array([4.0, -2.0]))
    assert np.array_equal(a.x, b.x)
    assert a.inner_iters == b.inner_iters
    assert a.merit_path == b.merit_path


def test_merit_monotone_within_stages():
    region = equality_region()
    result = solve_local(region, None, np.array([5.0, 5.0]))
    for start, end in result.merit_path:
        assert end <= start + 1e-12


def test_matches_grid_oracle_1d():
    # convex: min (x - 0.37)^2 on [0, 1]
    region = RegionSpec(
        objective=lambda x: float((x[0] - 0.37) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 0.37)]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        hessian_diag=lambda x: np.array([2.0]),
    )
    xs = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    oracle = xs[int(np.argmin((xs - 0.37) ** 2))]
    result = solve_local(region, None, np.array([0.9]))
    assert result.x[0] == pytest.approx(oracle, abs=1e-3)


def test_matches_grid_oracle_2d():
    # convex coupled quadratic on a box, against a dense 2-D grid
    Q = np.array([[2.0, 0.6], [0.6, 1.4]])
    b = np.array([-1.0, 0.8])

    def obj(v):
        return float(0.5 * v @ Q @ v + b @ v)

    region = RegionSpec(
        objective=obj,
        gradient=lambda v: Q @ v + b,
        boundary_map=np.zeros((0, 2)),
        lower=np.array([0.0, -1.0]),
        upper=np.array([1.0, 0.0]),
        hessian_diag=lambda v: np.diag(Q),
    )
    grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    gy = np.arange(-1.0, 0.0 + 5e-5, 1e-4)
    # argmin over the grid x gy mesh, 256 rows of it at a time (the whole
    # mesh would take several GB); a strictly smaller value is needed to
    # replace the best, so ties keep the first minimum in row-major order
    best = (np.inf, 0, 0)
    for start in range(0, grid.size, 256):
        X = grid[start:start + 256, None]
        V = 0.5 * (Q[0, 0] * X * X + 2 * Q[0, 1] * X * gy + Q[1, 1] * gy * gy) \
            + b[0] * X + b[1] * gy
        r, c = np.unravel_index(np.argmin(V), V.shape)
        if V[r, c] < best[0]:
            best = (V[r, c], start + r, c)
    _, i, j = best
    result = solve_local(region, None, np.array([0.5, -0.5]))
    assert result.x[0] == pytest.approx(grid[i], abs=1e-3)
    assert result.x[1] == pytest.approx(gy[j], abs=1e-3)


def test_failure_carries_best_iterate():
    # equality unreachable inside the box: h(x) = x - 5 with x in [0, 1]
    region = RegionSpec(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        equality=lambda x: np.array([x[0] - 5.0]),
        equality_jacobian=lambda x: np.array([[1.0]]),
        hessian_diag=lambda x: np.array([2.0]),
    )
    with pytest.raises(SolveError) as err:
        solve_local(region, None, np.array([0.5]))
    assert err.value.constraint_norm == pytest.approx(4.0, abs=1e-6)


def test_nan_gradient_raises():
    # NaN compares false against any tolerance: a box-only solve whose
    # gradient is NaN fails instead of returning its start as converged
    region = RegionSpec(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([np.nan]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    with pytest.raises(SolveError) as err:
        solve_local(region, None, np.array([0.5]))
    assert np.isnan(err.value.grad_norm)


def test_both_arcs_exhaust_their_halvings():
    # a gradient that promises a descent the values never show: the Newton
    # arc (30 trials) and then the scaled-gradient arc (60 trials) each run
    # out of halvings while still moving, so the box-only solve stalls at
    # its start and reports it as the achieved floor
    values = []
    region = RegionSpec(
        objective=lambda x: values.append(x.copy()) or 0.0,
        gradient=lambda x: np.array([1.0]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    result = solve_local(region, None, np.array([0.0]))
    assert result.at_numeric_floor and result.inner_iters == 0
    assert result.x.tolist() == [0.0] and result.grad_norm == 1.0
    # the start, then every trial point, each off the start
    assert len(values) == 1 + 30 + 60
    assert all(x[0] < 0.0 for x in values[1:])


def test_nan_constraint_reports_its_residuals():
    # an equality that evaluates to NaN fails every stage; the error reports
    # the NaN residuals of those stages, not the infinite placeholder
    region = RegionSpec(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        boundary_map=np.zeros((0, 1)),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        equality=lambda x: np.array([np.nan]),
        equality_jacobian=lambda x: np.array([[1.0]]),
    )
    with pytest.raises(SolveError) as err:
        solve_local(region, None, np.array([0.5]))
    assert np.isnan(err.value.constraint_norm) and np.isnan(err.value.grad_norm)
    assert "|h|=nan" in str(err.value)


def test_numeric_floor_return_on_ring5_async(tmp_path, monkeypatch):
    # the one exit short of the tolerances: a feasible stage whose line
    # search can certify no further decrease reports its point as the
    # achieved floor. The ring5_async run reaches it in one x-update.
    floors = []
    real_solve = kernel.solve_local

    def recording(region, extra, x_start, **kwargs):
        result = real_solve(region, extra, x_start, **kwargs)
        if result.at_numeric_floor:
            floors.append((region, result))
        return result

    monkeypatch.setattr(kernel, "solve_local", recording)
    assert main(["run", str(CASES_DIR / "ring5_async.cfg"), "--set", f"outdir={tmp_path}",
                 "--set", "baseline=false"]) == 0
    assert len(floors) == 1
    region, result = floors[0]
    assert result.constraint_norm <= localsolver._CONSTRAINT_TOL
    assert result.grad_norm > localsolver._GRAD_TOL  # stopped short of the tolerance
    assert result.outer_iters == len(result.merit_path) < localsolver._MAX_STAGES
    assert all(end <= start for start, end in result.merit_path)
    assert np.all((region.lower <= result.x) & (result.x <= region.upper))


def test_equality_and_jacobian_evaluated_once_per_iterate():
    # a nine-bus region's first ADMM x-update from a flat start; every
    # point (by its bytes) reaches h and J at most once within the solve
    case = caseio.parse_case((CASES_DIR / "nine.case").read_text())
    partition = caseio.parse_partition((CASES_DIR / "nine.part").read_text(), case)
    problem, _ = build_regional_subproblems(case, partition)
    region = problem.region(1)
    x0 = flat_start(region)
    A = region.boundary_map
    extra = BoundaryPenalty(A=A, lam=np.zeros(A.shape[0]), z=A @ x0 + 0.01, rho=1e5)
    model = penalty_model(region, 1e5)
    seen = {"h": Counter(), "J": Counter()}

    def counted(name, fn):
        def wrapper(x):
            seen[name][x.tobytes()] += 1
            return fn(x)
        return wrapper

    counting = replace(region, equality=counted("h", region.equality),
                       equality_jacobian=counted("J", region.equality_jacobian))
    plain = solve_local(region, extra, x0, model=model)
    result = solve_local(counting, extra, x0, model=model)
    assert result.inner_iters > 0
    for name in ("h", "J"):
        assert seen[name] and max(seen[name].values()) == 1, name
    assert result.x.tobytes() == plain.x.tobytes()
    assert result.eq_multipliers.tobytes() == plain.eq_multipliers.tobytes()
    assert (result.inner_iters, result.outer_iters, result.merit_path) == \
        (plain.inner_iters, plain.outer_iters, plain.merit_path)


def _newton_case(rng, box, n):
    """Random (H, g, x, lo, hi, D) whose box pins no, every, some or the
    degenerate (lo = hi) coordinates; H is SPD, indefinite, singular,
    unsymmetric or non-finite so that every branch of the regularisation
    loop runs and a transposed gather would show. The "singular" and "nan"
    cases pin some coordinates and give the free block an exactly singular
    first regularised system (a zero pivot) or a NaN entry, which may also
    fall on a pinned coordinate; the "unbounded" box has no finite bound."""
    M = rng.normal(size=(n, n))
    H = [M @ M.T + np.eye(n), M + M.T, np.outer(M[0], M[0]), M, np.full((n, n), np.inf),
         np.zeros((n, n))][rng.integers(6)]
    g = rng.normal(size=n) * rng.choice([1e-6, 1.0, 1e6])
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    x = rng.uniform(-0.5, 0.5, size=n)
    at_lo = np.where(g > 0, True, False)
    if box == "pinned":
        pin = np.ones(n, dtype=bool)
    elif box == "mixed":
        pin = np.arange(n) < max(1, n // 2)
        rng.shuffle(pin)
    elif box in ("singular", "nan"):
        pin = np.arange(n) < n // 2
        rng.shuffle(pin)
        if box == "singular":
            # -1e-9 cancels the first regularisation 1e-9 * max(trace / n, 1)
            H = np.diag(rng.uniform(0.0, 1.0, size=n))
            i = rng.choice(np.flatnonzero(~pin))
            H[i, i] = -1e-9
        else:
            H = M @ M.T + np.eye(n)
            H[rng.integers(n), rng.integers(n)] = np.nan
    else:
        pin = np.zeros(n, dtype=bool)
    if box == "unbounded":
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    x[pin & at_lo] = lo[pin & at_lo]
    x[pin & ~at_lo] = hi[pin & ~at_lo]
    if box == "degenerate":
        fixed = rng.random(n) < 0.5
        lo[fixed] = hi[fixed] = x[fixed] = rng.choice([0.0, -0.0, 1.0])
        g[fixed & (rng.random(n) < 0.3)] = 0.0
    return H, g, x, lo, hi, rng.uniform(0.1, 10.0, size=n)


_NEWTON_BOXES = ["free", "pinned", "mixed", "degenerate", "singular", "nan", "unbounded"]


@pytest.mark.parametrize("box", _NEWTON_BOXES)
def test_newton_direction_matches_oracle_bitwise(box):
    rng = np.random.default_rng(_NEWTON_BOXES.index(box))
    outcomes = Counter()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        H, g, x, lo, hi, D = _newton_case(rng, box, n)
        with np.errstate(all="ignore"):  # the non-finite H
            want = newton_direction(H, g, x, lo, hi, D)
            # a box without a finite bound is passed as a NewtonModel has it
            inward = (None, None) if box == "unbounded" else (lo + 1e-10, hi - 1e-10)
            got = _newton_direction(H, g, x, *inward, D, np.eye(n))
        if want is None:
            assert got is None
            outcomes["none"] += 1
        else:
            assert got is not None and got.tobytes() == want.tobytes()
            outcomes["step"] += 1
    # with every coordinate pinned there is no Newton system to fail, and a
    # singular first system is regular at the next regularisation
    assert outcomes["step"] and bool(outcomes["none"]) == (box not in ("pinned", "singular"))
