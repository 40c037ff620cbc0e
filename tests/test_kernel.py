import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm.analysis import DiagnosticConstants, parameter_bounds
from asyncadmm.kernel import (
    AdmmParams,
    WorkerState,
    initial_z,
    lambda_update,
    penalty_model,
    project_lambda,
    residue,
    x_update,
    z_update,
)
from asyncadmm.problem import CouplingEdge, RegionSpec, make_toy_consensus

from oracles import augmented_lagrangian, run_sync_reference

EDGE1 = CouplingEdge(k=1, l=2, block_k=(0, 1), block_l=(0, 1))


def scalar_region(objective, gradient, lo=-np.inf, hi=np.inf, hess=None):
    return RegionSpec(
        objective=objective,
        gradient=gradient,
        boundary_map=np.ones((1, 1)),
        lower=np.array([lo]),
        upper=np.array([hi]),
        hessian_diag=hess,
    )


def make_state(x, lam, z, region=None):
    region = region or scalar_region(lambda v: float(v[0] ** 2),
                                     lambda v: np.array([2.0 * v[0]]))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return WorkerState(
        region_index=1, x=x,
        lam=np.atleast_1d(np.asarray(lam, dtype=float)),
        z=np.atleast_1d(np.asarray(z, dtype=float)),
        ax=region.boundary_map @ x,
    )


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdmmParams(rho=0.0)
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, alpha=-1.0)
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, p=0.0)
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, p=1.5)


class TestXUpdate:
    def test_quadratic_closed_form(self):
        # argmin x^2 + (2/2)(x-4)^2 = 2
        region = scalar_region(lambda v: float(v[0] ** 2),
                               lambda v: np.array([2.0 * v[0]]),
                               hess=lambda v: np.array([2.0]))
        state = make_state(0.0, 0.0, 4.0, region)
        result = x_update(region, state, AdmmParams(rho=2.0), penalty_model(region, 2.0))
        assert result.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_stationary_point_unchanged(self):
        region = scalar_region(lambda v: float((v[0] - 3.0) ** 2),
                               lambda v: np.array([2.0 * (v[0] - 3.0)]),
                               hess=lambda v: np.array([2.0]))
        state = make_state(3.0, 0.0, 3.0, region)  # z = A x_prev at the minimum
        result = x_update(region, state, AdmmParams(rho=1.0), penalty_model(region, 1.0))
        assert result.x[0] == pytest.approx(3.0, abs=1e-10)

    def test_nonconvex_against_grid(self):
        # argmin (x^2-1)^2 + (10/2)(x-0.9)^2 by exhaustive grid, step 1e-5
        xs = np.arange(-2.0, 2.0 + 5e-6, 1e-5)
        vals = (xs**2 - 1.0) ** 2 + 5.0 * (xs - 0.9) ** 2
        expected = xs[int(np.argmin(vals))]
        region = scalar_region(
            lambda v: float((v[0] ** 2 - 1.0) ** 2),
            lambda v: np.array([4.0 * v[0] * (v[0] ** 2 - 1.0)]),
            hess=lambda v: np.array([12.0 * v[0] ** 2 - 4.0]),
        )
        state = make_state(0.5, 0.0, 0.9, region)
        result = x_update(region, state, AdmmParams(rho=10.0), penalty_model(region, 10.0))
        assert result.x[0] == pytest.approx(expected, abs=1e-4)


class TestLambdaUpdate:
    def test_zero_primal_residual_leaves_lambda(self):
        state = make_state(1.0, 0.7, 1.0)
        out = lambda_update(state, np.array([1.0]), np.array([1.0]), AdmmParams(rho=3.0))
        assert out[0] == pytest.approx(0.7)

    def test_direct_formula(self):
        state = make_state(0.0, 0.2, 0.0)
        out = lambda_update(state, np.array([1.5]), np.array([1.0]), AdmmParams(rho=2.0))
        assert out[0] == pytest.approx(0.2 + 2.0 * 0.5)

    def test_projection_clamps(self):
        state = make_state(0.0, 0.0, 0.0)
        params = AdmmParams(rho=10.0, lambda_min=-1.0, lambda_max=1.0)
        out = lambda_update(state, np.array([0.5]), np.array([0.0]), params)
        assert out[0] == 1.0

    def test_dimension_mismatch(self):
        state = make_state(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            lambda_update(state, np.array([1.0, 2.0]), np.array([0.0]), AdmmParams(rho=1.0))

    def test_telescoping_when_projection_inactive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(-1, 1, size=1)
            ax = rng.uniform(-1, 1, size=1)
            z = rng.uniform(-1, 1, size=1)
            rho = rng.uniform(0.1, 5.0)
            state = make_state(0.0, lam, z)
            out = lambda_update(state, ax, z, AdmmParams(rho=rho))
            assert out - lam == pytest.approx(rho * (ax - z), abs=1e-12)


class TestZUpdate:
    def test_midpoint_when_multipliers_vanish(self):
        out = z_update(EDGE1, np.zeros(1), np.zeros(1), np.array([1.0]),
                       np.array([3.0]), np.zeros(1), AdmmParams(rho=7.3))
        assert out[0] == pytest.approx(2.0)

    def test_zero_fixed_point(self):
        out = z_update(EDGE1, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                       np.zeros(1), AdmmParams(rho=1.0, alpha=0.5))
        assert out[0] == 0.0

    def test_derived_value_against_numeric_minimizer(self):
        # minimise -(l_kl+l_lk) z + rho/2 (ax_k - z)^2 + rho/2 (ax_l - z)^2
        #          + alpha/2 (z - z_prev)^2 numerically
        lam_kl, lam_lk, rho, ax_k, ax_l, alpha, z_prev = 0.5, -0.1, 1.0, 2.0, 4.0, 1.0, 1.0
        zs = np.arange(2.0, 3.0, 1e-7)
        objective = (-(lam_kl + lam_lk) * zs + rho / 2 * (ax_k - zs) ** 2
                     + rho / 2 * (ax_l - zs) ** 2 + alpha / 2 * (zs - z_prev) ** 2)
        numeric = zs[int(np.argmin(objective))]
        out = z_update(EDGE1, np.array([lam_kl]), np.array([lam_lk]),
                       np.array([ax_k]), np.array([ax_l]), np.array([z_prev]),
                       AdmmParams(rho=rho, alpha=alpha))
        assert out[0] == pytest.approx(7.4 / 3.0, abs=1e-12)
        assert out[0] == pytest.approx(numeric, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_midpoint_whenever_multipliers_cancel(self, seed):
        # lam_kl + lam_lk = 0 and no proximal pull: exact midpoint
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3, 3, size=1)
        ax_k, ax_l = rng.uniform(-5, 5, size=(2, 1))
        out = z_update(EDGE1, lam, -lam, ax_k, ax_l, rng.uniform(-5, 5, size=1),
                       AdmmParams(rho=float(rng.uniform(0.1, 20.0))))
        assert out[0] == pytest.approx(0.5 * (ax_k[0] + ax_l[0]), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_stationarity_identity(self, seed):
        rng = np.random.default_rng(seed)
        lam_kl, lam_lk = rng.uniform(-2, 2, size=(2, 1))
        ax_k, ax_l = rng.uniform(-3, 3, size=(2, 1))
        z_prev = rng.uniform(-3, 3, size=1)
        params = AdmmParams(rho=float(rng.uniform(0.1, 10)),
                            alpha=float(rng.uniform(0, 5)))
        z = z_update(EDGE1, lam_kl, lam_lk, ax_k, ax_l, z_prev, params)
        resid = (lam_kl + lam_lk + params.rho * (ax_k - z) + params.rho * (ax_l - z)
                 - params.alpha * (z - z_prev))
        assert np.max(np.abs(resid)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            z_update(EDGE1, np.zeros(2), np.zeros(1), np.zeros(1), np.zeros(1),
                     np.zeros(1), AdmmParams(rho=1.0))


class TestResidue:
    def test_converged_state(self):
        state = make_state(1.0, 0.0, 1.0)
        assert residue(state, np.array([1.0])) == 0.0

    def test_max_of_stacked_residuals(self):
        region = RegionSpec(
            objective=lambda x: 0.0, gradient=lambda x: np.zeros(2),
            boundary_map=np.eye(2), lower=np.full(2, -np.inf), upper=np.full(2, np.inf),
        )
        x = np.array([0.1, -0.3])
        state = WorkerState(region_index=1, x=x, lam=np.zeros(2),
                            z=np.array([0.0, 0.0]), ax=x.copy())
        # primal residual (0.1, -0.3); dual residual (0, 0.05)
        assert residue(state, np.array([0.0, -0.05])) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="residue: z_prev length differs from state.z"):
            residue(make_state(1.0, 0.0, 1.0), np.zeros(2))

    def test_homogeneous(self):
        x = np.array([0.2])
        for scale in (1.0, 10.0):
            state = make_state(scale * 0.2, 0.0, scale * 0.1)
            r = residue(state, np.array([scale * 0.05]))
            assert r == pytest.approx(scale * 0.1, abs=1e-12)


class TestAugmentedLagrangian:
    def test_zero_residual_reduces_to_objective(self):
        problem = make_toy_consensus([0.0, 2.0])
        x_all = [np.array([1.0]), np.array([1.0])]
        z = np.array([1.0])
        lam = [np.zeros(1), np.zeros(1)]
        out = augmented_lagrangian(problem, x_all, z, lam, AdmmParams(rho=5.0))
        assert out.feasible
        assert out.value == pytest.approx(2.0)

    def test_hand_evaluated_toy(self):
        problem = make_toy_consensus([0.0, 2.0])
        out = augmented_lagrangian(problem, [np.array([1.0]), np.array([1.0])],
                                   np.array([1.0]), [np.zeros(1), np.zeros(1)],
                                   AdmmParams(rho=5.0))
        assert out.value == pytest.approx(2.0)

    def test_z_derivative_matches_finite_difference(self):
        problem = make_toy_consensus([0.0, 2.0])
        params = AdmmParams(rho=3.0)
        x_all = [np.array([0.4]), np.array([1.3])]
        lam = [np.array([0.2]), np.array([-0.6])]
        z = np.array([0.8])

        def value(zv):
            return augmented_lagrangian(problem, x_all, zv, lam, params).value

        delta = 1e-6
        fd = (value(z + delta) - value(z - delta)) / (2 * delta)
        # both regions see the shared coordinate: derivative is
        # -(lam_k + lam_l) + rho (2 z - ax_k - ax_l)
        analytic = -(lam[0][0] + lam[1][0]) + params.rho * (2 * z[0] - 0.4 - 1.3)
        assert fd == pytest.approx(analytic, abs=1e-8)

    def test_infeasible_is_flagged_not_valued(self):
        problem = make_toy_consensus([0.0, 2.0])
        bounded = RegionSpec(
            objective=problem.region(1).objective,
            gradient=problem.region(1).gradient, boundary_map=np.ones((1, 1)),
            lower=np.array([0.0]), upper=np.array([0.5]),
        )
        clipped = type(problem)(regions=(bounded, problem.region(2)), edges=problem.edges)
        out = augmented_lagrangian(clipped, [np.array([2.0]), np.array([1.0])],
                                   np.array([1.0]), [np.zeros(1), np.zeros(1)],
                                   AdmmParams(rho=1.0))
        assert not out.feasible
        assert out.value is None
        assert out.max_violation == pytest.approx(1.5)

    def test_descends_along_synchronous_iterations(self):
        # penalty above the admissible bound computed from the quadratic
        # toy's exact constants (curvature 2, identity boundary maps)
        consts = DiagnosticConstants(gamma=2.0, m1=2.0, m2=1.0, c=1.0, omega=1)
        rho_min = parameter_bounds(consts, 1.0)["rho_min"]
        params = AdmmParams(rho=float(np.ceil(rho_min) + 1))
        problem = make_toy_consensus([0.0, 2.0])
        run = run_sync_reference(problem, params, tol=1e-9, max_iters=60)
        values = []
        for it in run.iterates:
            out = augmented_lagrangian(problem, it.x, it.z, it.lam, params)
            assert out.feasible
            values.append(out.value)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)


class TestProjectLambda:
    def test_inside_box_unchanged(self):
        lam = np.array([0.3, -0.2])
        out = project_lambda(lam, -1.0, 1.0)
        assert np.array_equal(out, lam)

    def test_clamps(self):
        assert project_lambda(np.array([5.0]), -1.0, 1.0)[0] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-10, 10, size=5)
        once = project_lambda(lam, -2.0, 3.0)
        twice = project_lambda(once, -2.0, 3.0)
        assert np.array_equal(once, twice)


class TestInitialZ:
    def test_edge_average(self):
        problem = make_toy_consensus([0.0, 2.0])
        z = initial_z(problem, [np.array([0.0]), np.array([2.0])])
        assert z == pytest.approx([1.0])

    def test_consensus_update_fixes_initial_z(self):
        # the average initialisation is the consensus minimiser for zero
        # multipliers, with or without the proximal term
        problem = make_toy_consensus([0.0, 2.0])
        x = [np.array([0.3]), np.array([1.7])]
        z = initial_z(problem, x)
        out = z_update(problem.edges[0], np.zeros(1), np.zeros(1),
                       np.array([0.3]), np.array([1.7]), z,
                       AdmmParams(rho=2.0, alpha=1.5))
        assert out == pytest.approx(z, abs=1e-15)
