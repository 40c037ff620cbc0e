import cmath

import numpy as np
import pytest

from asyncadmm import caseio
from asyncadmm.opf import (
    Branch,
    Bus,
    BuildError,
    Generator,
    OpfCase,
    Partition,
    admittance_matrix,
    build_regional_subproblems,
    centralized_reference_solve,
    newton_power_flow,
    power_flow_residual,
    reference_bus,
    single_region_partition,
    warm_start,
)
from asyncadmm.problem import flat_start

from conftest import CASES_DIR
from oracles import opf_equality_and_jacobian


def shipped_case(name):
    case = caseio.parse_case((CASES_DIR / f"{name}.case").read_text())
    return case, caseio.parse_partition((CASES_DIR / f"{name}.part").read_text(), case)


def two_bus_case(cost=(0.0, 1.0, 0.0), load=(50.0, 10.0)):
    return OpfCase(
        base_mva=100.0,
        buses=(Bus(1, 0, 0, 0.9, 1.1), Bus(2, load[0], load[1], 0.9, 1.1)),
        branches=(Branch(1, 2, 0.02, 0.06),),
        generators=(Generator(1, 0, 200, -100, 100, *cost),),
    )


class TestCaseValidation:
    def test_duplicate_bus_ids(self):
        with pytest.raises(ValueError, match="duplicate bus id"):
            OpfCase(base_mva=100, buses=(Bus(1), Bus(1)), branches=(), generators=())

    def test_dangling_branch(self):
        with pytest.raises(ValueError, match="dangling"):
            OpfCase(base_mva=100, buses=(Bus(1), Bus(2)),
                    branches=(Branch(1, 99, 0.01, 0.05),), generators=())

    def test_disconnected_graph(self):
        with pytest.raises(ValueError, match="not connected"):
            OpfCase(base_mva=100, buses=(Bus(1), Bus(2), Bus(3)),
                    branches=(Branch(1, 2, 0.01, 0.05),), generators=())


class TestAdmittance:
    def test_two_bus_series_only(self):
        case = two_bus_case()
        Y = admittance_matrix(case)
        ys = 1.0 / complex(0.02, 0.06)
        assert Y[0, 0] == pytest.approx(ys)
        assert Y[0, 1] == pytest.approx(-ys)
        assert Y[1, 0] == pytest.approx(-ys)
        assert Y[1, 1] == pytest.approx(ys)

    def test_charging_and_shunt_on_diagonal(self):
        case = OpfCase(
            base_mva=100.0,
            buses=(Bus(1, gs=5.0, bs=-2.0), Bus(2)),
            branches=(Branch(1, 2, 0.02, 0.06, charging=0.1),),
            generators=(),
        )
        Y = admittance_matrix(case)
        ys = 1.0 / complex(0.02, 0.06)
        assert Y[0, 0] == pytest.approx(ys + 0.05j + (5.0 - 2.0j) / 100.0)
        assert Y[1, 1] == pytest.approx(ys + 0.05j)


class TestPowerFlowResidual:
    def test_flat_lossless_zero(self):
        case = OpfCase(
            base_mva=100.0,
            buses=(Bus(1), Bus(2)),
            branches=(Branch(1, 2, 0.0, 0.1),),
            generators=(),
        )
        V = np.ones(2, dtype=complex)
        r = power_flow_residual(case, V, np.zeros(2), np.zeros(2))
        assert np.max(np.abs(r)) == 0.0

    def test_two_bus_hand_oracle(self):
        # independent evaluation of S_i - V_i (Y V)_i^* with y = 1 - 10j,
        # V1 = 1 at angle 0, V2 = 0.98 at angle -2 degrees, nothing injected
        case = OpfCase(
            base_mva=100.0,
            buses=(Bus(1), Bus(2)),
            branches=(Branch(1, 2, 1.0 / 101.0, 10.0 / 101.0),),  # y = 1 - 10j
            generators=(),
        )
        y = 1.0 - 10.0j
        V = np.array([cmath.rect(1.0, 0.0), cmath.rect(0.98, np.deg2rad(-2.0))])
        Yhand = np.array([[y, -y], [-y, y]])
        hand = 0.0 - V * np.conj(Yhand @ V)
        expected = np.concatenate([hand.real, hand.imag])
        got = power_flow_residual(case, V, np.zeros(2), np.zeros(2))
        assert got == pytest.approx(expected, abs=1e-12)
        # frozen values from the oracle script
        assert expected[0] == pytest.approx(-0.3626120572057957, abs=1e-12)
        assert expected[3] == pytest.approx(0.15582859801868731, abs=1e-12)

    def test_network_term_scales_quadratically(self):
        case = two_bus_case()
        rng = np.random.default_rng(5)
        V = rng.uniform(0.95, 1.05, 2) * np.exp(1j * rng.uniform(-0.1, 0.1, 2))
        base = power_flow_residual(case, V, np.zeros(2), np.zeros(2))
        load = np.array([complex(b.p_load, b.q_load) / case.base_mva for b in case.buses])
        net_base = base - np.concatenate([load.real, load.imag]) * -1  # remove load part
        t = 3.0
        scaled = power_flow_residual(case, t * V, np.zeros(2), np.zeros(2))
        net_scaled = scaled - np.concatenate([load.real, load.imag]) * -1
        assert net_scaled == pytest.approx(t * t * net_base, rel=1e-12)


class TestPartition:
    def test_unassigned_bus(self, chain3_case):
        with pytest.raises(BuildError, match="unassigned"):
            Partition({1: 1, 2: 2}).validate(chain3_case)

    def test_region_indices_contiguous(self, chain3_case):
        with pytest.raises(BuildError, match="no gaps"):
            Partition({1: 1, 2: 3, 3: 3}).validate(chain3_case)

    def test_disconnected_region(self, chain3_case):
        with pytest.raises(BuildError, match="connected"):
            Partition({1: 1, 3: 1, 2: 2}).validate(chain3_case)

    def test_tie_lines(self, chain3_case):
        part = Partition({1: 1, 2: 2, 3: 2})
        part.validate(chain3_case)
        assert part.tie_lines(chain3_case) == [0]


class TestBuild:
    def test_three_bus_duplication_and_block_dims(self, chain3_case):
        problem, layout = build_regional_subproblems(
            chain3_case, Partition({1: 1, 2: 2, 3: 2})
        )
        assert layout.region(1).dup_bus_ids == [2]
        assert layout.region(2).dup_bus_ids == [1]
        assert len(problem.edges) == 1
        assert problem.edges[0].dim == 4  # difference/sum x real/imaginary
        assert problem.region(1).boundary_rows == 4
        assert problem.region(2).boundary_rows == 4

    def test_single_region_reduces_to_centralized(self, chain3_case):
        problem, layout = build_regional_subproblems(
            chain3_case, single_region_partition(chain3_case)
        )
        assert problem.num_regions == 1
        assert problem.edges == ()
        assert problem.region(1).boundary_rows == 0
        assert layout.region(1).dup_bus_ids == []

    def test_boundary_rows_encode_scaled_sum_and_difference(self, chain3_case):
        with pytest.warns(UserWarning, match="beta_minus"):
            problem, layout = build_regional_subproblems(
                chain3_case, Partition({1: 1, 2: 2, 3: 2}), beta_minus=1.0, beta_plus=1.0
            )
        lay = layout.region(1)
        x = np.zeros(lay.dim)
        v = 0.97
        x[lay.columns[1][0]] = v
        x[lay.columns[2][0]] = v
        rows = problem.region(1).boundary_map @ x
        # equal endpoint voltages: difference rows vanish, sum rows carry 2v
        assert rows[0] == pytest.approx(0.0)   # difference, real
        assert rows[2] == pytest.approx(2 * v)  # sum, real

    def test_boundary_rows_carry_default_beta_coefficients(self, chain3_case):
        # per tie line, rows are [2(e_f - e_t), 2(f_f - f_t),
        # 0.5(e_f + e_t), 0.5(f_f + f_t)] in the region's local columns
        problem, layout = build_regional_subproblems(
            chain3_case, Partition({1: 1, 2: 2, 3: 2})
        )
        for k in (1, 2):
            lay = layout.region(k)
            A = problem.region(k).boundary_map
            cols = {
                comp: {b: lay.columns[b][c] for b in (1, 2)}
                for c, comp in enumerate(("e", "f"))
            }
            expected = np.zeros_like(A)
            expected[0, cols["e"][1]] = 2.0
            expected[0, cols["e"][2]] = -2.0
            expected[1, cols["f"][1]] = 2.0
            expected[1, cols["f"][2]] = -2.0
            expected[2, cols["e"][1]] = 0.5
            expected[2, cols["e"][2]] = 0.5
            expected[3, cols["f"][1]] = 0.5
            expected[3, cols["f"][2]] = 0.5
            assert np.array_equal(A, expected)

    def test_beta_weights_warning(self, chain3_case):
        with pytest.warns(UserWarning, match="beta_minus"):
            build_regional_subproblems(
                chain3_case, Partition({1: 1, 2: 2, 3: 2}),
                beta_minus=0.5, beta_plus=2.0,
            )

    def test_build_deterministic(self, ring5_case):
        part = Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
        p1, _ = build_regional_subproblems(ring5_case, part)
        p2, _ = build_regional_subproblems(ring5_case, part)
        for k in range(1, 3):
            assert np.array_equal(p1.region(k).boundary_map, p2.region(k).boundary_map)
            assert np.array_equal(p1.region(k).lower, p2.region(k).lower)

    def test_reference_bus_pinned(self, chain3_case):
        problem, layout = build_regional_subproblems(
            chain3_case, Partition({1: 1, 2: 2, 3: 2})
        )
        assert reference_bus(chain3_case) == 1
        lay = layout.region(1)
        f_col = lay.columns[1][1]
        assert problem.region(1).lower[f_col] == 0.0
        assert problem.region(1).upper[f_col] == 0.0

    def test_derivatives_match_finite_differences(self, ring5_case):
        # every region of every shipped case (and a two-region ring5), so each
        # entry of the precomputed Jacobian template is checked against h
        rng = np.random.default_rng(3)
        builds = [(name, *shipped_case(name)) for name in ("ring5", "nine", "chain3")]
        builds.append(("ring5", ring5_case, Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 2})))
        for name, case, partition in builds:
            problem, _ = build_regional_subproblems(case, partition)
            for region in problem.regions:
                x = flat_start(region) + 0.01 * rng.standard_normal(region.dim_x)
                h = 1e-6
                J = region.equality_jacobian(x)
                assert J.shape == (region.eq_dim, region.dim_x)
                for i in range(region.dim_x):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    col = (region.equality(xp) - region.equality(xm)) / (2 * h)
                    assert np.max(np.abs(J[:, i] - col)) < 1e-6, (name, region.name, i)

    @pytest.mark.parametrize("name", ["ring5", "nine", "chain3"])
    def test_shared_voltages_match_fresh_evaluation(self, name):
        # h and J share V and I at the last point, keyed on the bytes of x:
        # asked for at interleaved points, and at 0.0 against -0.0, every
        # value equals a fresh closure's and the earlier formulas' bit for bit
        case, partition = shipped_case(name)
        rng = np.random.default_rng(7)
        problem, layout = build_regional_subproblems(case, partition)
        for k, region in enumerate(problem.regions, start=1):
            x1 = flat_start(region) + 0.01 * rng.standard_normal(region.dim_x)
            x2 = x1 + 0.01 * rng.standard_normal(region.dim_x)
            zero = x1.copy()
            zero[::2] = 0.0
            negzero = zero.copy()
            negzero[::2] = -0.0
            want_h, want_J = opf_equality_and_jacobian(case, layout.region(k))
            for fn, x in (("h", x1), ("J", x2), ("h", x2), ("J", x1),
                          ("h", zero), ("J", negzero), ("h", negzero), ("J", zero)):
                fresh = build_regional_subproblems(case, partition)[0].region(k)
                if fn == "h":
                    got, ref, want = region.equality(x), fresh.equality(x), want_h(x)
                else:
                    got = region.equality_jacobian(x)
                    ref, want = fresh.equality_jacobian(x), want_J(x)
                assert got.tobytes() == ref.tobytes() == want.tobytes(), (region.name, fn)

    @pytest.mark.parametrize("name", ["ring5", "nine", "chain3"])
    def test_equality_hessian_matches_jacobian_differences(self, name):
        # every equality row is quadratic, so J(x) is affine in x and a unit
        # central difference of J(x)^T w is exact up to rounding
        case, partition = shipped_case(name)
        rng = np.random.default_rng(5)
        plain, _ = build_regional_subproblems(case, partition)
        assert all(region.equality_hessian is None for region in plain.regions)
        for part in (partition, single_region_partition(case)):
            problem, _ = build_regional_subproblems(case, part, exact_curvature=True)
            for region in problem.regions:
                x = rng.standard_normal(region.dim_x)
                w = rng.standard_normal(region.eq_dim)
                H = region.equality_hessian(x, w)
                fd = np.empty_like(H)
                for i in range(region.dim_x):
                    step = np.zeros(region.dim_x)
                    step[i] = 1.0
                    dJ = region.equality_jacobian(x + step) - region.equality_jacobian(x - step)
                    fd[:, i] = 0.5 * (dJ.T @ w)
                scale = max(1.0, float(np.max(np.abs(H))))
                assert np.max(np.abs(H - fd)) <= 1e-12 * scale, region.name

    def test_regional_residuals_compose_to_network_residual(self, ring5_case):
        # solve the network flow once, copy true voltages into each region's
        # duplicates; the stacked regional equality residuals must equal the
        # full-network power-flow residual
        part = Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
        problem, layout = build_regional_subproblems(ring5_case, part)
        V, p_bus, q_bus = newton_power_flow(ring5_case)
        starts = warm_start(layout)
        idx = ring5_case.bus_index()
        network = power_flow_residual(ring5_case, V, p_bus, q_bus)
        for k in (1, 2):
            lay = layout.region(k)
            h = problem.region(k).equality(starts[k - 1])
            n = lay.n_own
            for i, bid in enumerate(lay.own_bus_ids):
                assert h[i] == pytest.approx(network[idx[bid]], abs=1e-8)
                assert h[n + i] == pytest.approx(network[len(idx) + idx[bid]], abs=1e-8)


class TestNewtonPowerFlow:
    def test_flow_solution_satisfies_equations(self, ring5_case):
        V, p_bus, q_bus = newton_power_flow(ring5_case)
        resid = power_flow_residual(ring5_case, V, p_bus, q_bus)
        assert np.max(np.abs(resid)) < 1e-9

    def test_warm_start_inside_bounds(self, ring5_case):
        part = Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
        problem, layout = build_regional_subproblems(ring5_case, part)
        for k, x in enumerate(warm_start(layout), start=1):
            region = problem.region(k)
            assert np.all(x >= region.lower - 1e-12)
            assert np.all(x <= region.upper + 1e-12)


class TestCentralized:
    def test_linear_cost_dispatch_matches_grid(self):
        # one generator with linear cost and its bus voltage pinned at 1.0:
        # the load bus voltage is then uniquely determined and the optimum
        # dispatches exactly load plus losses. The oracle scans a dense
        # (|V2|, angle2) grid for the power-flow point and prices it.
        case = OpfCase(
            base_mva=100.0,
            buses=(Bus(1, 0, 0, 1.0, 1.0), Bus(2, 50.0, 10.0, 0.9, 1.1)),
            branches=(Branch(1, 2, 0.02, 0.06),),
            generators=(Generator(1, 0, 200, -100, 100, 0.0, 1.0, 0.0),),
        )
        result = centralized_reference_solve(case)
        y = 1.0 / complex(0.02, 0.06)
        Y = np.array([[y, -y], [-y, y]])
        load = 0.5 + 0.1j
        vm = np.arange(0.93, 1.0 + 1e-9, 3e-5)
        th = np.arange(-0.08, 0.0 + 1e-9, 3e-5)
        VM, TH = np.meshgrid(vm, th, indexing="ij")
        V2 = VM * np.exp(1j * TH)
        # bus-2 balance: S2 + load = 0 with S2 = V2 (Y21 V1 + Y22 V2)*
        S2 = V2 * np.conj(Y[1, 0] * 1.0 + Y[1, 1] * V2)
        mismatch = np.abs(S2 + load)
        i, j = np.unravel_index(np.argmin(mismatch), mismatch.shape)
        assert mismatch[i, j] < 1e-3
        v2 = VM[i, j] * np.exp(1j * TH[i, j])
        s1 = 1.0 * np.conj(Y[0, 0] * 1.0 + Y[0, 1] * v2)
        oracle_cost = s1.real * 100.0
        assert result.objective == pytest.approx(oracle_cost, rel=1e-3)
        # dispatch covers load plus positive losses
        assert result.P[0] * 100.0 > 50.0
        assert result.objective == pytest.approx(result.P[0] * 100.0, rel=1e-6)

    def test_zero_load_zero_cost(self):
        case = two_bus_case(cost=(0.0, 0.0, 0.0), load=(0.0, 0.0))
        result = centralized_reference_solve(case)
        assert result.objective == pytest.approx(0.0, abs=1e-6)
        assert result.P[0] == pytest.approx(0.0, abs=1e-4)

    def test_solution_satisfies_power_flow(self, chain3_case):
        result = centralized_reference_solve(chain3_case)
        resid = power_flow_residual(chain3_case, result.V, result.P, result.Q)
        assert np.max(np.abs(resid)) < 1e-5
        # magnitude limits hold to the equality tolerance of the u-slack rows
        vm = np.abs(result.V)
        assert np.all(vm >= 0.95 - 1e-6) and np.all(vm <= 1.05 + 1e-6)

    @pytest.mark.parametrize("name, gauss_newton_objective",
                             [("ring5", 3768.1043), ("nine", 1974.36069)])
    def test_exact_curvature_reference(self, name, gauss_newton_objective):
        # the Gauss-Newton model needed 5,160 (ring5) and 10,509 (nine) inner
        # iterations to reach the objectives given here
        case, _ = shipped_case(name)
        result = centralized_reference_solve(case)
        assert result.diagnostics.inner_iters <= 200
        resid = power_flow_residual(case, result.V, result.P, result.Q)
        assert np.max(np.abs(resid)) < 1e-6
        assert result.objective <= gauss_newton_objective * (1 + 1e-6)
