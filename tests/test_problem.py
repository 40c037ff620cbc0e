import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm.problem import (
    CouplingEdge,
    PartitionedProblem,
    RegionSpec,
    flat_start,
    make_nonconvex_toy,
    make_toy_consensus,
)

from oracles import nonconvex_toy_constants, nonconvex_toy_minimum


def quadratic_region(target, rows=1):
    return RegionSpec(
        objective=lambda x: float((x[0] - target) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - target)]),
        boundary_map=np.ones((rows, 1)),
        lower=np.array([-np.inf]),
        upper=np.array([np.inf]),
    )


class TestValidation:
    def test_edge_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CouplingEdge(k=1, l=1, block_k=(0, 1), block_l=(0, 1))

    def test_edge_requires_canonical_order(self):
        with pytest.raises(ValueError):
            CouplingEdge(k=2, l=1, block_k=(0, 1), block_l=(0, 1))

    def test_edge_block_sizes_must_match(self):
        with pytest.raises(ValueError):
            CouplingEdge(k=1, l=2, block_k=(0, 2), block_l=(0, 1))

    def test_region_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            RegionSpec(
                objective=lambda x: 0.0,
                gradient=lambda x: np.zeros(1),
                boundary_map=np.ones((1, 1)),
                lower=np.array([1.0]),
                upper=np.array([0.0]),
            )

    def test_region_size_is_the_box_length(self):
        # the box states dim_x; the upper bound and the map's columns match it
        def region(lower, upper, columns):
            return RegionSpec(objective=lambda x: 0.0, gradient=np.zeros_like,
                              boundary_map=np.ones((1, columns)), lower=lower, upper=upper)

        assert region(np.zeros(2), np.ones(2), 2).dim_x == 2
        with pytest.raises(ValueError, match="vectors of one length"):
            region(np.zeros(2), np.ones(3), 2)
        with pytest.raises(ValueError, match="vectors of one length"):
            region(np.zeros((1, 2)), np.ones((1, 2)), 2)
        with pytest.raises(ValueError, match="with 2 columns"):
            region(np.zeros(2), np.ones(2), 3)

    def test_duplicate_edges_rejected(self):
        regions = (quadratic_region(0.0), quadratic_region(1.0, rows=2))
        with pytest.raises(ValueError, match="more than once"):
            PartitionedProblem(
                regions=(quadratic_region(0.0, rows=2), quadratic_region(1.0, rows=2)),
                edges=(
                    CouplingEdge(1, 2, (0, 1), (0, 1)),
                    CouplingEdge(1, 2, (1, 2), (1, 2)),
                ),
            )
        del regions

    def test_uncovered_boundary_rows_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            PartitionedProblem(
                regions=(quadratic_region(0.0, rows=2), quadratic_region(1.0)),
                edges=(CouplingEdge(1, 2, (0, 1), (0, 1)),),
            )


def with_equality(**callables):
    return RegionSpec(objective=lambda x: 0.0, gradient=np.zeros_like,
                      boundary_map=np.ones((1, 1)), lower=np.zeros(1), upper=np.ones(1),
                      **callables)


@pytest.mark.parametrize("build, message", [
    (lambda: CouplingEdge(1, 2, (-1, 0), (0, 1)), r"block_k range \(-1, 0\) is invalid"),
    (lambda: CouplingEdge(1, 2, (0, 1), (1, 0)), r"block_l range \(1, 0\) is invalid"),
    (lambda: CouplingEdge(1, 2, (0, 1), (0, 1)).block_of(3),
     r"region 3 is not an endpoint of edge \(1,2\)"),
    (lambda: with_equality(equality=np.zeros_like),
     "equality and equality_jacobian must be supplied together"),
    (lambda: with_equality(equality_jacobian=np.ones_like),
     "equality and equality_jacobian must be supplied together"),
    (lambda: with_equality(equality_hessian=lambda x, w: np.zeros((1, 1))),
     "equality_hessian needs equality constraints"),
    (lambda: PartitionedProblem(regions=(), edges=()), "a problem needs at least one region"),
    (lambda: PartitionedProblem(regions=(quadratic_region(0.0),),
                                edges=(CouplingEdge(1, 2, (0, 1), (0, 1)),)),
     r"edge \(1,2\) references an unknown region"),
    (lambda: PartitionedProblem(
        regions=(quadratic_region(0.0, rows=3), quadratic_region(1.0), quadratic_region(2.0)),
        edges=(CouplingEdge(1, 2, (0, 1), (0, 1)), CouplingEdge(1, 3, (2, 3), (0, 1)))),
     "region 1: boundary rows not contiguously covered at row 1"),
], ids=["edge-range", "edge-range-of-l", "block-of-non-endpoint", "equality-without-jacobian",
        "jacobian-without-equality", "hessian-without-equality", "no-regions",
        "edge-to-unknown-region", "rows-not-contiguous"])
def test_guards_name_their_fault(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestEvaluate:
    def test_quadratic_minimum_is_zero(self):
        region = quadratic_region(2.0)
        assert region.objective(np.array([2.0])) == 0.0

    def test_generation_cost_direct_arithmetic(self):
        # quadratic cost a=0.01, b=40, c=0 at P=100 MW, checked against an
        # independent evaluation of a*P^2 + b*P + c
        a, b, c, p = 0.01, 40.0, 0.0, 100.0
        region = RegionSpec(
            objective=lambda x: float(a * x[0] ** 2 + b * x[0] + c),
            gradient=lambda x: np.array([2 * a * x[0] + b]),
            boundary_map=np.zeros((0, 1)),
            lower=np.array([0.0]),
            upper=np.array([200.0]),
        )
        expected = sum(coeff * p**power for coeff, power in ((a, 2), (b, 1), (c, 0)))
        assert region.objective(np.array([p])) == pytest.approx(expected)
        assert expected == 4100.0

    def test_toy_consensus_region_objective(self):
        problem = make_toy_consensus([0.0, 2.0])
        assert problem.region(1).objective(np.array([1.0])) == 1.0

    def test_boundary_map_identity(self):
        region = quadratic_region(0.0)
        assert region.boundary_map @ np.array([3.5]) == pytest.approx([3.5])

    def test_boundary_map_duplicated_row(self):
        # row-deficient map copying one coordinate; exercises maps without
        # full column rank
        region = RegionSpec(
            objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(2),
            boundary_map=np.array([[1.0, 0.0], [1.0, 0.0]]),
            lower=np.full(2, -np.inf),
            upper=np.full(2, np.inf),
        )
        out = region.boundary_map @ np.array([3.0, 7.0])
        assert out == pytest.approx([3.0, 3.0])

    def test_boundary_map_against_triple_loop(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 3))
        x = rng.standard_normal(3)
        region = RegionSpec(
            objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(3),
            boundary_map=A,
            lower=np.full(3, -np.inf),
            upper=np.full(3, np.inf),
        )
        expected = [0.0, 0.0]
        for i in range(2):
            for j in range(3):
                expected[i] += A[i, j] * x[j]
        assert region.boundary_map @ x == pytest.approx(expected, abs=1e-14)


def grid_minimum(objectives, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force consensus oracle: minimise the summed objectives of
    scalar regions over a shared grid value."""
    xs = np.arange(lo, hi + step / 2, step)
    total = np.zeros_like(xs)
    for f in objectives:
        total += np.array([f(np.array([v])) for v in xs])
    i = int(np.argmin(total))
    return float(xs[i]), float(total[i])


class TestToyConsensus:
    def test_two_targets_closed_form(self):
        # minimise x^2 + (x-2)^2 in closed form: x* = 1, value 2
        problem = make_toy_consensus([0.0, 2.0])
        assert problem.num_regions == 2
        assert problem.boundary_dim == 1
        x, val = grid_minimum([r.objective for r in problem.regions], -5, 5, 1e-3)
        assert x == pytest.approx(1.0, abs=1e-3)
        assert val == pytest.approx(2.0, abs=1e-5)

    def test_equal_targets(self):
        problem = make_toy_consensus([5.0, 5.0, 5.0])
        x, val = grid_minimum([r.objective for r in problem.regions], 0, 10, 1e-3)
        assert x == pytest.approx(5.0, abs=1e-3)
        assert val == pytest.approx(0.0, abs=1e-5)

    def test_three_targets_mean(self):
        problem = make_toy_consensus([0.0, 1.0, 2.0])
        x, val = grid_minimum([r.objective for r in problem.regions], -5, 5, 1e-3)
        assert x == pytest.approx(1.0, abs=1e-3)
        assert val == pytest.approx(2.0, abs=1e-5)

    def test_centralized_optimum_is_mean(self):
        targets = [0.3, -1.2, 4.5, 2.0]
        problem = make_toy_consensus(targets)
        mean = sum(targets) / len(targets)
        # stationarity of the summed quadratic at the mean
        grad = sum(float(r.gradient(np.array([mean]))[0]) for r in problem.regions)
        assert abs(grad) < 1e-10

    def test_chain_topology(self):
        problem = make_toy_consensus([0.0, 1.0, 2.0, 3.0])
        assert [(e.k, e.l) for e in problem.edges] == [(1, 2), (2, 3), (3, 4)]
        assert problem.neighbors(2) == (1, 3)
        assert problem.region(2).boundary_rows == 2

    def test_needs_two_targets(self):
        with pytest.raises(ValueError):
            make_toy_consensus([1.0])


class TestNonconvexToy:
    def test_grid_minimum(self):
        # independent exhaustive grid over [-2, 2], step 1e-4
        problem = make_nonconvex_toy()
        xs = np.arange(-2.0, 2.0 + 5e-5, 1e-4)
        vals = (xs**2 - 1.0) ** 2 + (xs - 0.5) ** 2
        i = int(np.argmin(vals))
        assert xs[i] == pytest.approx(0.8846, abs=1e-4)
        shipped_x, shipped_val = nonconvex_toy_minimum()
        assert shipped_x == pytest.approx(xs[i], abs=1e-6)
        assert shipped_val == pytest.approx(vals[i], abs=1e-9)
        total = problem.region(1).objective(np.array([shipped_x])) + \
            problem.region(2).objective(np.array([shipped_x]))
        assert total == pytest.approx(shipped_val, abs=1e-12)

    def test_mirrored_target_mirrors_minimizer(self):
        xs = np.arange(-2.0, 2.0 + 5e-5, 1e-4)
        plus = (xs**2 - 1.0) ** 2 + (xs - 0.5) ** 2
        minus = (xs**2 - 1.0) ** 2 + (xs + 0.5) ** 2
        assert xs[int(np.argmin(plus))] == pytest.approx(
            -xs[int(np.argmin(minus))], abs=1e-9
        )

    def test_minimizer_is_kkt_point(self):
        from asyncadmm.analysis import check_kkt

        problem = make_nonconvex_toy()

        def fd_total(v, h=1e-6):
            out = 0.0
            for region in problem.regions:
                out += (region.objective(np.array([v + h]))
                        - region.objective(np.array([v - h]))) / (2 * h)
            return out

        # bisection on the finite-difference stationarity condition
        coarse, _ = nonconvex_toy_minimum(step=1e-4)
        lo, hi = coarse - 1e-3, coarse + 1e-3
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fd_total(lo) * fd_total(mid) <= 0:
                hi = mid
            else:
                lo = mid
        xstar = 0.5 * (lo + hi)
        h = 1e-6
        lam = []
        for region in problem.regions:
            fd = (region.objective(np.array([xstar + h]))
                  - region.objective(np.array([xstar - h]))) / (2 * h)
            lam.append(np.array([-fd]))
        z = np.array([xstar])
        report = check_kkt(problem, [np.array([xstar])] * 2, z, lam, tol=1e-6)
        assert report["passed"]
        assert max(report["stationarity"]) < 1e-6

    def test_constants_match_curvature_bound(self):
        consts = nonconvex_toy_constants()
        b = 1.25
        assert consts["gamma"] == pytest.approx(12 * b * b - 4)
        assert consts["m1"] == consts["gamma"]
        assert consts["m2"] == 1.0 and consts["c"] == 1.0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_boundary_map_linearity(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 4))
        region = RegionSpec(
            objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(4),
            boundary_map=A,
            lower=np.full(4, -np.inf),
            upper=np.full(4, np.inf),
        )
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        a, b = rng.uniform(-2, 2, size=2)
        left = region.boundary_map @ (a * x + b * y)
        right = a * (region.boundary_map @ x) + b * (region.boundary_map @ y)
        assert np.max(np.abs(left - right)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        problem = make_nonconvex_toy()
        for region in problem.regions:
            x = rng.uniform(-1.2, 1.2, size=1)
            g = region.gradient(x)
            h = 1e-6
            fd = (region.objective(x + h) - region.objective(x - h)) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[0] - fd) / denom < 1e-5

    def test_flat_start_midpoints_and_unbounded_zero(self):
        region = RegionSpec(
            objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(3),
            boundary_map=np.zeros((0, 3)),
            lower=np.array([0.5, -np.inf, 1.0]),
            upper=np.array([1.5, np.inf, np.inf]),
        )
        start = flat_start(region)
        assert start[0] == 1.0      # midpoint
        assert start[1] == 0.0      # fully unbounded
        assert start[2] == 1.0      # half-bounded: zero clipped into the box
