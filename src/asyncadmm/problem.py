"""Partitioned problems with linear boundary coupling.

A problem is split into K regions. Region k owns a variable block x_k, a
smooth objective f_k with gradient, a feasible set given by box bounds plus
smooth equality constraints, and a linear boundary map A_k. Neighbouring
regions k and l are coupled through shared boundary blocks: a row range of
A_k is paired with a row range of A_l, and both products must agree on a
common consensus value z for that edge.

Problem objects are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class CouplingEdge:
    """A consensus block shared by regions ``k`` and ``l`` (1-based, k < l).

    ``block_k`` and ``block_l`` are (start, stop) row ranges into the owning
    regions' boundary maps; both ranges must have equal length.
    """

    k: int
    l: int
    block_k: tuple[int, int]
    block_l: tuple[int, int]

    def __post_init__(self):
        if self.k == self.l:
            raise ValueError("coupling edge must join two distinct regions")
        if self.k > self.l:
            raise ValueError("coupling edge must be stored with k < l")
        for name, (a, b) in (("block_k", self.block_k), ("block_l", self.block_l)):
            if a < 0 or b < a:
                raise ValueError(f"{name} range ({a}, {b}) is invalid")
        if self.block_k[1] - self.block_k[0] != self.block_l[1] - self.block_l[0]:
            raise ValueError("edge block sizes differ between the two regions")

    @property
    def dim(self) -> int:
        return self.block_k[1] - self.block_k[0]

    def block_of(self, region_index: int) -> slice:
        """Row slice of this edge inside region ``region_index``'s boundary rows."""
        if region_index == self.k:
            return slice(*self.block_k)
        if region_index == self.l:
            return slice(*self.block_l)
        raise ValueError(f"region {region_index} is not an endpoint of edge ({self.k},{self.l})")


@dataclass(frozen=True)
class RegionSpec:
    """One region: smooth objective, box + equality feasible set, boundary map.

    ``objective`` and ``gradient`` evaluate f_k and its gradient; both must be
    deterministic. The feasible set is {lower <= x <= upper, equality(x) = 0}.
    The box states the size of x: ``dim_x`` is the length of ``lower``, and
    ``upper`` and the boundary map's columns must match it. The number of
    equality constraints is the length of ``equality(x)``, read at the first
    solve. The indicator of the feasible set is never evaluated numerically;
    infeasibility is reported as a flag by the callers that care.
    """

    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    boundary_map: Array
    lower: Array
    upper: Array
    equality: Callable[[Array], Array] | None = None
    equality_jacobian: Callable[[Array], Array] | None = None
    # optional per-coordinate curvature estimate of the objective; used only
    # to precondition the local solver, never in any optimality condition
    hessian_diag: Callable[[Array], Array] | None = None
    # optional exact constraint curvature: equality_hessian(x, w) is
    # sum_i w_i * Hessian(equality_i)(x), an (dim_x, dim_x) matrix. When set,
    # the local solver's Newton model is the exact augmented-Lagrangian
    # Hessian on the constraint side; without it the model is Gauss-Newton
    equality_hessian: Callable[[Array, Array], Array] | None = None

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ValueError(f"lower and upper must be vectors of one length, "
                             f"got shapes {lo.shape} and {hi.shape}")
        A = np.asarray(self.boundary_map, dtype=float)
        if A.ndim != 2 or A.shape[1] != lo.size:
            raise ValueError(
                f"boundary_map must be 2-D with {lo.size} columns, got shape {A.shape}"
            )
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "boundary_map", A)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if (self.equality is None) != (self.equality_jacobian is None):
            raise ValueError("equality and equality_jacobian must be supplied together")
        if self.equality_hessian is not None and self.equality is None:
            raise ValueError("equality_hessian needs equality constraints")

    @property
    def dim_x(self) -> int:
        return self.lower.size

    @property
    def boundary_rows(self) -> int:
        return self.boundary_map.shape[0]


@dataclass(frozen=True)
class PartitionedProblem:
    """K regions plus the edge list tying their boundary rows together.

    The global consensus vector z holds one block per edge, concatenated in
    edge order; ``boundary_dim`` is its total length. Region k's boundary
    vector z_k (same length as A_k has rows) is assembled from the edge
    blocks via :meth:`region_z`. Because each edge block is stored once, the
    agreement z_{k,l} = z_{l,k} holds by construction.
    """

    regions: tuple[RegionSpec, ...]
    edges: tuple[CouplingEdge, ...]
    boundary_dim: int = field(init=False)
    # z tables, built once: z slice per edge; per region its (row block,
    # z slice) pairs. A worker's neighbours are the simulator's link table.
    _edge_slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    _z_blocks: tuple[tuple[tuple[slice, slice], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        regions = tuple(self.regions)
        edges = tuple(self.edges)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "edges", edges)
        K = len(regions)
        if K == 0:
            raise ValueError("a problem needs at least one region")
        seen = set()
        slices, z_start = [], 0
        blocks = [[] for _ in range(K)]
        for e in edges:
            if not (1 <= e.k <= K and 1 <= e.l <= K):
                raise ValueError(f"edge ({e.k},{e.l}) references an unknown region")
            if (e.k, e.l) in seen:
                raise ValueError(f"edge ({e.k},{e.l}) appears more than once")
            seen.add((e.k, e.l))
            (ak, bk), (al, bl) = e.block_k, e.block_l
            z_slice = slice(z_start, z_start + bk - ak)
            z_start = z_slice.stop
            slices.append(z_slice)
            blocks[e.k - 1].append((ak, bk, z_slice))
            blocks[e.l - 1].append((al, bl, z_slice))
        # every region's boundary rows must be exactly tiled by its edge blocks
        for k, region_blocks in enumerate(blocks, 1):
            cursor = 0
            for a, b in sorted([(a, b) for a, b, _ in region_blocks]):
                if a != cursor:
                    raise ValueError(
                        f"region {k}: boundary rows not contiguously covered at row {cursor}"
                    )
                cursor = b
            if cursor != regions[k - 1].boundary_rows:
                raise ValueError(
                    f"region {k}: edge blocks cover {cursor} rows, "
                    f"boundary map has {regions[k - 1].boundary_rows}"
                )
        object.__setattr__(self, "boundary_dim", z_start)
        object.__setattr__(self, "_edge_slices", tuple(slices))
        object.__setattr__(self, "_z_blocks", tuple(
            tuple((slice(a, b), z_slice) for a, b, z_slice in region_blocks)
            for region_blocks in blocks
        ))

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def region(self, k: int) -> RegionSpec:
        return self.regions[k - 1]

    def edge_slice(self, edge_index: int) -> slice:
        """Slice of edge ``edge_index`` inside the global z vector."""
        return self._edge_slices[edge_index]

    def region_z(self, z_global: Array, k: int) -> Array:
        """Assemble region k's boundary vector from the global edge blocks;
        k must be in 1..K."""
        if not 1 <= k <= len(self.regions):
            raise IndexError(f"region {k} is not in 1..{len(self.regions)}")
        out = np.zeros(self.regions[k - 1].boundary_rows)
        for block, z_slice in self._z_blocks[k - 1]:
            out[block] = z_global[z_slice]
        return out

    def total_objective(self, x_all: list[Array]) -> float:
        return float(sum(r.objective(np.asarray(x)) for r, x in zip(self.regions, x_all)))


def flat_start(region: RegionSpec) -> Array:
    """Midpoint of the box bounds; coordinates with an infinite bound start at
    0 clipped into the box."""
    both = np.isfinite(region.lower) & np.isfinite(region.upper)
    mid = np.zeros(region.dim_x)
    mid[both] = 0.5 * (region.lower[both] + region.upper[both])
    return np.clip(mid, region.lower, region.upper)


def _quadratic_region(target: float, rows: int, bound: float = np.inf) -> RegionSpec:
    """Scalar x in [-bound, bound] minimising (x - target)^2, its value
    repeated on ``rows`` boundary rows."""
    return RegionSpec(
        objective=lambda x, c=target: float((x[0] - c) ** 2),
        gradient=lambda x, c=target: np.array([2.0 * (x[0] - c)]),
        boundary_map=np.ones((rows, 1)),
        lower=np.array([-bound]),
        upper=np.array([bound]),
        hessian_diag=lambda x: np.array([2.0]),
    )


def make_toy_consensus(c) -> PartitionedProblem:
    """Chain-coupled scalar consensus instance with targets ``c``.

    Region k minimises (x - c_k)^2 over a scalar x; consecutive regions are
    coupled so that, at consensus, all regions agree on one value. The
    centralized optimum is mean(c). The chain topology (rather than a clique)
    is a fixture choice.
    """
    targets = [float(v) for v in c]
    if len(targets) < 2 or not np.isfinite(targets).all():
        raise ValueError("a consensus toy needs at least two finite targets")
    K = len(targets)
    # one boundary row per chain neighbour
    regions = [_quadratic_region(t, (k > 1) + (k < K)) for k, t in enumerate(targets, start=1)]
    edges = []
    for k in range(1, K):
        # region k's rows: [edge to k-1] then [edge to k+1]
        row_k = 0 if k == 1 else 1
        edges.append(CouplingEdge(k=k, l=k + 1, block_k=(row_k, row_k + 1), block_l=(0, 1)))
    return PartitionedProblem(regions=tuple(regions), edges=tuple(edges))


NONCONVEX_TOY_BOUND = 1.25


def make_nonconvex_toy() -> PartitionedProblem:
    """Two-region scalar instance with a double-well objective.

    Region 1 carries f_1(x) = (x^2 - 1)^2, region 2 carries
    f_2(x) = (x - 0.5)^2; a single consensus edge forces agreement. Both
    variables are boxed to [-1.25, 1.25], which keeps the feasible set
    compact and pins the curvature constants used by the parameter-bound
    diagnostics (max |f''| over the box).
    """
    b = NONCONVEX_TOY_BOUND
    double_well = RegionSpec(
        objective=lambda x: float((x[0] ** 2 - 1.0) ** 2),
        gradient=lambda x: np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)]),
        boundary_map=np.ones((1, 1)),
        lower=np.array([-b]),
        upper=np.array([b]),
        hessian_diag=lambda x: np.array([12.0 * x[0] ** 2 - 4.0]),
    )
    quadratic = _quadratic_region(0.5, 1, bound=b)
    edge = CouplingEdge(k=1, l=2, block_k=(0, 1), block_l=(0, 1))
    return PartitionedProblem(regions=(double_well, quadratic), edges=(edge,))
