"""AC optimal power flow as a partitioned problem.

A case (buses, branches, generators, quadratic costs) plus a region
partition compiles into one :class:`~asyncadmm.problem.PartitionedProblem`
region per partition class. Voltages are kept in rectangular coordinates
(V = e + jf) so the boundary coupling is linear; voltage magnitude limits
become box bounds on an auxiliary variable u with the smooth equality
u = e^2 + f^2.

For every tie line between two regions the endpoint voltages are duplicated
into both regions, and the shared consensus block carries the scaled
difference and sum of the two endpoint voltages,

    z_minus = beta_minus (V_from - V_to),   z_plus = beta_plus (V_from + V_to),

two real coordinates each, so each tie line contributes a block of four.
The difference weight should exceed the sum weight (it tracks the line
flow); the builder warns, but does not fail, when that is violated.
:class:`RegionLayout` states the order of a region's variables, and every
consumer reads its columns from there.

Everything is in per unit internally.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .localsolver import SolveResult, last_point_memo, solve_local
from .problem import Array, CouplingEdge, PartitionedProblem, RegionSpec, flat_start

DEFAULT_BETA_MINUS = 2.0
DEFAULT_BETA_PLUS = 0.5


class BuildError(ValueError):
    """A case/partition pair that cannot be compiled; names the offender."""


@dataclass(frozen=True)
class Bus:
    id: int
    p_load: float = 0.0
    q_load: float = 0.0
    v_min: float = 0.9
    v_max: float = 1.1
    gs: float = 0.0
    bs: float = 0.0

    def __post_init__(self):
        if not 0 <= self.v_min <= self.v_max:
            raise ValueError(f"bus {self.id}: voltage bounds 0 <= {self.v_min} <= {self.v_max} violated")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    charging: float = 0.0
    tap: float = 0.0  # 0 means no transformer (ratio 1)

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: self-loop")
        if self.r == 0 and self.x == 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: zero impedance")

    @property
    def ratio(self) -> float:
        return self.tap if self.tap != 0.0 else 1.0


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost_a: float = 0.0
    cost_b: float = 0.0
    cost_c: float = 0.0

    def __post_init__(self):
        if self.p_min > self.p_max or self.q_min > self.q_max:
            raise ValueError(f"generator at bus {self.bus}: empty P or Q box")

    def cost(self, p_mw: float) -> float:
        return self.cost_a * p_mw * p_mw + self.cost_b * p_mw + self.cost_c


@dataclass(frozen=True)
class OpfCase:
    """Bus/branch/generator tables with a common MVA base. Loads, shunts and
    generator limits are in MW/MVAr in the tables and converted to per unit
    internally; costs apply to MW."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.base_mva <= 0:
            raise ValueError("base MVA must be positive")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate bus id {dup[0]}")
        known = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise ValueError(f"branch {br.from_bus}-{br.to_bus}: dangling endpoint {end}")
        for g in self.generators:
            if g.bus not in known:
                raise ValueError(f"generator references unknown bus {g.bus}")
        if len(self.buses) > 1 and not _connected(known, self.branches):
            raise ValueError("network graph is not connected")

    @property
    def bus_ids(self) -> list[int]:
        return sorted(b.id for b in self.buses)

    def bus_index(self) -> dict[int, int]:
        return {bid: i for i, bid in enumerate(self.bus_ids)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


def _connected(ids: set[int], branches) -> bool:
    if not ids:
        return True
    adj: dict[int, set[int]] = {i: set() for i in ids}
    for br in branches:
        if br.from_bus in ids and br.to_bus in ids:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    start = next(iter(sorted(ids)))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == ids


def admittance_matrix(case: OpfCase) -> Array:
    """Dense complex bus admittance matrix (pi branch model with tap ratio,
    bus shunts on the diagonal)."""
    idx = case.bus_index()
    n = len(case.buses)
    Y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.charging / 2.0
        t = br.ratio
        f, to = idx[br.from_bus], idx[br.to_bus]
        Y[f, f] += (ys + bc) / (t * t)
        Y[to, to] += ys + bc
        Y[f, to] += -ys / t
        Y[to, f] += -ys / t
    for b in case.buses:
        Y[idx[b.id], idx[b.id]] += complex(b.gs, b.bs) / case.base_mva
    return Y


def power_flow_residual(case: OpfCase, V, P, Q) -> Array:
    """Per-bus complex power mismatch split into real and imaginary parts.

    ``V`` is the complex bus voltage vector, ``P``/``Q`` the net generation
    injection per bus in per unit (bus order = sorted ids). Zero iff the
    AC power flow equations hold.
    """
    n = len(case.buses)
    V = np.asarray(V, dtype=complex)
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if V.shape != (n,) or P.shape != (n,) or Q.shape != (n,):
        raise ValueError(f"expected vectors of length {n}")
    load = np.array(
        [complex(case.bus(bid).p_load, case.bus(bid).q_load) / case.base_mva
         for bid in case.bus_ids]
    )
    Y = admittance_matrix(case)
    S = (P - load.real) + 1j * (Q - load.imag)
    mismatch = S - V * np.conj(Y @ V)
    return np.concatenate([mismatch.real, mismatch.imag])


# --------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Bus-to-region assignment; regions must be 1..R, non-empty, and
    internally connected. Tie lines (branches crossing regions) are derived."""

    assignment: dict

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def validate(self, case: OpfCase) -> None:
        known = set(case.bus_ids)
        for bid in self.assignment:
            if bid not in known:
                raise BuildError(f"partition references unknown bus {bid}")
        for bid in case.bus_ids:
            if bid not in self.assignment:
                raise BuildError(f"bus {bid} unassigned")
        regions = sorted(set(self.assignment.values()))
        if regions != list(range(1, len(regions) + 1)):
            raise BuildError(f"region indices must be 1..R with no gaps, got {regions}")
        for r in regions:
            members = {b for b, reg in self.assignment.items() if reg == r}
            internal = [br for br in case.branches
                        if self.assignment[br.from_bus] == r and self.assignment[br.to_bus] == r]
            if len(members) > 1 and not _connected(members, internal):
                raise BuildError(f"region {r} is not internally connected")

    @property
    def num_regions(self) -> int:
        return max(self.assignment.values())

    def buses_of(self, region: int) -> list[int]:
        return sorted(b for b, r in self.assignment.items() if r == region)

    def tie_lines(self, case: OpfCase) -> list[int]:
        """Indices into case.branches of branches crossing regions."""
        return [i for i, br in enumerate(case.branches)
                if self.assignment[br.from_bus] != self.assignment[br.to_bus]]


def single_region_partition(case: OpfCase) -> Partition:
    return Partition({bid: 1 for bid in case.bus_ids})


# --------------------------------------------------------------------------
# compiled layout


@dataclass
class RegionLayout:
    """Columns of one compiled region's variable vector, fixed at construction.

    x = [e | f | u | p | q | e_dup | f_dup]: the rectangular voltages e, f and
    the squared magnitudes u of the owned buses (``own_bus_ids`` order), the
    P and Q dispatch of the owned generators (``gen_indices`` order), and the
    rectangular voltages of the duplicated far ends of the region's tie lines
    (``dup_bus_ids`` order). Each block is a slice attribute of that name;
    ``columns`` maps every owned or duplicated bus to its (e, f) columns.
    """

    own_bus_ids: list[int]
    dup_bus_ids: list[int]
    gen_indices: list[int]

    def __post_init__(self):
        n, g, d = len(self.own_bus_ids), len(self.gen_indices), len(self.dup_bus_ids)
        self.n_own = n
        self.e, self.f, self.u = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
        self.p, self.q = slice(3 * n, 3 * n + g), slice(3 * n + g, 3 * n + 2 * g)
        base = 3 * n + 2 * g
        self.e_dup, self.f_dup = slice(base, base + d), slice(base + d, base + 2 * d)
        self.dim = base + 2 * d
        self.columns = {bid: (self.e.start + i, self.f.start + i)
                        for i, bid in enumerate(self.own_bus_ids)}
        self.columns.update({bid: (self.e_dup.start + i, self.f_dup.start + i)
                             for i, bid in enumerate(self.dup_bus_ids)})


@dataclass
class OpfLayout:
    case: OpfCase
    regions: list[RegionLayout]

    def region(self, k: int) -> RegionLayout:
        return self.regions[k - 1]

    def assemble_network_solution(self, x_all: list[Array]):
        """Stitch regional solutions into full-network (V, P, Q) per-bus
        vectors (per unit, bus order = sorted ids)."""
        idx = self.case.bus_index()
        n = len(self.case.buses)
        V = np.zeros(n, dtype=complex)
        P = np.zeros(n)
        Q = np.zeros(n)
        for lay, x in zip(self.regions, x_all):
            own = [idx[b] for b in lay.own_bus_ids]
            V.real[own] = x[lay.e]
            V.imag[own] = x[lay.f]
            gen_bus = [idx[self.case.generators[g].bus] for g in lay.gen_indices]
            np.add.at(P, gen_bus, x[lay.p])
            np.add.at(Q, gen_bus, x[lay.q])
        return V, P, Q

    def total_cost(self, x_all: list[Array]) -> float:
        total = 0.0
        for lay, x in zip(self.regions, x_all):
            for g, p in zip(lay.gen_indices, x[lay.p].tolist()):
                total += self.case.generators[g].cost(p * self.case.base_mva)
        return total


# --------------------------------------------------------------------------
# compilation


def _region_functions(case: OpfCase, layout: RegionLayout, Y: Array):
    """Objective/gradient, power-balance equality, Jacobian, objective
    curvature and weighted constraint curvature closures for one region."""
    base = case.base_mva
    idx = case.bus_index()
    own = layout.own_bus_ids
    local_ids = own + layout.dup_bus_ids
    rows = [idx[b] for b in own]
    cols = [idx[b] for b in local_ids]
    Yloc = Y[np.ix_(rows, cols)]
    n_own, n_loc, dim = layout.n_own, len(local_ids), layout.dim
    p_load = np.array([case.bus(b).p_load for b in own]) / base
    q_load = np.array([case.bus(b).q_load for b in own]) / base
    gen_pos = np.array(
        [own.index(case.generators[g].bus) for g in layout.gen_indices], dtype=int
    )
    a = np.array([case.generators[g].cost_a for g in layout.gen_indices])
    b_lin = np.array([case.generators[g].cost_b for g in layout.gen_indices])
    c_const = float(sum(case.generators[g].cost_c for g in layout.gen_indices))
    e_sl, f_sl, u_sl, p_sl, q_sl = layout.e, layout.f, layout.u, layout.p, layout.q

    # local bus order is [own | dup]; ef_cols lists the e then the f columns
    own = np.arange(n_own)
    e_loc, f_loc = np.array([layout.columns[b] for b in local_ids]).T
    own_e, own_f = e_loc[:n_own], f_loc[:n_own]
    ef_cols = np.concatenate([e_loc, f_loc])
    Yconj = np.conj(Yloc)

    @last_point_memo
    def voltage_current(x):  # V = e + jf and I = Yloc V, shared by h and J at one point
        V = x[e_loc] + 1j * x[f_loc]
        return V, Yloc @ V

    def objective(x) -> float:
        p_mw = x[p_sl] * base
        return float((a * p_mw * p_mw + b_lin * p_mw).sum() + c_const)

    def gradient(x) -> Array:
        g = np.zeros(dim)
        p_mw = x[p_sl] * base
        g[p_sl] = (2.0 * a * p_mw + b_lin) * base
        return g

    pq_pos = np.concatenate([gen_pos, gen_pos + n_own])  # bus bins of P then Q
    curvature = np.zeros(dim)
    curvature[p_sl] = 2.0 * a * base * base

    def hessian_diag(x) -> Array:
        return curvature

    def equality(x) -> Array:
        V, I = voltage_current(x)
        pq_bus = np.bincount(pq_pos, weights=x[p_sl.start:q_sl.stop], minlength=2 * n_own)
        S = (pq_bus[:n_own] - p_load) + 1j * (pq_bus[n_own:] - q_load)
        mism = S - V[:n_own] * np.conj(I)
        u_gap = x[e_sl] ** 2 + x[f_sl] ** 2 - x[u_sl]
        return np.concatenate([mism.real, mism.imag, u_gap])

    # Every equality row is quadratic in the rectangular voltages, so the
    # weighted constraint curvature sum_i w_i Hessian(h_i) is constant in x
    # and linear in w. With w~ = w_re + j w_im on the owned balance rows,
    # sum_i Re(conj(w~_i) mism_i) has network part -Re(V^H N^T V), where
    # N[i, m] = conj(w~_i) conj(Yloc[i, m]) (zero rows for duplicates); with
    # C the Hermitian part of N^T that is -[e; f]^T [[Re C, -Im C],
    # [Im C, Re C]] [e; f]. The u rows add 2 w_u on the owned e and f.
    def equality_hessian(x, w) -> Array:
        w = np.asarray(w, dtype=float)
        wt = w[:n_own] + 1j * w[n_own:2 * n_own]
        N = np.zeros((n_loc, n_loc), dtype=complex)
        N[:n_own] = np.conj(wt)[:, None] * Yconj
        C = 0.5 * (N.T + np.conj(N))
        H = np.zeros((dim, dim))
        H[np.ix_(ef_cols, ef_cols)] = -2.0 * np.block([[C.real, -C.imag],
                                                       [C.imag, C.real]])
        w_u = 2.0 * w[2 * n_own:]
        H[own_e, own_e] += w_u
        H[own_f, own_f] += w_u
        return H

    # the x-independent part of the Jacobian: the generator P and Q entries
    # of the balance rows and the -1 on u in the u rows
    u_rows = 2 * n_own + own
    J_const = np.zeros((3 * n_own, dim))
    for j, pos in enumerate(gen_pos):
        J_const[pos, p_sl.start + j] = 1.0
        J_const[n_own + pos, q_sl.start + j] = 1.0
    J_const[u_rows, u_sl.start + own] = -1.0
    # flat positions, in dS = [dS/de | dS/df] (n_own x 2 n_loc), of the two
    # diagonals, and in J of dS's (real, imag) pairs and of the u rows' 2e, 2f
    dS_diag = (own * (2 * n_loc + 1) + [[0], [n_loc]]).ravel()
    balance_pos = ((own[:, None] * dim + ef_cols)[..., None] + [0, n_own * dim]).ravel()
    u_pos = (u_rows * dim + [[e_sl.start], [f_sl.start]] + own).ravel()

    def jacobian(x) -> Array:
        V, I = voltage_current(x)
        # d(V_i conj(I_i))/de_m = delta_im conj(I_i) + V_i conj(Y_im)
        dS = np.empty((n_own, 2 * n_loc), dtype=complex)
        dV = np.multiply(Yconj, V[:n_own, None], out=dS[:, :n_loc])
        np.multiply(-1j, dV, out=dS[:, n_loc:])
        conj_I = np.conj(I)
        dS.reshape(-1)[dS_diag] += np.concatenate([conj_I, 1j * conj_I])
        J = J_const.copy()
        J.reshape(-1)[balance_pos] = -dS.view(float).ravel()
        J.reshape(-1)[u_pos] = 2.0 * x[e_sl.start:f_sl.stop]
        return J

    return objective, gradient, equality, jacobian, hessian_diag, equality_hessian


def _region_bounds(case: OpfCase, layout: RegionLayout, ref_bus: int):
    base = case.base_mva
    own = [case.bus(b) for b in layout.own_bus_ids]
    gens = [case.generators[g] for g in layout.gen_indices]
    dup = [case.bus(b) for b in layout.dup_bus_ids]
    # (lower, upper) per column in layout order; the angle reference bus is
    # pinned through a degenerate box on f
    boxes = ([(b.v_min, b.v_max) for b in own]
             + [(0.0, 0.0) if b.id == ref_bus else (-b.v_max, b.v_max) for b in own]
             + [(b.v_min**2, b.v_max**2) for b in own]
             + [(g.p_min / base, g.p_max / base) for g in gens]
             + [(g.q_min / base, g.q_max / base) for g in gens]
             + [(b.v_min, b.v_max) for b in dup]
             + [(-b.v_max, b.v_max) for b in dup])
    lo, hi = zip(*boxes)
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


def reference_bus(case: OpfCase) -> int:
    """The angle reference: the first generator's bus (ties broken by table
    order); a case without generators uses the lowest bus id."""
    if case.generators:
        return case.generators[0].bus
    return case.bus_ids[0]


def build_regional_subproblems(
    case: OpfCase,
    partition: Partition,
    beta_minus: float = DEFAULT_BETA_MINUS,
    beta_plus: float = DEFAULT_BETA_PLUS,
    exact_curvature: bool = False,
) -> tuple[PartitionedProblem, OpfLayout]:
    """Compile the case under the partition into a partitioned problem.

    Each region's variables are laid out by :class:`RegionLayout`. The
    boundary map carries the beta-scaled difference/sum rows per tie line;
    regional equalities are the power-balance equations at owned buses
    (tie-line flows expressed through the duplicates) and the u
    definition. ``exact_curvature``
    attaches the analytic constraint curvature
    (:attr:`~asyncadmm.problem.RegionSpec.equality_hessian`) to every region,
    so the local solver uses an exact Newton model instead of Gauss-Newton.
    Rebuilding is deterministic.
    """
    partition.validate(case)
    if not (0 < beta_minus < np.inf and 0 < beta_plus < np.inf):
        raise BuildError("beta weights must be positive and finite")
    if beta_minus <= beta_plus:
        warnings.warn(
            "difference weight beta_minus should exceed sum weight beta_plus",
            stacklevel=2,
        )
    R = partition.num_regions
    ref = reference_bus(case)
    ties = partition.tie_lines(case)
    # group tie branches per region pair
    pair_ties: dict[tuple[int, int], list[int]] = {}
    for t in ties:
        br = case.branches[t]
        rk = partition.assignment[br.from_bus]
        rl = partition.assignment[br.to_bus]
        pair = (min(rk, rl), max(rk, rl))
        pair_ties.setdefault(pair, []).append(t)
    pairs = sorted(pair_ties)

    layouts = []
    for k in range(1, R + 1):
        own = partition.buses_of(k)
        dup = sorted({
            (case.branches[t].to_bus if partition.assignment[case.branches[t].from_bus] == k
             else case.branches[t].from_bus)
            for pair in pairs if k in pair for t in pair_ties[pair]
        })
        gens = [i for i, g in enumerate(case.generators) if partition.assignment[g.bus] == k]
        layouts.append(RegionLayout(own_bus_ids=own, dup_bus_ids=dup, gen_indices=gens))

    # boundary maps: edges in sorted pair order, four rows per tie line
    # (difference re/im, then sum re/im)
    boundary = {k: np.zeros((4 * sum(len(pair_ties[pair]) for pair in pairs if k in pair),
                             layouts[k - 1].dim))
                for k in range(1, R + 1)}
    row_cursor = {k: 0 for k in range(1, R + 1)}
    edges: list[CouplingEdge] = []
    for k, l in pairs:
        block = {}
        for side in (k, l):
            A, columns = boundary[side], layouts[side - 1].columns
            start = row_cursor[side]
            for t in pair_ties[k, l]:
                br = case.branches[t]
                for weight, sign_to in ((beta_minus, -1.0), (beta_plus, 1.0)):
                    for comp in (0, 1):  # e, then f
                        A[row_cursor[side], columns[br.from_bus][comp]] = weight
                        A[row_cursor[side], columns[br.to_bus][comp]] = weight * sign_to
                        row_cursor[side] += 1
            block[side] = (start, row_cursor[side])
        edges.append(CouplingEdge(k=k, l=l, block_k=block[k], block_l=block[l]))

    Y = admittance_matrix(case)
    regions = []
    for k in range(1, R + 1):
        lay = layouts[k - 1]
        (objective, gradient, equality, jacobian, hessian_diag,
         equality_hessian) = _region_functions(case, lay, Y)
        lo, hi = _region_bounds(case, lay, ref)
        regions.append(RegionSpec(
            dim_x=lay.dim,
            objective=objective,
            gradient=gradient,
            boundary_map=boundary[k],
            lower=lo,
            upper=hi,
            equality=equality,
            equality_jacobian=jacobian,
            eq_dim=3 * lay.n_own,
            name=f"region-{k}",
            hessian_diag=hessian_diag,
            equality_hessian=equality_hessian if exact_curvature else None,
        ))
    problem = PartitionedProblem(regions=tuple(regions), edges=tuple(edges))
    return problem, OpfLayout(case=case, regions=layouts)


# --------------------------------------------------------------------------
# centralized reference and starts


@dataclass
class CentralizedResult:
    objective: float
    V: Array
    P: Array
    Q: Array
    diagnostics: SolveResult


def centralized_reference_solve(case: OpfCase) -> CentralizedResult:
    """Solve the undecomposed problem (single region, no coupling); used as
    the baseline for objective-gap reporting. The region carries the exact
    constraint curvature, so the local solver takes full Newton steps on the
    augmented Lagrangian. Solver failures propagate."""
    problem, layout = build_regional_subproblems(case, single_region_partition(case),
                                                 exact_curvature=True)
    region = problem.region(1)
    result = solve_local(region, None, flat_start(region))
    V, P, Q = layout.assemble_network_solution([result.x])
    return CentralizedResult(
        objective=layout.total_cost([result.x]), V=V, P=P, Q=Q, diagnostics=result,
    )


def newton_power_flow(case: OpfCase):
    """Newton-Raphson power flow used for warm starts, run until every
    mismatch is below 1e-10, for at most 60 iterations.

    The first generator's bus is slack, other generator buses hold voltage
    magnitude at the midpoint of their band with P fixed at the midpoint of
    their box; load buses start flat. Returns (V, P_bus, Q_bus) in per unit,
    where the slack bus absorbs the network imbalance.
    """
    tol, max_iters = 1e-10, 60
    if not case.generators:
        raise BuildError("power flow warm start needs at least one generator")
    base = case.base_mva
    idx = case.bus_index()
    n = len(case.buses)
    Y = admittance_matrix(case)
    slack = idx[reference_bus(case)]
    gen_buses = sorted({idx[g.bus] for g in case.generators})
    pv = [b for b in gen_buses if b != slack]
    pq = [b for b in range(n) if b not in gen_buses]
    vm = np.empty(n)
    for bid, i in idx.items():
        bus = case.bus(bid)
        vm[i] = 0.5 * (bus.v_min + bus.v_max)
    va = np.zeros(n)
    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for g in case.generators:
        i = idx[g.bus]
        if i != slack:
            p_sched[i] += 0.5 * (g.p_min + g.p_max) / base
    for bid, i in idx.items():
        bus = case.bus(bid)
        p_sched[i] -= bus.p_load / base
        q_sched[i] -= bus.q_load / base
    non_slack = [b for b in range(n) if b != slack]
    for _ in range(max_iters):
        V = vm * np.exp(1j * va)
        I = Y @ V
        S = V * np.conj(I)
        dp = p_sched[non_slack] - S.real[non_slack]
        dq = q_sched[pq] - S.imag[pq]
        mismatch = np.concatenate([dp, dq])
        if np.max(np.abs(mismatch), initial=0.0) < tol:
            break
        diag_v = np.diag(V)
        diag_i = np.diag(I)
        diag_vn = np.diag(V / np.abs(V))
        ds_dvm = diag_v @ np.conj(Y @ diag_vn) + np.conj(diag_i) @ diag_vn
        ds_dva = 1j * diag_v @ np.conj(diag_i - Y @ diag_v)
        J = np.block([
            [ds_dva.real[np.ix_(non_slack, non_slack)], ds_dvm.real[np.ix_(non_slack, pq)]],
            [ds_dva.imag[np.ix_(pq, non_slack)], ds_dvm.imag[np.ix_(pq, pq)]],
        ])
        try:
            step = np.linalg.solve(J, mismatch)
        except np.linalg.LinAlgError as err:
            raise BuildError(f"power flow Jacobian is singular: {err}") from err
        va[non_slack] += step[: len(non_slack)]
        vm[pq] += step[len(non_slack):]
        if not np.all(np.isfinite(vm)) or np.any(vm <= 0):
            raise BuildError("power flow diverged")
    else:
        raise BuildError(f"power flow did not converge in {max_iters} iterations")
    V = vm * np.exp(1j * va)
    S = V * np.conj(Y @ V)
    p_bus = S.real.copy()
    q_bus = S.imag.copy()
    for bid, i in idx.items():
        bus = case.bus(bid)
        p_bus[i] += bus.p_load / base
        q_bus[i] += bus.q_load / base
    return V, p_bus, q_bus


def warm_start(layout: OpfLayout, problem: PartitionedProblem) -> list[Array]:
    """Regional start vectors from a power-flow solution of ``layout.case``:
    voltages (own and duplicated) from the solved state, generator dispatch
    from the flow solution clipped into its boxes. ``problem`` is the one
    compiled with ``layout``; its regions' bounds clip the vectors."""
    case = layout.case
    V, p_bus, q_bus = newton_power_flow(case)
    idx = case.bus_index()
    base = case.base_mva
    share = Counter(gen.bus for gen in case.generators)
    starts = []
    for lay, region in zip(layout.regions, problem.regions):
        own = [V[idx[bid]] for bid in lay.own_bus_ids]
        gens = [case.generators[g] for g in lay.gen_indices]
        dup = [V[idx[bid]] for bid in lay.dup_bus_ids]
        x = np.array(
            [v.real for v in own] + [v.imag for v in own] + [abs(v) ** 2 for v in own]
            + [np.clip(p_bus[idx[g.bus]] / share[g.bus], g.p_min / base, g.p_max / base)
               for g in gens]
            + [np.clip(q_bus[idx[g.bus]] / share[g.bus], g.q_min / base, g.q_max / base)
               for g in gens]
            + [v.real for v in dup] + [v.imag for v in dup], dtype=float)
        starts.append(np.clip(x, region.lower, region.upper))
    return starts
