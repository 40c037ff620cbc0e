"""Test oracles that the library itself does not need: the augmented
Lagrangian value, the double-well toy's constants and grid minimum, and a
reader for the convergence table. Not collected as tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from asyncadmm.caseio import RESULTS_HEADER, ParseError
from asyncadmm.kernel import AdmmParams
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
