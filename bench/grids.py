"""Seeded synthetic meshed grids for the grid16-sync workload.

A grid has :data:`REGIONS` regions of :data:`BUSES_PER_REGION` buses.
Inside a region the buses form a ring plus one chord; the regions themselves form a
ring, and every pair of neighbouring regions is joined by two tie lines
between distinct bus pairs. Each region owns one generator; every other bus
carries a load. All values come from ``random.Random(seed)`` and are printed
with fixed precision, so one seed always gives byte-identical case and
partition text.

Each grid is checked with the Newton power flow the warm start uses: a grid
whose flow does not converge raises :class:`GridError`, so a later baseline
failure is the solver's and not an infeasible input's.
"""

from __future__ import annotations

import random
from pathlib import Path

from checkout import use_checkout_sources

use_checkout_sources()

from asyncadmm import caseio, opf  # noqa: E402

REGIONS = 4
BUSES_PER_REGION = 4


class GridError(RuntimeError):
    """A generated grid failed its power-flow check."""


def grid_text(seed: int) -> tuple[str, str]:
    """Case and partition text of the grid with this seed."""
    rng = random.Random(seed)
    regions, n = REGIONS, BUSES_PER_REGION

    def bus(region: int, i: int) -> int:
        return region * n + i + 1

    gen_bus = [bus(r, rng.randrange(n)) for r in range(regions)]
    bus_rows = []
    for r in range(regions):
        for i in range(n):
            b = bus(r, i)
            p = 0.0 if b == gen_bus[r] else rng.uniform(20.0, 50.0)
            q = p * rng.uniform(0.25, 0.35)
            bus_rows.append(f"{b} {p:.2f} {q:.2f} 0.95 1.05 0 0")

    pairs = []
    for r in range(regions):
        pairs += [(bus(r, i), bus(r, (i + 1) % n)) for i in range(n)]
        a = rng.randrange(n)
        pairs.append((bus(r, a), bus(r, (a + 2) % n)))  # the chord
    for r in range(regions):
        s = (r + 1) % regions
        ends = rng.sample([(i, j) for i in range(n) for j in range(n)], 2)
        while ends[0][0] == ends[1][0] or ends[0][1] == ends[1][1]:
            ends = rng.sample([(i, j) for i in range(n) for j in range(n)], 2)
        pairs += [(bus(r, i), bus(s, j)) for i, j in ends]
    branch_rows = [
        f"{f} {t} {rng.uniform(0.01, 0.03):.4f} {rng.uniform(0.05, 0.09):.4f} "
        f"{rng.uniform(0.01, 0.03):.4f} 0"
        for f, t in pairs
    ]

    total_load = sum(float(row.split()[1]) for row in bus_rows)
    p_max = 1.6 * total_load / regions
    gen_rows = [f"{b} 0.0 {p_max:.1f} {-0.5 * p_max:.1f} {0.5 * p_max:.1f}" for b in gen_bus]
    cost_rows = [f"{rng.uniform(0.01, 0.04):.4f} {rng.uniform(20.0, 35.0):.2f} 0.0"
                 for _ in gen_bus]

    case = "\n".join(
        [f"# synthetic meshed grid, seed {seed}: {regions} regions x {n} buses",
         "BASEMVA 100", "BUS  # id Pload Qload Vmin Vmax Gs Bs", *bus_rows,
         "BRANCH  # from to r x charging tap", *branch_rows,
         "GEN  # bus Pmin Pmax Qmin Qmax", *gen_rows,
         "COST  # a b c", *cost_rows]
    ) + "\n"
    part = "".join(
        f"{r + 1}: " + " ".join(str(bus(r, i)) for i in range(n)) + "\n"
        for r in range(regions)
    )
    return case, part


def check_grid(case_text: str, part_text: str) -> None:
    """Parse the grid and require the warm-start power flow to converge."""
    case = caseio.parse_case(case_text)
    caseio.parse_partition(part_text, case)
    try:
        opf.newton_power_flow(case)
    except opf.BuildError as err:
        raise GridError(f"power flow does not solve: {err}") from err


def write_grid(seed: int, directory: Path) -> tuple[Path, Path]:
    """Generate, check and write ``grid<seed>.case`` and ``grid<seed>.part``;
    returns their paths."""
    case_text, part_text = grid_text(seed)
    check_grid(case_text, part_text)
    directory.mkdir(parents=True, exist_ok=True)
    case_path = directory / f"grid{seed}.case"
    part_path = directory / f"grid{seed}.part"
    case_path.write_text(case_text, encoding="utf-8")
    part_path.write_text(part_text, encoding="utf-8")
    return case_path, part_path

