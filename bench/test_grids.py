"""Tests of the seeded grid generator.

    python3 -m pytest bench/test_grids.py
"""

import grids
from asyncadmm import caseio


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = grids.write_grid(8, tmp_path / "first")
    second = grids.write_grid(8, tmp_path / "second")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_seeds_give_different_grids():
    assert grids.grid_text(8) != grids.grid_text(9)


def test_grid_shape_and_power_flow():
    for seed in range(4):
        case_text, part_text = grids.grid_text(seed)
        grids.check_grid(case_text, part_text)  # regions connected, power flow solves
        case = caseio.parse_case(case_text)
        partition = caseio.parse_partition(part_text, case)
        assert len(case.buses) == grids.REGIONS * grids.BUSES_PER_REGION
        assert len(case.generators) == grids.REGIONS
        assert partition.num_regions == grids.REGIONS
        assert len(partition.tie_lines(case)) == 2 * grids.REGIONS
