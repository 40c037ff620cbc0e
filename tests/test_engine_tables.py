"""The simulator's precomputed tables against the definitions they replace:
payload digests against the recursive reference in ``reference_digest``,
the problem's topology lookups and the simulator's link table against
edge-list scans, and the cached per-region objectives behind
``iteration_log`` against ``PartitionedProblem.total_objective``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm import caseio, engine
from asyncadmm.cli import main
from asyncadmm.engine import DelayModel, StoppingRule, _Simulator
from asyncadmm.kernel import AdmmParams
from asyncadmm.opf import build_regional_subproblems
from asyncadmm.problem import CouplingEdge, PartitionedProblem, RegionSpec, make_toy_consensus

import reference_digest as reference
from conftest import CASES_DIR, config_path


# --------------------------------------------------------------------------
# payload digests


# between them these runs carry every payload kind the engine writes
@pytest.mark.parametrize("config", ["toy_sync", "ring5_async", "nine_sync", "toy_chain16",
                                    "nonconvex"])
def test_digest_matches_reference_on_shipped_runs(tmp_path, config):
    out = tmp_path / config
    assert main(["run", str(config_path(config, tmp_path)), "--set", f"outdir={out}",
                 "--set", "baseline=false"]) == 0
    _, *lines = (out / "trace.log").read_text().splitlines()
    assert lines
    sent = {}  # a receive record carries the digest of its send's payload
    for line in lines:
        kind, worker, local_iter, _, digest, text = line.split(" ", 5)
        payload = json.loads(text)
        expected = reference.payload_digest(payload)
        assert engine.payload_digest(payload, text) == expected, (kind, worker, local_iter)
        if kind == "send":
            sent[(int(worker), payload["edge"], int(local_iter))] = expected
        if kind == "receive":
            expected = sent[(payload["from"], payload["edge"], payload["sender_iter"])]
        assert digest == expected, (kind, worker, local_iter)


_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_numbers = st.one_of(_floats, st.integers(min_value=-10**20, max_value=10**20))
_scalars = st.one_of(_numbers, st.booleans(), st.text(max_size=6), st.none())
_values = st.recursive(
    st.one_of(_scalars, st.lists(_floats, max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
_number_lists = st.recursive(st.lists(_numbers, max_size=5),
                             lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_payloads = st.one_of(
    st.dictionaries(st.text(max_size=6), _values, max_size=6),
    # numeric payloads like the engine's: plain keys over numbers and number lists
    st.dictionaries(st.one_of(st.sampled_from(["x", "lam", "ax", "z", "feas", "edge", "to"]),
                              st.text("az_09", min_size=1, max_size=4)),
                    st.one_of(_numbers, _number_lists), max_size=5),
)
_encode = json.JSONEncoder(sort_keys=True).encode


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_payloads)
def test_digest_matches_reference_on_generated_payloads(payload):
    assert engine.payload_digest(payload, _encode(payload)) == reference.payload_digest(payload)


def test_digest_keeps_float_subclass_and_signed_zero_reprs():
    # off the numeric-JSON path, np.float64 renders as np.float64(...) in the
    # canonical string, and the two zeros differ, exactly as in the recursive
    # reference
    def digest(payload):
        return engine._digest(engine._canonical(payload))

    for payload in ({"v": [np.float64(1.5)]}, {"v": np.float64(1.5)},
                    {"v": [0.0]}, {"v": [-0.0]}, {"v": []}, {1: [0.5], 2: "a"}):
        assert digest(payload) == reference.payload_digest(payload)
    assert digest({"v": [np.float64(1.5)]}) != digest({"v": [1.5]})
    assert digest({"v": [0.0]}) != digest({"v": [-0.0]})


# --------------------------------------------------------------------------
# topology tables


def _scan_edges_of(problem, k):
    return [(i, e) for i, e in enumerate(problem.edges) if k in (e.k, e.l)]


def _scan_neighbors(problem, k):
    return tuple(sorted(e.k + e.l - k for e in problem.edges if k in (e.k, e.l)))


def _scan_edge_slice(problem, i):
    start = sum(e.dim for e in problem.edges[:i])
    return slice(start, start + problem.edges[i].dim)


def _scan_region_z(problem, z_global, k):
    out = np.zeros(problem.region(k).boundary_rows)
    for i, e in _scan_edges_of(problem, k):
        out[e.block_of(k)] = z_global[_scan_edge_slice(problem, i)]
    return out


def _scrambled_problem():
    # four regions, edges listed out of (k, l) order and blocks out of row
    # order, so edge order alone does not sort neighbours or blocks
    edges = (CouplingEdge(3, 4, (1, 3), (0, 2)), CouplingEdge(1, 4, (0, 1), (2, 3)),
             CouplingEdge(2, 3, (0, 1), (0, 1)), CouplingEdge(1, 3, (1, 2), (3, 4)),
             CouplingEdge(1, 2, (2, 4), (1, 3)))
    rows = {1: 4, 2: 3, 3: 4, 4: 3}
    regions = tuple(
        RegionSpec(objective=lambda x: float(x[0] ** 2),
                   gradient=lambda x: 2.0 * x, boundary_map=np.ones((rows[k], 1)),
                   lower=np.array([-1.0]), upper=np.array([1.0]))
        for k in range(1, 5)
    )
    return PartitionedProblem(regions=regions, edges=edges)


def _problem(name):
    if name == "scrambled":
        return _scrambled_problem()
    if name.startswith("toy"):
        return make_toy_consensus(list(range(int(name[3:]))))
    case = caseio.parse_case((CASES_DIR / f"{name}.case").read_text())
    partition = caseio.parse_partition((CASES_DIR / f"{name}.part").read_text(), case)
    return build_regional_subproblems(case, partition)[0]


@pytest.mark.parametrize("name", ["ring5", "nine", "chain3", "toy2", "toy3", "toy16",
                                  "scrambled"])
def test_topology_tables_equal_edge_scans(name):
    problem = _problem(name)
    K = problem.num_regions
    sim = _Simulator(problem, AdmmParams(rho=1.0), DelayModel(), StoppingRule(), None, None)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(problem.boundary_dim)
    z[::3] = -0.0
    for i in range(len(problem.edges)):
        assert problem.edge_slice(i) == _scan_edge_slice(problem, i)
    for k in range(1, problem.num_regions + 1):
        assert problem.neighbors(k) == _scan_neighbors(problem, k)
        # the simulator's outgoing links: (edge, neighbour, own block) in edge
        # order, each on its own child stream, K + 2i for the k->l side
        links = sim.links[k]
        assert [link[:3] for link in links] == [(i, e.k + e.l - k, e.block_of(k))
                                               for i, e in _scan_edges_of(problem, k)]
        assert [link[4].bit_generator.seed_seq.spawn_key for link in links] == [
            (K + 2 * i + (k == e.l),) for i, e in _scan_edges_of(problem, k)]
        got, want = problem.region_z(z, k), _scan_region_z(problem, z, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a region index outside 1..K is an error, not another region's row
    for k in (0, -1, problem.num_regions + 1):
        with pytest.raises(IndexError):
            problem.neighbors(k)
        with pytest.raises(IndexError):
            problem.region_z(z, k)


# --------------------------------------------------------------------------
# cached objectives


# six regions with targets of mixed magnitude, so that summing the region
# objectives in another order would round differently
TOY_CHAIN6_CONFIG = """
problem = toy_consensus
targets = 0.1, 7.3, -2.9, 1e-3, 35.05, 0.77
mode = async
rho = 5
p = 0.5
seed = 3
tol = 1e-6
max_local_iters = 60
compute_delay = lognormal:0.0,0.5
link_delay = lognormal:-1.5,0.3
"""


@pytest.mark.parametrize("config", ["toy_sync", "ring5_async", "toy_chain6"])
def test_iteration_log_objective_is_total_objective(tmp_path, monkeypatch, config):
    # re-run the config and evaluate total_objective of the states at every
    # cycle close; the cached per-region sum must be the same float
    if config == "toy_chain6":
        cfg = tmp_path / "toy_chain6.cfg"
        cfg.write_text(TOY_CHAIN6_CONFIG)
    else:
        cfg = CASES_DIR / f"{config}.cfg"
    expected, results = [], []
    record = engine._Simulator._record_iteration
    real_run = engine.run

    def recording(self, t):
        expected.append(self.problem.total_objective([s.x for s in self.states]))
        record(self, t)

    def capturing(*args, **kwargs):
        results.append(real_run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine._Simulator, "_record_iteration", recording)
    monkeypatch.setattr(engine, "run", capturing)
    assert main(["run", str(cfg), "--set", f"outdir={tmp_path / 'out'}",
                 "--set", "baseline=false"]) in (0, 2)
    logged = [row[3] for row in results[0].iteration_log]
    assert len(logged) == len(expected) > 0
    assert [v.hex() for v in logged] == [v.hex() for v in expected]
