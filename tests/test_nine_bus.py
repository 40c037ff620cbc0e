"""End-to-end regression on the nine-bus fixture: the largest shipped case,
three regions, meshed topology with transformers and line charging."""

import numpy as np
import pytest

from asyncadmm import caseio
from asyncadmm.analysis import assign_global_iterations, check_staleness_bound, objective_gap
from asyncadmm.engine import DelayModel, DelaySpec, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.opf import build_regional_subproblems, centralized_reference_solve, power_flow_residual

from conftest import CASES_DIR
from oracles import run_sync_reference


@pytest.fixture(scope="module")
def nine_case():
    return caseio.parse_case((CASES_DIR / "nine.case").read_text())


@pytest.fixture(scope="module")
def nine_problem(nine_case):
    partition = caseio.parse_partition((CASES_DIR / "nine.part").read_text(), nine_case)
    return build_regional_subproblems(nine_case, partition)


@pytest.fixture(scope="module")
def nine_central(nine_case):
    return centralized_reference_solve(nine_case)


def test_centralized_satisfies_power_flow(nine_case, nine_central):
    resid = power_flow_residual(nine_case, nine_central.V, nine_central.P, nine_central.Q)
    assert np.max(np.abs(resid)) < 1e-6
    vm = np.abs(nine_central.V)
    assert np.all(vm >= 0.90 - 1e-6) and np.all(vm <= 1.10 + 1e-6)
    assert nine_central.objective > 0


def test_sync_admm_gap(nine_problem, nine_central):
    problem, _ = nine_problem
    sync = run_sync_reference(problem, AdmmParams(rho=1e5), tol=1e-3, max_iters=300)
    assert sync.converged
    gap = objective_gap(problem.total_objective(sync.iterates[-1].x),
                        nine_central.objective)
    assert gap["gap_percent"] < 1.0


def test_async_admm_converges_with_staleness_bound(nine_problem, nine_central):
    problem, _ = nine_problem
    res = run(problem, AdmmParams(rho=1e5, p=0.1),
              DelayModel(compute=DelaySpec.lognormal(0.0, 0.4),
                         link=DelaySpec.lognormal(-1.5, 0.3), seed=5),
              StoppingRule(tol=5e-4, max_local_iters=3000))
    assert res.converged
    assert max(s.constraint_violation for s in res.states) <= 1e-3
    gap = objective_gap(problem.total_objective(res.x), nine_central.objective)
    assert gap["gap_percent"] < 1.0
    report = check_staleness_bound(res.trace, assign_global_iterations(res.trace))
    assert report["holds"]
