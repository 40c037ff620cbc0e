"""Cross-configuration invariant sweep: every engine run, whatever the
topology, threshold, proximal weight or delay pattern (including heavy
timestamp ties and message reordering), must produce a well-formed trace
whose slicing rules, delay-window bookkeeping and staleness bound all hold,
must reach the consensus optimum, and whose slicing, snapshots, bounds and
compute/wait split must equal those of the reference implementations."""

import numpy as np
import pytest

from asyncadmm.analysis import (
    assign_global_iterations,
    check_staleness_bound,
    measure_omega,
    verify_slicing_rules,
    verify_trace_wellformed,
)
from asyncadmm.engine import DelayModel, DelaySpec, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.problem import make_toy_consensus

from conftest import assert_analysis_matches_reference, assert_slicing_matches_reference

DELAY_PATTERNS = {
    "tied": DelayModel(compute=DelaySpec.constant(1.0), link=DelaySpec.constant(1.0), seed=1),
    "instant-links": DelayModel(compute=DelaySpec.constant(1.0),
                                link=DelaySpec.constant(0.0), seed=2),
    "mixed": DelayModel(compute=DelaySpec.uniform(0.1, 2.0),
                        link=DelaySpec.lognormal(-1.0, 0.8), seed=3),
    "reordering": DelayModel(compute=DelaySpec.lognormal(0.0, 1.0),
                             link=DelaySpec.uniform(0.0, 4.0), seed=4),
}


@pytest.mark.parametrize("num_regions", [2, 3, 5])
@pytest.mark.parametrize("p", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 8.0])
@pytest.mark.parametrize("pattern", sorted(DELAY_PATTERNS))
def test_invariants_hold(num_regions, p, alpha, pattern):
    targets = [float(i * (-1) ** i) for i in range(num_regions)]
    problem = make_toy_consensus(targets)
    res = run(problem, AdmmParams(rho=5.0, alpha=alpha, p=p),
              DELAY_PATTERNS[pattern], StoppingRule(tol=1e-3, max_local_iters=4000))
    assert res.converged
    assert all(verify_trace_wellformed(res.trace).values())
    assignment = assign_global_iterations(res.trace)
    assert all(verify_slicing_rules(assignment, res.trace).values())
    omega = measure_omega(assignment)
    for u in assignment.updates:
        assert max(u.finish_slot - omega, 0) <= u.start_slot < u.finish_slot
    assert check_staleness_bound(res.trace, assignment)["holds"]
    assert_slicing_matches_reference(res.trace)
    assert_analysis_matches_reference(res.trace)
    mean = float(np.mean(targets))
    for s in res.states:
        assert abs(float(s.x[0]) - mean) < 5e-2
