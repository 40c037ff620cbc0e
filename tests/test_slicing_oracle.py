"""The one-sweep slicing against the quadratic reference implementation in
``reference_analysis``: equal boundaries, per-update slots, membership, omega
and slicing-rule verdicts on the staggered fixture, the network runs of
acceptance criterion 05, the partial trace of an aborted run and
hypothesis-generated traces with tied timestamps and zero-length updates.
The invariant sweep applies the same comparison to each of its runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm.analysis import (
    analyze_trace,
    assign_global_iterations,
    verify_slicing_rules,
)
from asyncadmm.engine import DelayModel, DelaySpec, EventTrace, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.opf import Partition, build_regional_subproblems

import reference_analysis as reference
from conftest import (
    aborted_trace,
    assert_slicing_matches_reference,
    event,
    index_of,
    staggered_trace,
)


def test_staggered_fixture():
    assert_slicing_matches_reference(staggered_trace())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("network", ["chain3", "ring5"])
def test_criterion_05_network_runs(network, seed, chain3_case, ring5_case):
    if network == "chain3":
        problem, _ = build_regional_subproblems(chain3_case, Partition({1: 1, 2: 2, 3: 2}))
    else:
        problem, _ = build_regional_subproblems(
            ring5_case, Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 3}))
    res = run(problem, AdmmParams(rho=1e5, p=0.1),
              DelayModel(compute=DelaySpec.lognormal(0.0, 0.4),
                         link=DelaySpec.lognormal(-1.5, 0.3), seed=seed),
              StoppingRule(tol=1e-3, max_local_iters=500))
    assert_slicing_matches_reference(res.trace)


def test_zero_length_update_takes_shortest_extension():
    # the update at t = 1 ends where it starts, so no window from 0 ends
    # before it breaks a rule: the boundary after 0 is the next start
    events = [
        event("compute_start", 1, 0, 0.0), event("compute_end", 1, 0, 0.0),
        event("compute_start", 1, 1, 1.0), event("compute_end", 1, 1, 1.0),
        event("end", 0, 0, 1.0),
    ]
    trace = EventTrace(meta={"k": 1, "edges": [], "x0": [[0.0]], "z0": []}, events=events)
    assert assign_global_iterations(index_of(trace)).boundaries == [0.0, 1.0]
    assert_slicing_matches_reference(trace)


def test_aborted_run_without_a_finished_update():
    # compute starts only, then the end record: one slot that no update
    # finishes in, and omega 2 since no worker appears between slots 0 and 2
    trace = aborted_trace()
    assert [e.kind for e in trace.events] == ["compute_start", "compute_start", "end"]
    assert_slicing_matches_reference(trace)
    report = analyze_trace(index_of(trace))
    assert report["global_iterations"]["num_slots"] == 1
    assert report["global_iterations"]["membership_sizes"] == [0]
    assert report["omega"] == 2


def test_rules_flag_a_receive_at_the_next_boundary():
    # worker 1 starts at 1 and receives at 2; with boundaries 0 and 2 no
    # boundary lies in [1, 2), so the quiet-after-start rule fails
    events = [
        event("compute_start", 1, 0, 0.0), event("compute_start", 2, 0, 0.0),
        event("compute_end", 1, 0, 1.0), event("compute_start", 1, 1, 1.0),
        event("compute_end", 2, 0, 2.0), event("compute_start", 2, 1, 2.0),
        event("receive", 1, 1, 2.0), event("compute_end", 1, 1, 3.0),
        event("compute_end", 2, 1, 3.0), event("end", 0, 0, 3.0),
    ]
    trace = EventTrace(meta={"k": 2, "edges": [], "x0": [[0.0], [0.0]], "z0": []},
                       events=events)
    index = index_of(trace)
    assignment, old = assign_global_iterations(index), reference.assign_global_iterations(trace)
    assignment.boundaries = old.boundaries = [0.0, 2.0]
    rules = verify_slicing_rules(assignment, index)
    assert rules["no_receive_after_start_within_slot"] is False
    assert rules == reference.verify_slicing_rules(old, trace)


@st.composite
def synthetic_traces(draw, steps):
    """Per-worker alternating starts and ends, plus receives, on a clock
    advanced by the drawn steps; zero steps tie timestamps and can make an
    update end where it starts."""
    K = draw(st.integers(1, 4))
    actions = draw(st.lists(
        st.tuples(st.integers(1, K), st.sampled_from(["toggle", "toggle", "receive"]),
                  st.sampled_from(steps)),
        max_size=40,
    ))
    t, computing, cycle, events = 0.0, set(), dict.fromkeys(range(1, K + 1), 0), []
    for worker, action, dt in actions:
        t += dt
        if action == "receive":
            events.append(event("receive", worker, cycle[worker], t))
        elif worker in computing:
            events.append(event("compute_end", worker, cycle[worker], t))
            computing.discard(worker)
            cycle[worker] += 1
        else:
            events.append(event("compute_start", worker, cycle[worker], t))
            computing.add(worker)
    events.append(event("end", 0, 0, t))  # t: the latest event time, or 0 if none
    return EventTrace(meta={"k": K, "edges": [], "x0": [[0.0]] * K, "z0": []}, events=events)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(synthetic_traces(steps=[0.0, 0.0, 0.5, 1.0]))
def test_synthetic_traces(trace):
    assert_slicing_matches_reference(trace)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(synthetic_traces(steps=[0.0, 0.5, 1.0, -0.5]))
def test_synthetic_traces_out_of_time_order(trace):
    # timestamps that run backwards are malformed, but the slicing is still
    # defined on them and must agree with the reference
    assert_slicing_matches_reference(trace)
