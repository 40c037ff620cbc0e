"""The indexed, array-based analysis passes against the event-by-event
loops they replaced (``tests/reference_analysis.py``), bit for bit, on
every pinned run: slot snapshots, the staleness bound, the multiplier bound
under the constants gamma 2, m1 2, m2 1, c 1 (no pinned hash covers that
section) and the compute/wait split, and on the partial trace of an
aborted run. The invariant sweep runs the same comparison on its 72
traces."""

import pytest

from asyncadmm import analysis

import reference_analysis as reference
from conftest import (
    PINNED_CONFIGS,
    aborted_trace,
    as_records,
    assert_analysis_matches_reference,
    events_of,
    index_of,
    staggered_trace,
)
from oracles import read_events


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_analysis_matches_reference_on_pinned_runs(pinned_run, config):
    trace = read_events(pinned_run(config) / "trace.log")
    assert_analysis_matches_reference(trace, c_const=1.0, m1=2.0)


def test_analysis_matches_reference_on_an_aborted_run():
    # no update finished: one slot, and every sum is over no update
    assert_analysis_matches_reference(aborted_trace())


def _snapshot_errors(trace) -> list[str]:
    """The TraceError messages of the analysis's and the reference's
    snapshots of ``trace``, in that order."""
    index = index_of(trace)
    assignment = analysis.assign_global_iterations(index)
    errors = []
    for measure in (lambda: analysis.slot_snapshots(index, assignment),
                    lambda: reference.slot_snapshots(trace, as_records(assignment))):
        with pytest.raises(analysis.TraceError) as err:
            measure()
        errors.append(str(err.value))
    return errors


EDITS = {
    "x missing": ("compute_end", 2, lambda p: p.pop("x")),
    "lam not numeric": ("compute_end", 5, lambda p: p.update(lam=["a"])),
    "edge out of range": ("z_update", 3, lambda p: p.update(edge=7)),
    "edge not a number": ("z_update", 0, lambda p: p.update(edge="0")),
    "z block too long": ("z_update", 4, lambda p: p.update(z=[0.0, 1.0])),
    "z block nested": ("z_update", 1, lambda p: p.update(z=[[0.0]])),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_snapshot_errors_match_reference(pinned_run, edit):
    # the first event in log order that cannot be measured gives the error,
    # with the message of the event-by-event loop
    kind, nth, change = EDITS[edit]
    trace = read_events(pinned_run("ring5_async") / "trace.log")
    change(events_of(trace, kind)[nth].payload)
    new, old = _snapshot_errors(trace)
    assert new == old


def shift(trace, kind: str, nth: int, dt: float) -> None:
    """Move the ``nth`` event of ``kind`` by ``dt`` in time, keeping its
    place in the log."""
    i = [i for i, e in enumerate(trace.events) if e.kind == kind][nth]
    trace.events[i] = trace.events[i]._replace(time=trace.events[i].time + dt)


def test_analysis_matches_reference_out_of_time_order(pinned_run):
    # measured in log order, an event later in time than the next boundary
    # holds back every event behind it
    trace = read_events(pinned_run("ring5_async") / "trace.log")
    for nth, kind, dt in ((3, "z_update", 2.5), (10, "compute_end", 4.0),
                             (20, "z_update", -3.0), (40, "compute_end", -1.5)):
        shift(trace, kind, nth, dt)
    assert_analysis_matches_reference(trace)


def test_multiplier_unknown_before_the_slot_matches_reference(pinned_run):
    # worker 1's first compute_end, measured late, is not yet known at the
    # start of its next update's finish slot: the bound takes zero for the
    # multiplier there; a tiny m1 makes every checked update a violation
    trace = read_events(pinned_run("toy_sync") / "trace.log")
    shift(trace, "compute_end", 0, 0.5)
    assert_analysis_matches_reference(trace, c_const=1.0, m1=1e-3)


@pytest.mark.parametrize("moves", [((0, 5),), ((7, 2), (30, 12)), ((12, 40), (3, 1))])
def test_alternation_errors_match_reference(pinned_run, moves):
    # moving a compute_start or compute_end breaks its worker's alternation;
    # the first break in the log gives the error
    trace = read_events(pinned_run("toy_sync") / "trace.log")
    pairs = [i for i, e in enumerate(trace.events) if e.kind in ("compute_start", "compute_end")]
    for source, target in moves:
        trace.events.insert(pairs[target], trace.events.pop(pairs[source]))
    errors = []
    for assign in (lambda: analysis.assign_global_iterations(index_of(trace)),
                   lambda: reference.assign_global_iterations(trace)):
        with pytest.raises(analysis.TraceError) as err:
            assign()
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_snapshot_error_on_the_staggered_fixture():
    # its compute_end events carry no state
    new, old = _snapshot_errors(staggered_trace())
    assert new == old == "malformed compute_end event at t=2.0: 'x'"
