import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm import caseio
from asyncadmm.caseio import ParseError, parse_case, parse_partition, serialize_case
from asyncadmm.engine import DelayModel, DelaySpec, EventTrace, StoppingRule, run
from asyncadmm.kernel import AdmmParams
from asyncadmm.problem import make_toy_consensus

from oracles import end_of, read_events, read_results

MINIMAL = """
BASEMVA 100
BUS
1 0 0 0.95 1.05 0 0
2 30 5 0.95 1.05 0 0
BRANCH
1 2 0.02 0.06 0.0 0
GEN
1 0 100 -50 50
COST
0.01 40 0
"""


class TestParseCase:
    def test_minimal_counts(self):
        case = parse_case(MINIMAL)
        assert (len(case.buses), len(case.branches), len(case.generators)) == (2, 1, 1)
        assert sum(1 for g in case.generators) == 1  # one cost row folded per generator
        assert case.base_mva == 100.0
        assert case.generators[0].cost_b == 40.0

    def test_dangling_endpoint_located(self):
        text = MINIMAL.replace("1 2 0.02 0.06 0.0 0", "1 99 0.02 0.06 0.0 0")
        with pytest.raises(ParseError, match="dangling endpoint") as err:
            parse_case(text)
        assert err.value.line == 7

    def test_arity_mismatch_located(self):
        text = MINIMAL.replace("1 0 100 -50 50", "1 0 100 -50")
        with pytest.raises(ParseError, match="5 columns"):
            parse_case(text)

    def test_missing_basemva(self):
        with pytest.raises(ParseError, match="BASEMVA"):
            parse_case(MINIMAL.replace("BASEMVA 100", ""))

    def test_duplicate_bus(self):
        text = MINIMAL.replace("2 30 5 0.95 1.05 0 0",
                               "1 30 5 0.95 1.05 0 0")
        with pytest.raises(ParseError, match="duplicate bus id 1"):
            parse_case(text)

    def test_cost_rows_must_match_gen_rows(self):
        with pytest.raises(ParseError, match="COST"):
            parse_case(MINIMAL + "0.02 10 0\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_case("BASEMVA 100\nWIBBLE\n1 2 3\n")

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_case(MINIMAL.replace("1 0 100 -50 50", "1 0 inf -50 50"))
        with pytest.raises(ParseError, match="non-finite"):
            parse_case("BASEMVA nan\n" + MINIMAL.replace("BASEMVA 100", ""))

    def test_round_trip(self, chain3_text):
        case = parse_case(chain3_text)
        again = parse_case(serialize_case(case))
        assert again == case

    def test_round_trip_ring5(self, ring5_text):
        case = parse_case(ring5_text)
        assert parse_case(serialize_case(case)) == case


class TestParsePartition:
    def test_three_bus_two_regions(self, chain3_case):
        part = parse_partition("1: 1 \n 2: 2, 3", chain3_case)
        assert part.num_regions == 2
        assert part.tie_lines(chain3_case) == [0]

    def test_unassigned_bus(self, chain3_case):
        with pytest.raises(ParseError, match="bus 3 unassigned"):
            parse_partition("1: 1\n2: 2", chain3_case)

    def test_single_region_no_ties(self, chain3_case):
        part = parse_partition("1: 1 2 3", chain3_case)
        assert part.num_regions == 1
        assert part.tie_lines(chain3_case) == []

    def test_duplicate_assignment(self, chain3_case):
        with pytest.raises(ParseError, match="assigned twice"):
            parse_partition("1: 1 2\n2: 2 3", chain3_case)

    def test_unknown_bus(self, chain3_case):
        with pytest.raises(ParseError, match="unknown bus 9"):
            parse_partition("1: 1 2 3 9", chain3_case)

    def test_disconnected_region(self, chain3_case):
        with pytest.raises(ParseError, match="connected"):
            parse_partition("1: 1 3\n2: 2", chain3_case)

    def test_round_trip(self, chain3_case):
        part = parse_partition("1: 1\n2: 2 3", chain3_case)
        again = parse_partition(caseio.serialize_partition(part), chain3_case)
        assert again.assignment == part.assignment


class TestTraceFiles:
    def make_run(self, seed=3):
        delays = DelayModel(compute=DelaySpec.lognormal(0.0, 0.5),
                            link=DelaySpec.uniform(0.0, 0.4), seed=seed)
        return run(make_toy_consensus([0.0, 1.0, 2.0]),
                   AdmmParams(rho=5.0, p=0.1), delays,
                   StoppingRule(tol=1e-3, max_local_iters=500))

    def test_round_trip_exact(self, tmp_path):
        result = self.make_run()
        path = tmp_path / "trace.log"
        caseio.write_trace(result.trace, path)
        back = read_events(path)
        assert len(back.events) == len(result.trace.events)
        for a, b in zip(result.trace.events, back.events):
            assert (a.kind, a.worker, a.local_iter, a.time, a.payload) == \
                (b.kind, b.worker, b.local_iter, b.time, b.payload)
        assert end_of(back) == end_of(result.trace)

    def test_rewrite_is_byte_identical(self, tmp_path):
        result = self.make_run()
        p1, p2 = tmp_path / "a.log", tmp_path / "b.log"
        caseio.write_trace(result.trace, p1)
        caseio.write_trace(read_events(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.log"
        caseio.write_trace(EventTrace(meta={"k": 0}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("#asyncadmm-trace-v1 ")

    def test_truncated_trace_reports_offset(self, tmp_path):
        result = self.make_run()
        path = tmp_path / "trace.log"
        caseio.write_trace(result.trace, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.log"
        cut.write_bytes(data[: int(len(data) * 0.6)])
        with pytest.raises(ParseError) as err:
            caseio.read_trace(cut)
        assert err.value.offset is not None

    def test_garbage_line_located(self, tmp_path):
        result = self.make_run()
        path = tmp_path / "trace.log"
        caseio.write_trace(result.trace, path)
        lines = path.read_text().splitlines()
        lines.insert(3, "not an event at all")
        bad = tmp_path / "bad.log"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            caseio.read_trace(bad)
        assert err.value.line == 4


class TestResultsFiles:
    def test_round_trip_and_schema(self, tmp_path):
        result = self.make_rows()
        path = tmp_path / "r.csv"
        caseio.write_results(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,time_ms,max_residue,objective,constraint_mismatch"
        rows = read_results(path)
        assert rows == result

    def make_rows(self):
        return [(1, 0.5, 0.25, 3.0, 1e-8), (2, 1.0, 0.125, 2.5, 1e-8)]

    def test_completed_run_rows_are_finite(self, tmp_path):
        delays = DelayModel(seed=0)
        result = run(make_toy_consensus([0.0, 2.0]), AdmmParams(rho=5.0),
                     delays, StoppingRule(tol=1e-3, max_local_iters=200))
        path = tmp_path / "c.csv"
        # the very first rows may predate some worker's first cycle; those
        # carry an infinite residue by design, drop them for the schema check
        caseio.write_results(result.iteration_log, path)
        rows = read_results(path)
        settled = [r for r in rows if np.isfinite(r[2])]
        assert settled
        for row in settled:
            assert all(np.isfinite(v) for v in row[1:])


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=300))
    def test_case_parser_total_on_text(self, text):
        try:
            parse_case(text)
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_case_parser_total_on_bytes(self, blob):
        try:
            parse_case(blob.decode("latin-1"))
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_partition_parser_total(self, text):
        case = parse_case(MINIMAL)
        try:
            parse_partition(text, case)
        except ParseError:
            pass


class TestTraceRecords:
    def rewrite(self, tmp_path, edit, kind=None):
        """Write a short trace with one record edited: the third event, or
        the first of ``kind``; returns the path, the line and its offset."""
        result = run(make_toy_consensus([0.0, 2.0]), AdmmParams(rho=5.0), DelayModel(seed=0),
                     StoppingRule(tol=1e-3, max_local_iters=50))
        path = tmp_path / "trace.log"
        caseio.write_trace(result.trace, path)
        lines = path.read_text().splitlines(keepends=True)
        i = 3 if kind is None else next(i for i, line in enumerate(lines)
                                         if line.startswith(kind + " "))
        lines[i] = edit(lines[i])
        path.write_text("".join(lines))
        return path, i + 1, sum(len(line.encode()) for line in lines[:i])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_event_time_located(self, tmp_path, value):
        def set_time(line):
            fields = line.split(" ", 5)
            fields[3] = value
            return " ".join(fields)

        path, line, offset = self.rewrite(tmp_path, set_time)
        with pytest.raises(ParseError, match="non-finite") as err:
            caseio.read_trace(path)
        assert (err.value.line, err.value.offset) == (line, offset)

    def test_payload_must_be_an_object(self, tmp_path):
        path, line, offset = self.rewrite(tmp_path, lambda s: s.split(" {", 1)[0] + " [1]\n")
        with pytest.raises(ParseError, match="not a JSON object") as err:
            caseio.read_trace(path)
        assert (err.value.line, err.value.offset) == (line, offset)

    def test_invalid_utf8_located(self, tmp_path):
        path, _, offset = self.rewrite(tmp_path, lambda s: s)
        data = path.read_bytes()
        path.write_bytes(data[:offset + 5] + b"\xff" + data[offset + 5:])
        with pytest.raises(ParseError, match="UTF-8") as err:
            caseio.read_trace(path)
        assert err.value.offset == offset + 5

    @pytest.mark.parametrize("kind", ["final", "final_z"])
    def test_final_record_without_state_located(self, tmp_path, kind):
        path, line, offset = self.rewrite(tmp_path, lambda s: s.split(" {", 1)[0] + " {}\n",
                                          kind=kind)
        with pytest.raises(ParseError, match=f"malformed {kind} record") as err:
            caseio.read_trace(path)
        assert (err.value.line, err.value.offset) == (line, offset)
