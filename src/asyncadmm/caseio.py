"""File formats: network cases, partitions, event traces, result tables.

Case files are plain text with ``#`` comments, a single ``BASEMVA`` line and
four mandatory section headers, each followed by whitespace-separated
numeric rows of fixed arity::

    BASEMVA 100
    BUS      # id  Pload_MW  Qload_MVAr  Vmin  Vmax  Gs_MW  Bs_MVAr
    BRANCH   # from  to  r  x  charging  tap   (tap 0 = no transformer)
    GEN      # bus  Pmin_MW  Pmax_MW  Qmin_MVAr  Qmax_MVAr
    COST     # a  b  c   (one row per GEN row, same order, applied to MW)

Partition files assign buses to regions, one region per line::

    1: 1 2
    2: 3 4 5

Traces are newline-delimited event records (kind, worker, local iteration,
virtual time, payload digest, payload) under a JSON metadata header; the
writer/reader round-trip is exact. Result tables are CSV with the fixed
header ``iter,time_ms,max_residue,objective,constraint_mismatch``.

Parsing is total: malformed input of any kind raises :class:`ParseError`
with a location, never anything else.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .engine import EventTrace, TraceEvent
from .opf import Branch, Bus, Generator, OpfCase, Partition

_BUS_ARITY = 7
_BRANCH_ARITY = 6
_GEN_ARITY = 5
_COST_ARITY = 3
_SECTIONS = ("BUS", "BRANCH", "GEN", "COST")
_TRACE_HEADER = "#asyncadmm-trace-v1"
_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), built once
RESULTS_HEADER = "iter,time_ms,max_residue,objective,constraint_mismatch"


class ParseError(ValueError):
    """Located parse failure: message plus optional line and byte offset."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        self.line = line
        self.offset = offset
        where = ""
        if line is not None:
            where += f", line {line}"
        if offset is not None:
            where += f", byte {offset}"
        super().__init__(f"{message}{where}")


def _numbers(fields: list[str], arity: int, line_no: int, what: str) -> list[float]:
    if len(fields) != arity:
        raise ParseError(f"{what} row needs {arity} columns, got {len(fields)}", line_no)
    out = []
    for tok in fields:
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"{what} row: {tok!r} is not a number", line_no) from None
        if not math.isfinite(val):
            raise ParseError(f"{what} row: non-finite value {tok!r}", line_no)
        out.append(val)
    return out


def _int_field(value: float, line_no: int, what: str) -> int:
    if value != int(value):
        raise ParseError(f"{what} must be an integer, got {value}", line_no)
    return int(value)


def parse_case(text: str) -> OpfCase:
    """Parse a case file into a validated :class:`OpfCase`."""
    base_mva: float | None = None
    rows: dict[str, list[tuple[int, list[float]]]] = {s: [] for s in _SECTIONS}
    seen: set[str] = set()
    section: str | None = None
    for line_no, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0].upper()
        if head == "BASEMVA":
            if base_mva is not None:
                raise ParseError("base MVA declared more than once", line_no)
            if len(fields) != 2:
                raise ParseError("BASEMVA takes exactly one value", line_no)
            base_mva = _numbers(fields[1:], 1, line_no, "BASEMVA")[0]
            continue
        if head in _SECTIONS:
            if len(fields) != 1:
                raise ParseError(f"section header {head} takes no values", line_no)
            if head in seen:
                raise ParseError(f"duplicate section {head}", line_no)
            seen.add(head)
            section = head
            continue
        if section is None:
            raise ParseError(f"unknown section or stray row {fields[0]!r}", line_no)
        arity = {"BUS": _BUS_ARITY, "BRANCH": _BRANCH_ARITY,
                 "GEN": _GEN_ARITY, "COST": _COST_ARITY}[section]
        rows[section].append((line_no, _numbers(fields, arity, line_no, section)))

    if base_mva is None:
        raise ParseError("missing BASEMVA declaration")
    missing = [s for s in _SECTIONS if s not in seen]
    if missing:
        raise ParseError(f"missing section {missing[0]}")
    if base_mva <= 0:
        raise ParseError("base MVA must be positive")

    buses = []
    known = set()
    for line_no, vals in rows["BUS"]:
        bid = _int_field(vals[0], line_no, "bus id")
        if bid in known:
            raise ParseError(f"duplicate bus id {bid}", line_no)
        known.add(bid)
        try:
            buses.append(Bus(id=bid, p_load=vals[1], q_load=vals[2],
                             v_min=vals[3], v_max=vals[4], gs=vals[5], bs=vals[6]))
        except ValueError as err:
            raise ParseError(str(err), line_no) from None
    if not buses:
        raise ParseError("case has no buses")

    branches = []
    for line_no, vals in rows["BRANCH"]:
        f = _int_field(vals[0], line_no, "branch from-bus")
        t = _int_field(vals[1], line_no, "branch to-bus")
        for end in (f, t):
            if end not in known:
                raise ParseError(f"dangling endpoint: bus {end} not in BUS section", line_no)
        try:
            branches.append(Branch(from_bus=f, to_bus=t, r=vals[2], x=vals[3],
                                   charging=vals[4], tap=vals[5]))
        except ValueError as err:
            raise ParseError(str(err), line_no) from None

    if len(rows["COST"]) != len(rows["GEN"]):
        raise ParseError(
            f"COST has {len(rows['COST'])} rows but GEN has {len(rows['GEN'])}"
        )
    generators = []
    for (line_no, vals), (_, cost) in zip(rows["GEN"], rows["COST"]):
        b = _int_field(vals[0], line_no, "generator bus")
        if b not in known:
            raise ParseError(f"generator references unknown bus {b}", line_no)
        try:
            generators.append(Generator(bus=b, p_min=vals[1], p_max=vals[2],
                                        q_min=vals[3], q_max=vals[4],
                                        cost_a=cost[0], cost_b=cost[1], cost_c=cost[2]))
        except ValueError as err:
            raise ParseError(str(err), line_no) from None

    try:
        return OpfCase(base_mva=base_mva, buses=tuple(buses),
                       branches=tuple(branches), generators=tuple(generators))
    except ValueError as err:
        raise ParseError(str(err)) from None


def serialize_case(case: OpfCase) -> str:
    lines = [f"BASEMVA {case.base_mva!r}"]
    lines.append("BUS  # id Pload Qload Vmin Vmax Gs Bs")
    for b in case.buses:
        lines.append(f"{b.id} {b.p_load!r} {b.q_load!r} {b.v_min!r} {b.v_max!r} "
                     f"{b.gs!r} {b.bs!r}")
    lines.append("BRANCH  # from to r x charging tap")
    for br in case.branches:
        lines.append(f"{br.from_bus} {br.to_bus} {br.r!r} {br.x!r} "
                     f"{br.charging!r} {br.tap!r}")
    lines.append("GEN  # bus Pmin Pmax Qmin Qmax")
    for g in case.generators:
        lines.append(f"{g.bus} {g.p_min!r} {g.p_max!r} {g.q_min!r} {g.q_max!r}")
    lines.append("COST  # a b c")
    for g in case.generators:
        lines.append(f"{g.cost_a!r} {g.cost_b!r} {g.cost_c!r}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str, case: OpfCase) -> Partition:
    """Parse a partition file and validate it against the case."""
    assignment: dict[int, int] = {}
    assigned_at: dict[int, int] = {}
    for line_no, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'region: bus bus ...'", line_no)
        head, tail = line.split(":", 1)
        try:
            region = int(head.strip())
        except ValueError:
            raise ParseError(f"region index {head.strip()!r} is not an integer",
                             line_no) from None
        if region < 1:
            raise ParseError(f"region index must be >= 1, got {region}", line_no)
        for tok in tail.replace(",", " ").split():
            try:
                bid = int(tok)
            except ValueError:
                raise ParseError(f"bus id {tok!r} is not an integer", line_no) from None
            if bid in assignment:
                raise ParseError(
                    f"bus {bid} assigned twice (first at line {assigned_at[bid]})", line_no
                )
            assignment[bid] = region
            assigned_at[bid] = line_no
    part = Partition(assignment)
    try:
        part.validate(case)
    except ValueError as err:
        raise ParseError(str(err)) from None
    return part


def serialize_partition(partition: Partition) -> str:
    lines = []
    for r in range(1, partition.num_regions + 1):
        members = " ".join(str(b) for b in partition.buses_of(r))
        lines.append(f"{r}: {members}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# traces and result tables


def write_trace(trace: EventTrace, path) -> None:
    """One event per line under a JSON metadata header; byte-exact round
    trip, and identical runs produce identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + " " + _encode(trace.meta) + "\n")
        fh.writelines(
            f"{ev.kind} {ev.worker} {ev.local_iter} {ev.time!r} {ev.digest} "
            f"{_encode(ev.payload)}\n"
            for ev in trace.events
        )


def _interned_keys(pairs: list[tuple]) -> dict:
    return {sys.intern(key): value for key, value in pairs}


_decode_payload = json.JSONDecoder(object_pairs_hook=_interned_keys).decode


def read_trace(path) -> EventTrace:
    """Inverse of :func:`write_trace`; corrupt input raises a located
    :class:`ParseError` (line and byte offset). The file is read one line at
    a time and the payloads share their key strings, so a trace held in
    memory costs little beyond its events."""
    trace = None
    saw_end = False
    offset = line_no = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as err:
                raise ParseError("trace is not valid UTF-8", offset=offset + err.start) from None
            if trace is None:
                if not line.startswith(_TRACE_HEADER + " "):
                    raise ParseError("missing trace header", line=1, offset=0)
                try:
                    trace = EventTrace(meta=json.loads(line[len(_TRACE_HEADER) + 1:]))
                except json.JSONDecodeError as err:
                    raise ParseError(f"bad trace metadata: {err.msg}", line=1,
                                     offset=err.pos) from None
            elif line:
                saw_end |= _read_event(trace, line, line_no, offset)
            offset += len(raw)
    if trace is None:
        raise ParseError("missing trace header", line=1, offset=0)
    if not saw_end:
        raise ParseError("truncated trace: no end record", line=line_no, offset=offset)
    return trace


def _read_event(trace: EventTrace, line: str, line_no: int, offset: int) -> bool:
    """Append one event record to ``trace``; True for the end record."""
    parts = line.split(" ", 5)
    if len(parts) != 6:
        raise ParseError("malformed event record", line=line_no, offset=offset)
    kind, worker_s, iter_s, time_s, digest, payload_s = parts
    try:
        worker = int(worker_s)
        local_iter = int(iter_s)
        time = float(time_s)
        payload = _decode_payload(payload_s)
    except (ValueError, json.JSONDecodeError):
        raise ParseError("malformed event record", line=line_no, offset=offset) from None
    if not math.isfinite(time):
        raise ParseError(f"non-finite event time {time_s!r}", line=line_no, offset=offset)
    if not isinstance(payload, dict):
        raise ParseError("event payload is not a JSON object", line=line_no, offset=offset)
    kind = sys.intern(kind)
    trace.events.append(TraceEvent(kind, worker, local_iter, time, payload, digest))
    if kind == "end":
        trace.status = payload.get("status", "incomplete")
        trace.end_time = time
    # the analysis reads the final state from these records
    try:
        if kind == "final" and not {"x", "lam"} <= payload.keys():
            raise KeyError("x, lam")
        if kind == "final_z":
            np.asarray(payload["z"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"malformed {kind} record", line=line_no, offset=offset) from None
    return kind == "end"


def write_results(rows, path) -> None:
    """Per-iteration convergence table as CSV under the fixed header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for it, time_ms, max_residue, objective, mismatch in rows:
            fh.write(f"{int(it)},{float(time_ms)!r},{float(max_residue)!r},"
                     f"{float(objective)!r},{float(mismatch)!r}\n")
