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
virtual time, payload digest, payload) under a JSON metadata header. The
digest, the first 12 hex digits of the sha256 of the payload's canonical
string, is computed by every write and read by nothing; a receive repeats its
send's. :func:`read_trace` parses each line into the record that the engine
logs, (kind, worker, local iteration, time, payload), and builds the analysis
index from those records, keeping no event: only kind, worker, local
iteration and time per event and, of the payloads, the message identities,
the compute_end x/lam, the z_update edge/z, the final state and the status.
Result tables are CSV with the fixed header
``iter,time_ms,max_residue,objective,constraint_mismatch``.

Parsing is total: malformed input of any kind raises :class:`ParseError`
with a location, never anything else.
"""

from __future__ import annotations

import json
import json.encoder
import json.scanner
import math

import numpy as np

from . import engine
from .analysis import TraceIndex
from .engine import EventTrace
from .opf import Branch, Bus, Generator, OpfCase, Partition

_BUS_ARITY = 7
_BRANCH_ARITY = 6
_GEN_ARITY = 5
_COST_ARITY = 3
_SECTIONS = ("BUS", "BRANCH", "GEN", "COST")
_TRACE_HEADER = "#asyncadmm-trace-v1"
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


_JSON = json.JSONEncoder(sort_keys=True)
# json.dumps(obj, sort_keys=True) by one C encoder, not one per call, and no
# circular-reference check: payloads and metadata are trees of fresh objects
_C_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _JSON.default, json.encoder.encode_basestring_ascii, None, _JSON.key_separator,
    _JSON.item_separator, True, False, True)


def _encode(obj) -> str:
    return "".join(_C_ENCODE(obj, 0)) if _C_ENCODE else _JSON.encode(obj)


def write_trace(trace: EventTrace, path) -> None:
    """One event per line under a JSON metadata header; byte-exact round
    trip, and identical runs produce identical bytes. A receive repeats the
    digest of an earlier send with its (sender, edge, sender_iter)."""
    sent = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + " " + _encode(trace.meta) + "\n")
        for kind, worker, local_iter, time, p in trace.events:
            text, digest = _encode(p), None
            if kind == "receive":
                digest = sent.get((p.get("from"), p.get("edge"), p.get("sender_iter")))
            digest = digest or engine.payload_digest(p, text)
            if kind == "send":
                sent[worker, p.get("edge"), p.get("sender_iter")] = digest
            fh.write(f"{kind} {worker} {local_iter} {time!r} {digest} {text}\n")


_scan = json.scanner.make_scanner(json.JSONDecoder())  # JSONDecoder.decode minus its wrapper


def read_trace(path) -> TraceIndex:
    """The :class:`~asyncadmm.analysis.TraceIndex` of a trace file, built
    from its text without an event object or a payload kept."""
    records = _records(path)
    return TraceIndex(next(records), records)


def _records(path):
    """The metadata of a trace file, then each event record as (kind,
    worker, local_iter, time, payload), read one line at a time; corrupt
    input raises a :class:`ParseError` with its line and byte offset."""
    saw_end, offset, line = False, 0, 0  # offset: where the line starts
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                record = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as err:
                raise ParseError("trace is not valid UTF-8", offset=offset + err.start) from None
            if line == 1:
                if not record.startswith(_TRACE_HEADER + " "):
                    raise ParseError("missing trace header", line=1, offset=0)
                try:
                    meta = json.loads(record[len(_TRACE_HEADER) + 1:])
                except json.JSONDecodeError as err:
                    raise ParseError(f"bad trace metadata: {err.msg}", line=1,
                                     offset=err.pos) from None
                yield meta
            elif record:  # a blank line is skipped
                try:
                    kind, worker, local_iter, time_s, _, payload_s = record.split(" ", 5)
                    worker, local_iter, time = int(worker), int(local_iter), float(time_s)
                    payload, stop = _scan(payload_s, 0) if payload_s[:1] == "{" else (None, -1)
                    if stop != len(payload_s):  # not a bare object, spaces around it, an error
                        payload = json.loads(payload_s)
                except (ValueError, StopIteration):  # the scanner stops at a truncated value
                    raise ParseError("malformed event record", line, offset) from None
                if not math.isfinite(time):
                    raise ParseError(f"non-finite event time {time_s!r}", line, offset)
                if not isinstance(payload, dict):
                    raise ParseError("event payload is not a JSON object", line, offset)
                try:  # the analysis reads the final state from these records
                    if kind == "final" and not {"x", "lam"} <= payload.keys():
                        raise KeyError("x, lam")
                    if kind == "final_z":
                        np.asarray(payload["z"], dtype=float)
                except (KeyError, TypeError, ValueError):
                    raise ParseError(f"malformed {kind} record", line, offset) from None
                saw_end = saw_end or kind == "end"
                yield kind, worker, local_iter, time, payload
            offset += len(raw)
    if not line:  # an empty file
        raise ParseError("missing trace header", line=1, offset=0)
    if not saw_end:
        raise ParseError("truncated trace: no end record", line=line, offset=offset)


def write_results(rows, path) -> None:
    """Per-iteration convergence table as CSV under the fixed header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for it, time_ms, max_residue, objective, mismatch in rows:
            fh.write(f"{int(it)},{float(time_ms)!r},{float(max_residue)!r},"
                     f"{float(objective)!r},{float(mismatch)!r}\n")
