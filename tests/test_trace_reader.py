"""The trace readers against the line-by-line reader they replaced
(``oracles.read_trace_by_line``): the same events on every pinned run, and
the same ParseError (message, line and byte offset) on a deterministic
corpus of corrupted toy_sync traces, from both the full-event reader and
the index reader; and the index read from a run's file against the index
of the run's in-memory trace, an aborted run's partial trace included."""

import json

import pytest

from asyncadmm import caseio, engine
from asyncadmm.analysis import TraceIndex
from asyncadmm.caseio import ParseError

from conftest import PINNED_CONFIGS, aborted_trace, index_of, run_pinned
from oracles import end_of, read_events, read_trace_by_line


def outcome(read, path):
    """The trace as comparable values (times by their bits, payloads by
    their repr, which keeps key order and float bits), or the error."""
    try:
        trace = read(path)
    except ParseError as err:
        return "error", str(err), err.line, err.offset
    status, end_time = end_of(trace)
    return (repr(trace.meta), status, end_time.hex(),
            [(e.kind, e.worker, e.local_iter, e.time.hex(), repr(e.payload))
             for e in trace.events])


def bits(value):
    """``value`` with every float replaced by its bits (``float.hex``)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value)(map(bits, value))
    return value


def columns(index: TraceIndex) -> dict:
    """Everything an index holds, arrays by dtype and bytes, rows and
    scalars with floats by their bits."""
    out = {name: (getattr(index, name).dtype.str, getattr(index, name).tobytes())
           for name in ("code", "worker", "local_iter", "time", "by_worker")}
    out.update({name: bits(getattr(index, name))
                for name in ("messages", "updates", "z_updates", "finals", "final_z", "ends")})
    out.update(kinds=index.kinds, meta=json.dumps(index.meta, sort_keys=True),
               status=index.status, end_time=bits(index.end_time))
    return out


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_same_events_as_the_line_reader_on_pinned_runs(pinned_run, config):
    path = pinned_run(config) / "trace.log"
    assert outcome(read_events, path) == outcome(read_trace_by_line, path)


@pytest.mark.parametrize("config", [*PINNED_CONFIGS, "aborted"])
def test_index_of_the_file_is_the_index_of_the_run(tmp_path, monkeypatch, config):
    # analyze indexes the file's text, run its in-memory trace: one index;
    # "aborted" is the partial trace that run writes when a local solve fails
    if config == "aborted":
        trace, path = aborted_trace(), tmp_path / "trace.log"
        caseio.write_trace(trace, path)
    else:
        runs = []
        run = engine.run
        monkeypatch.setattr(engine, "run", lambda *args, **kw: runs.append(run(*args, **kw))
                            or runs[-1])
        path = run_pinned(config, tmp_path) / "trace.log"
        trace = runs[0].trace
    index = caseio.read_trace(path)
    assert columns(index) == columns(index_of(trace))
    assert not hasattr(index, "events")
    if config == "aborted":
        assert (index.status, index.end_time) == ("aborted", 1.0)


def index_outcome(path):
    """The ParseError of the index reader, as :func:`outcome` gives it."""
    try:
        caseio.read_trace(path)
    except ParseError as err:
        return "error", str(err), err.line, err.offset
    return "read"


def corrupted_traces(data: bytes):
    """(name, bytes) of each corrupted variant of a toy_sync trace."""
    lines = data.splitlines(keepends=True)
    # every truncation point of a short trace: the header, the first three
    # records and the last five (the final, final_z and end records)
    short = b"".join(lines[:4] + lines[-5:])
    for cut in range(len(short) + 1):
        yield f"short cut at {cut}", short[:cut]
    # every line end of the whole trace, and one byte either side
    end = 0
    for line in lines:
        end += len(line)
        for cut in (end - 1, end, end + 1):
            yield f"cut at {cut}", data[:cut]
    start = 0
    for i, line in enumerate(lines):
        yield f"\\xff at line {i + 1}", data[:start] + b"\xff" + data[start:]
        start += len(line)

    def edited(name, i, edit):
        return name, b"".join(lines[:i] + [edit(lines[i])] + lines[i + 1:])

    def field(i, value):
        return lambda line: b" ".join(line.split(b" ", 5)[:i] + [value]
                                      + line.split(b" ", 5)[i + 1:])

    first = {kind: next(i for i, line in enumerate(lines) if line.startswith(kind + b" "))
             for kind in (b"compute_end", b"final", b"final_z", b"end")}
    yield edited("nan time", 3, field(3, b"nan"))
    yield edited("inf time", 3, field(3, b"inf"))
    yield edited("non-object payload", 3, field(5, b"[1, 2]\n"))
    yield edited("five fields", 3, lambda line: b" ".join(line.split(b" ", 5)[:5]) + b"\n")
    yield "missing header", b"".join(lines[1:])
    yield "no end record", b"".join(lines[:first[b"end"]] + lines[first[b"end"] + 1:])
    yield edited("final without x", first[b"final"],
                 lambda line: line.replace(b'"x": [', b'"y": ['))
    yield edited("final_z with a string z", first[b"final_z"],
                 lambda line: line.split(b" {", 1)[0] + b' {"z": "abc"}\n')
    yield edited("payload with spaces around it", first[b"compute_end"],
                 lambda line: line.replace(b" {", b"  {").replace(b"}\n", b"} \n"))
    # an error after a multi-byte character: offsets count bytes
    wide = lines[:]
    wide[2] = wide[2].replace(b"{", '{"note": "\u00e9\u6f22", '.encode(), 1)
    wide[5] = b"garbage\n"
    yield "non-ASCII payload before a bad record", b"".join(wide)
    # a record longer than 64 KiB, then an error after it
    long = lines[:]
    long[first[b"compute_end"]] = long[first[b"compute_end"]].replace(
        b"{", b'{"note": "' + b"n" * 70_000 + b'", ', 1)
    yield "record over 64 KiB", b"".join(long)
    long[first[b"compute_end"] + 1] = b"garbage\n"
    yield "bad record after one over 64 KiB", b"".join(long)


def test_same_errors_as_the_line_reader_on_corrupted_traces(pinned_run, tmp_path):
    data = (pinned_run("toy_sync") / "trace.log").read_bytes()
    path = tmp_path / "trace.log"
    seen = set()
    for name, variant in corrupted_traces(data):
        path.write_bytes(variant)
        new, old = outcome(read_events, path), outcome(read_trace_by_line, path)
        assert new == old, name
        assert index_outcome(path) == (new if new[0] == "error" else "read"), name
        seen.add(new[1] if new[0] == "error" else "read")
    # the corpus reaches every kind of outcome
    assert {"read", "missing trace header, line 1, byte 0"} <= seen
    for message in ("malformed event record", "non-finite event time", "not a JSON object",
                    "not valid UTF-8", "no end record", "malformed final record",
                    "malformed final_z record", "bad trace metadata"):
        assert any(message in text for text in seen), message
