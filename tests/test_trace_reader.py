"""The trace reader against the line-by-line reader it replaced
(``oracles.read_trace_by_line``): the same events on every pinned run, and
the same ParseError (message, line and byte offset) on a deterministic
corpus of corrupted toy_sync traces."""

import pytest

from asyncadmm import caseio
from asyncadmm.caseio import ParseError

from conftest import PINNED_CONFIGS
from oracles import read_trace_by_line


def outcome(read, path):
    """The trace as comparable values (times by their bits, payloads by
    their repr, which keeps key order and float bits), or the error."""
    try:
        trace = read(path)
    except ParseError as err:
        return "error", str(err), err.line, err.offset
    return (repr(trace.meta), trace.status, trace.end_time.hex(),
            [(e.kind, e.worker, e.local_iter, e.time.hex(), repr(e.payload), e.digest)
             for e in trace.events])


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_same_events_as_the_line_reader_on_pinned_runs(pinned_run, config):
    path = pinned_run(config) / "trace.log"
    assert outcome(caseio.read_trace, path) == outcome(read_trace_by_line, path)


def test_payload_keys_are_shared(pinned_run):
    trace = caseio.read_trace(pinned_run("ring5_async") / "trace.log")
    ids: dict[str, set] = {}
    for e in trace.events:
        for key in e.payload:
            ids.setdefault(key, set()).add(id(key))
    assert ids and all(len(objects) == 1 for objects in ids.values())


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


@pytest.mark.parametrize("block", [caseio._BLOCK, 97])
def test_same_errors_as_the_line_reader_on_corrupted_traces(pinned_run, tmp_path, monkeypatch,
                                                            block):
    # a short block splits the trace, and long lines, across many reads
    monkeypatch.setattr(caseio, "_BLOCK", block)
    data = (pinned_run("toy_sync") / "trace.log").read_bytes()
    path = tmp_path / "trace.log"
    seen = set()
    for name, variant in corrupted_traces(data):
        path.write_bytes(variant)
        new, old = outcome(caseio.read_trace, path), outcome(read_trace_by_line, path)
        assert new == old, name
        seen.add(new[1] if new[0] == "error" else "read")
    # the corpus reaches every kind of outcome
    assert {"read", "missing trace header, line 1, byte 0"} <= seen
    for message in ("malformed event record", "non-finite event time", "not a JSON object",
                    "not valid UTF-8", "no end record", "malformed final record",
                    "malformed final_z record", "bad trace metadata"):
        assert any(message in text for text in seen), message
