"""The packed trace format and its one pointed error.

An access row is one int ``loc_id << 1 | is_write``; its task is the
running task the structure stream implies.  Every stream or column set
that breaks that discipline, or the cheap structural checks the kernel
makes per structure event and per block, raises ``TraceFormatError``
with the offending event's ordinal, never a bare ``IndexError`` or a
verdict.
"""

import copy
import io
import json
import pickle
import random
import sys
from array import array

import numpy as np
import pytest

from repro import DeterminacyRaceDetector, Runtime, SharedArray
from repro.core.events import (
    RUN_ACCESS,
    EncodedTrace,
    FinishEndEvent,
    FinishStartEvent,
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    TraceFormatError,
    WriteEvent,
    encode_trace,
)
from repro.core import fastcheck
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.core.tracefile import PREAMBLE
from repro.memory.shared import SharedMatrix, SharedNDArray, SharedVar
from repro.memory.tracer import TraceRecorder
from repro.obs.provenance import RaceProvenance
from repro.runtime.errors import RaceError
from repro.testing.generator import random_program, run_program
from repro.tools.fuzz import MUTATIONS, mutate_columns


def _joined_future():
    """Main spawns a future inside a finish, joins it, and reads."""
    return [
        FinishStartEvent(fid=1, owner=0, enclosing=0),
        TaskCreateEvent(parent=0, child=1, is_future=True, ief=1),
        WriteEvent(task=1, loc="x"),
        ReadEvent(task=1, loc="y"),
        TaskEndEvent(task=1),
        GetEvent(consumer=0, producer=1),
        WriteEvent(task=0, loc="y"),
        FinishEndEvent(fid=1),
        ReadEvent(task=0, loc="x"),
    ]


def _columns():
    return copy.deepcopy(encode_trace(Trace(events=_joined_future())))


def test_access_rows_are_packed_ints():
    enc = _columns()
    assert enc.access.typecode == "Q"
    x, y = enc.loc_index["x"], enc.loc_index["y"]
    assert list(enc.access) == [x << 1 | 1, y << 1, y << 1 | 1, x << 1]
    assert len(enc) == 9 and enc.num_access_events == 4
    assert list(Trace(events=_joined_future())) == _joined_future()
    assert check_trace_fast(enc).races == []


@pytest.mark.parametrize("events, row", [
    # an access by a task that is not running
    ([TaskCreateEvent(0, 1, False, 0), WriteEvent(task=0, loc="x")], 1),
    # a create whose parent is not running
    ([TaskCreateEvent(0, 1, False, 0), TaskCreateEvent(0, 2, False, 0)], 1),
    # a get whose consumer is not running
    ([TaskCreateEvent(0, 1, True, 0), GetEvent(consumer=0, producer=1)], 1),
    # an end of a task that is not running
    ([TaskCreateEvent(0, 1, False, 0), TaskCreateEvent(1, 2, False, 0),
      TaskEndEvent(task=1)], 2),
    # main's end is implicit
    ([ReadEvent(task=0, loc="x"), TaskEndEvent(task=0)], 1),
    # a finish opened by a task that is not running
    ([TaskCreateEvent(0, 1, False, 0),
      FinishStartEvent(fid=1, owner=0, enclosing=0)], 1),
])
def test_hand_built_stream_off_the_running_task_raises(events, row):
    with pytest.raises(TraceFormatError) as info:
        Trace(events=events)
    assert info.value.row == row


def _fault(enc):
    with pytest.raises(TraceFormatError) as info:
        check_trace_fast(enc)
    return info.value


def test_get_of_a_running_producer_raises():
    enc = _columns()
    s = enc.structure
    s[3] = (s[3][0], 0, 0)  # main gets itself
    err = _fault(enc)
    assert err.row == 5 and "not ended" in err.reason
    s[3] = (s[3][0], 1, 1)  # a get by a task that has ended
    assert "get by task index 1" in _fault(enc).reason


def test_finish_scopes_must_nest():
    enc = _columns()
    enc.structure.insert(0, enc.structure[0])  # finish 1 opened twice
    enc.runs[1] += 1
    assert "opened twice" in _fault(enc).reason
    enc = _columns()
    s = enc.structure
    s[-1] = (s[-1][0], 7)  # the end of a finish that is not open
    assert "innermost open finish" in _fault(enc).reason


def test_a_finish_closed_by_another_task_raises():
    events = [
        FinishStartEvent(fid=1, owner=0, enclosing=0),
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=1),
        ReadEvent(task=1, loc="x"),
        TaskEndEvent(task=1),
        FinishEndEvent(fid=1),
    ]
    enc = copy.deepcopy(encode_trace(Trace(events=events)))
    # Move finish 1's end before the child's end.
    s = enc.structure
    s[2], s[3] = s[3], s[2]
    err = _fault(enc)
    assert err.row == 3 and "not by its owner 0" in err.reason


def test_run_lengths_must_cover_the_columns():
    enc = _columns()
    del enc.access[-1:]
    assert "access run" in _fault(enc).reason
    enc = _columns()
    enc.access.append(0)  # a row no run covers
    assert "cover" in _fault(enc).reason
    enc = _columns()
    enc.runs.append(RUN_ACCESS)  # a kind with no count
    assert "no count" in _fault(enc).reason


def test_location_ids_are_in_range():
    enc = _columns()
    enc.access[2] = 9 << 1
    err = _fault(enc)
    assert err.row == 6 and "location id 9" in err.reason
    with pytest.raises(TraceFormatError):
        check_trace_parallel(enc, jobs=2, backend="inline")


def test_task_ids_are_in_range():
    enc = _columns()
    s = enc.structure
    s[3] = (s[3][0], s[3][1], 10 ** 6)  # get of a task that never existed
    assert "not ended" in _fault(enc).reason
    enc = _columns()
    enc.structure[1] = (enc.structure[1][0], 10 ** 6, 1, 1)
    assert "create by task index 1000000" in _fault(enc).reason


def test_a_malformed_structure_tuple_raises():
    enc = _columns()
    enc.structure[3] = (enc.structure[3][0],)
    assert "malformed" in _fault(enc).reason


def test_a_lookup_error_on_a_well_formed_tuple_stays_bare(monkeypatch):
    # Only a malformed tuple turns a lookup error into a format fault; a
    # checker bug on a well-formed trace must not pass for one.
    class Planted(fastcheck.ArrayDTRG):
        def record_join_idx(self, consumer, producer):
            raise IndexError("planted")

    monkeypatch.setattr(fastcheck, "ArrayDTRG", Planted)
    with pytest.raises(IndexError, match="planted"):
        check_trace_fast(_columns())


def test_error_pickles_with_its_row():
    err = pickle.loads(pickle.dumps(TraceFormatError(5, "bad")))
    assert (err.row, err.reason, str(err)) == (5, "bad", "row 5: bad")


# ---------------------------------------------------------------------- #
# Columns with 3-wide rows, and the retired pickle files               #
# ---------------------------------------------------------------------- #
def _three_wide():
    """The sample's columns as they were pickled before rows were packed:
    ``(is_write, task_idx, loc_id)`` per row in an ``array('q')``."""
    enc = _columns()
    old = array("q")
    for code, task in zip(enc.access, [1, 1, 0, 0]):
        old.extend((code & 1, task, code >> 1))
    enc.access = old
    return enc


def test_old_columns_are_never_read_as_packed_rows():
    # Given straight to the checker, 3-wide columns fail the coverage
    # check instead of being read as twelve packed rows.
    assert "cover" in _fault(_three_wide()).reason


class _Pickled:
    """Pickles as a ``cls`` object whose state is ``state``."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return object.__new__, (self.cls,), self.state


def _with_structure_sites():
    enc = _columns()
    slots = {name: getattr(enc, name) for name in EncodedTrace.__slots__}
    slots["structure_sites"] = [None] * len(enc.structure)
    return _Pickled(EncodedTrace, (None, slots))


#: What ``Trace.save`` pickled over time: the columns, 3-wide columns,
#: an event list, and columns that still had a structure-site column.
RETIRED = {
    "columns": lambda: _Pickled(Trace, _columns()),
    "three-wide": lambda: _Pickled(Trace, _three_wide()),
    "event-list": lambda: _Pickled(Trace, {"events": _joined_future()}),
    "structure-sites": lambda: _Pickled(Trace, _with_structure_sites()),
}


@pytest.mark.parametrize("shape", RETIRED)
def test_a_pickled_trace_raises(shape, tmp_path):
    path = tmp_path / "old.trace"
    path.write_bytes(pickle.dumps(RETIRED[shape](),
                                  protocol=pickle.HIGHEST_PROTOCOL))
    with pytest.raises(TraceFormatError) as info:
        Trace.load(path)
    assert info.value.row == 0 and "pickle" in info.value.reason
    assert str(info.value).startswith("byte 0: ")


# ---------------------------------------------------------------------- #
# The trace file                                                         #
# ---------------------------------------------------------------------- #
def _saved(trace) -> bytes:
    buf = io.BytesIO()
    trace.save(buf)
    return buf.getvalue()


def _loaded(data: bytes) -> Trace:
    return Trace.load(io.BytesIO(data))


def _every_key_shape(rt):
    """Touch a location of every key shape the shared wrappers make."""
    var = SharedVar(rt, "v", 0)                   # (name,)
    arr = SharedArray(rt, "a", 4)                 # (name, i)
    grid = SharedNDArray(rt, "g", (3, 3))         # (name, (i, j))
    line = SharedNDArray(rt, "l", 5)              # (name, numpy int)
    mat = SharedMatrix(rt, "m", 2, 2)             # (name, r, c)

    def child():
        var.write(1)
        arr.write(2, 1)
        grid.write((1, 2), 1.0)
        line.write(np.int64(3), 1.0)
        line.read_block(slice(None, 2))           # (name, _slice_key)
        mat.write(1, 0, "x")

    f = rt.future(child)
    var.read()
    f.get()
    arr.read(2)
    grid.read((1, 2))
    line.read(3)
    mat.read(1, 0)


@pytest.mark.parametrize("sites", [False, True])
def test_every_location_key_shape_round_trips(sites, tmp_path):
    prov = RaceProvenance() if sites else None
    rec = TraceRecorder(provenance=prov)
    Runtime(observers=[rec], provenance=prov).run(_every_key_shape)
    trace = rec.trace
    enc = encode_trace(trace)
    assert (enc.access_sites is not None) == sites
    assert ("l", np.int64(3)) in enc.loc_index
    assert ("l", (("slice", None, 2, None),)) in enc.loc_index

    path = tmp_path / "t.trace"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded == trace
    got = encode_trace(loaded)
    assert got.locs == enc.locs
    assert all(type(a) is type(b) for key, got_key in zip(enc.locs, got.locs)
               for a, b in zip(key, got_key) if not isinstance(a, np.integer))
    assert type(got.locs[got.loc_index["l", 3]][1]) is int
    assert got.access_sites == enc.access_sites
    assert bytes(got.is_future) == bytes(enc.is_future)
    assert check_trace_fast(got).summary() == check_trace_fast(enc).summary()
    # A loaded trace takes more events, as a recorded one does.
    loaded.append(WriteEvent(task=0, loc=("v",)))
    assert len(loaded) == len(trace) + 1


def test_an_aborted_runs_open_tasks_round_trip():
    rec = TraceRecorder()
    det = DeterminacyRaceDetector(policy="raise")

    def program(rt):
        a = SharedArray(rt, "a", 2)
        with rt.finish():
            rt.async_(lambda: a.write(0, 1))

            def child():
                with rt.finish():
                    rt.async_(lambda: a.write(0, 2))
            rt.async_(child)

    with pytest.raises(RaceError):
        Runtime(observers=[det, rec]).run(program)
    trace = rec.trace
    assert type(list(trace)[-1]) is WriteEvent  # tasks 2, 3 still open
    loaded = _loaded(_saved(trace))
    assert loaded == trace
    assert check_trace_fast(loaded).summary() == \
        check_trace_fast(trace).summary()


def test_saving_an_equal_trace_twice_gives_identical_bytes():
    first = _saved(Trace(events=_joined_future()))
    assert _saved(Trace(events=_joined_future())) == first
    assert _saved(_loaded(first)) == first


def test_a_key_the_format_cannot_carry_raises_on_save():
    trace = Trace(events=[WriteEvent(task=0, loc=("x", frozenset({1})))])
    with pytest.raises(TypeError, match=r"location key \('x', frozenset"):
        _saved(trace)
    trace = Trace(events=[WriteEvent(task=0, loc=("x", float("nan")))])
    with pytest.raises(TypeError, match="location key"):
        _saved(trace)


def _file_fault(data: bytes) -> TraceFormatError:
    with pytest.raises(TraceFormatError) as info:
        _loaded(data)
    return info.value


def _rewrite_header(data: bytes, change) -> bytes:
    """``data`` with its JSON header passed through ``change``."""
    end = PREAMBLE + int.from_bytes(data[PREAMBLE - 8:PREAMBLE], "little")
    header = json.loads(data[PREAMBLE:end])
    change(header)
    text = json.dumps(header).encode()
    return (data[:PREAMBLE - 8] + len(text).to_bytes(8, "little") + text
            + data[end:])


def test_every_cut_of_the_file_raises_at_its_end():
    data = _saved(Trace(events=_joined_future()))
    for cut in range(len(data)):
        err = _file_fault(data[:cut])
        assert err.row == cut and "the file ends" in err.reason, cut
    assert "after the last column" in _file_fault(data + b"\0").reason


@pytest.mark.parametrize("change, reason", [
    (lambda h: h["columns"][0].__setitem__(2, 5), "the file ends"),
    (lambda h: h["columns"][2].__setitem__(2, 9), "after the last column"),
    (lambda h: (h["columns"][0].__setitem__(2, 3),    # a row moved to runs
                h["columns"][1].__setitem__(2, 13)), "do not segment"),
    (lambda h: h["columns"][0].__setitem__(1, "q"), "column entry"),
    (lambda h: h["columns"][1].__setitem__(1, "i"), "column entry"),
    (lambda h: h["columns"][0].__setitem__(2, -1), "column entry"),
    (lambda h: h.pop("locs"), "fields"),
    (lambda h: h.__setitem__("byteorder", "middle"), "byte order"),
    (lambda h: h.__setitem__("locs", ["x", "x"]), "repeats a key"),
    (lambda h: h.__setitem__("locs", ["x", {"y": 1}]), "holds an object"),
    (lambda h: h.__setitem__("task_keys", [5, 1]), "main task"),
    (lambda h: h.__setitem__("task_keys", [0]), "task ids for 2 tasks"),
    (lambda h: h.__setitem__("access_sites", [None]), "access_sites"),
])
def test_a_header_that_lies_raises(change, reason):
    data = _rewrite_header(_saved(Trace(events=_joined_future())), change)
    assert reason in _file_fault(data).reason


def test_a_bad_preamble_or_header_raises_at_its_offset():
    data = _saved(Trace(events=_joined_future()))
    err = _file_fault(b"RIFF" + data[4:])
    assert err.row == 0 and "not a trace file" in err.reason
    err = _file_fault(data[:12] + (2).to_bytes(4, "little") + data[16:])
    assert err.row == 12 and "version 2" in err.reason
    err = _file_fault(data[:PREAMBLE] + b"[" + data[PREAMBLE + 1:])
    assert err.row > PREAMBLE and "not JSON" in err.reason
    err = _file_fault(data[:PREAMBLE + 3] + b"\xff" + data[PREAMBLE + 4:])
    assert err.row == PREAMBLE + 3 and "non-ASCII" in err.reason


def test_an_unknown_structure_opcode_raises_at_its_offset():
    data = bytearray(_saved(Trace(events=_joined_future())))
    end = PREAMBLE + int.from_bytes(data[PREAMBLE - 8:PREAMBLE], "little")
    header = json.loads(bytes(data[PREAMBLE:end]))
    at = end + 8 * (header["columns"][0][2] + header["columns"][1][2])
    data[at] = 99
    err = _file_fault(bytes(data))
    assert err.row == at and "opcode 99" in err.reason


def test_columns_in_the_other_byte_order_load():
    trace = Trace(events=_joined_future())
    data = _saved(trace)
    end = PREAMBLE + int.from_bytes(data[PREAMBLE - 8:PREAMBLE], "little")
    other = "big" if sys.byteorder == "little" else "little"
    cols = array("Q", data[end:])  # every column has 8-byte items
    cols.byteswap()
    flipped = _rewrite_header(data[:end] + cols.tobytes(),
                              lambda h: h.__setitem__("byteorder", other))
    assert _loaded(flipped) == trace


# Malformed columns through the sharded checker                          #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", MUTATIONS)
def test_a_split_fails_malformed_columns_as_the_whole_check_does(kind):
    """Each mutant the fuzzer's malformed leg makes raises the same fault
    (row and reason) in a two-shard check as in ``check_trace_fast``, or
    passes both with the same report: the row split neither turns a bad
    column into another error nor reports a shard's own row."""
    faults = 0
    for seed in range(40):
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)), [rec])
        mutant = mutate_columns(encode_trace(rec.trace), kind,
                                random.Random(seed))
        if mutant is None:
            continue
        try:
            want = check_trace_fast(mutant)
        except TraceFormatError as err:
            faults += 1
            with pytest.raises(TraceFormatError) as info:
                check_trace_parallel(mutant, jobs=2, backend="inline")
            assert (info.value.row, info.value.reason) == \
                (err.row, err.reason), seed
        else:
            got = check_trace_parallel(mutant, jobs=2, backend="inline")
            assert got.summary() == want.summary(), seed
            assert got.race_rows == want.race_rows, seed
    assert faults
