"""The packed trace format and its one pointed error.

An access row is one int ``loc_id << 1 | is_write``; its task is the
running task the structure stream implies.  Every stream or column set
that breaks that discipline, or the cheap structural checks the kernel
makes per structure event and per block, raises ``TraceFormatError``
with the offending event's ordinal, never a bare ``IndexError`` or a
verdict.
"""

import copy
import pickle
import random
from array import array

import pytest

from repro.core.events import (
    RUN_ACCESS,
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
from repro.memory.tracer import TraceRecorder
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
# Columns pickled with 3-wide rows                                       #
# ---------------------------------------------------------------------- #
def _three_wide(task_of_row=None):
    """The sample's columns as they were pickled before rows were packed:
    ``(is_write, task_idx, loc_id)`` per row in an ``array('q')``."""
    enc = _columns()
    tasks = [1, 1, 0, 0] if task_of_row is None else task_of_row
    old = array("q")
    for code, task in zip(enc.access, tasks):
        old.extend((code & 1, task, code >> 1))
    enc.access = old
    return enc


class _Flushed:
    """A builder stand-in whose columns are already whole."""

    def flush(self):
        pass


def _old_pickle(columns) -> bytes:
    """A ``Trace`` pickle whose state is ``columns``, as ``Trace.save``
    wrote it before rows were packed."""
    trace = Trace.__new__(Trace)
    trace._columns = columns
    trace.builder = _Flushed()
    return pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)


def test_old_three_wide_pickle_is_converted(tmp_path):
    path = tmp_path / "old.trace"
    path.write_bytes(_old_pickle(_three_wide()))
    trace = Trace.load(path)
    assert list(trace) == _joined_future()
    enc = encode_trace(trace)
    assert enc.access.typecode == "Q"
    assert list(enc.access) == list(_columns().access)
    assert check_trace_fast(trace).races == []


def test_old_pickle_with_a_row_off_the_running_task_raises():
    data = _old_pickle(_three_wide([1, 0, 0, 0]))
    with pytest.raises(TraceFormatError) as info:
        pickle.loads(data)
    assert info.value.row == 3


def test_old_columns_are_never_read_as_packed_rows():
    # Given straight to the checker, 3-wide columns fail the coverage
    # check instead of being read as twelve packed rows.
    assert "cover" in _fault(_three_wide()).reason


# ---------------------------------------------------------------------- #
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
