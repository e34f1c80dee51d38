"""Unit tests for the event vocabulary and trace container."""

import pickle

import pytest

from repro.core.events import (
    EncodedTrace,
    FinishEndEvent,
    FinishStartEvent,
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    WriteEvent,
    encode_trace,
)


def sample_trace():
    trace = Trace()
    trace.append(TaskCreateEvent(parent=0, child=1, is_future=True, ief=0))
    trace.append(WriteEvent(task=1, loc=("x", 0)))
    trace.append(TaskEndEvent(task=1))
    trace.append(GetEvent(consumer=0, producer=1))
    trace.append(ReadEvent(task=0, loc=("x", 0)))
    return trace


def test_counts_fingerprint():
    assert sample_trace().counts() == (1, 1, 2)


def test_events_are_value_objects():
    a = WriteEvent(task=1, loc=("x", 0))
    b = WriteEvent(task=1, loc=("x", 0))
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(Exception):
        a.task = 2  # frozen


def test_len_and_iter():
    trace = sample_trace()
    assert len(trace) == 5
    assert [type(e).__name__ for e in trace] == [
        "TaskCreateEvent", "WriteEvent", "TaskEndEvent", "GetEvent",
        "ReadEvent",
    ]


def test_save_load_roundtrip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.pkl"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.events == trace.events


def test_load_rejects_non_trace(tmp_path):
    path = tmp_path / "junk.pkl"
    with open(path, "wb") as fh:
        pickle.dump([1, 2, 3], fh)
    with pytest.raises(TypeError):
        Trace.load(path)


# ---------------------------------------------------------------------- #
# The Trace contract: columns inside, events on demand                   #
# ---------------------------------------------------------------------- #
def sample_events():
    return [
        TaskCreateEvent(parent=0, child=1, is_future=True, ief=0),
        WriteEvent(task=1, loc=("x", 0), site="a.py:2 (f)"),
        TaskEndEvent(task=1),
        GetEvent(consumer=0, producer=1),
        FinishStartEvent(fid=1, owner=0, enclosing=0),
        ReadEvent(task=0, loc=("x", 0)),
        FinishEndEvent(fid=1),
    ]


def test_hand_built_trace_decodes_to_its_events():
    trace = Trace(events=sample_events())
    assert trace.events == sample_events()
    assert list(trace) == sample_events()
    assert len(trace) == 7
    assert trace.counts() == (1, 1, 2)


def test_append_builds_the_same_trace():
    appended = Trace()
    for event in sample_events():
        appended.append(event)
    assert appended == Trace(events=sample_events())
    assert appended != Trace(events=sample_events()[:-1])
    assert appended != sample_events()  # a Trace only equals a Trace


def test_len_does_not_decode(monkeypatch):
    import repro.core.events as events_module

    trace = Trace(events=sample_events())

    def no_decode(enc):
        raise AssertionError("len() decoded the trace")

    monkeypatch.setattr(events_module, "_decode", no_decode)
    assert len(trace) == 7
    assert trace.counts() == (1, 1, 2)
    with pytest.raises(AssertionError):
        trace.events


def test_encode_trace_returns_the_trace_columns():
    trace = Trace(events=sample_events())
    enc = encode_trace(trace)
    assert encode_trace(trace) is enc  # no second pass, no copy
    assert enc.num_access_events == 2 and enc.num_structure_events == 5
    assert enc.access_sites == ["a.py:2 (f)", None]
    # Appending after encoding extends the same columns.
    trace.append(WriteEvent(task=0, loc=("x", 1)))
    assert encode_trace(trace) is enc
    assert enc.num_access_events == 3 and list(enc.runs)[-2:] == [0, 1]


def test_unknown_task_raises_and_appends_nothing():
    with pytest.raises(KeyError):
        Trace(events=[WriteEvent(task=7, loc="x")])
    trace = Trace(events=sample_events())
    with pytest.raises(KeyError):
        trace.append(GetEvent(consumer=0, producer=9))
    assert trace == Trace(events=sample_events())


def test_unknown_event_type_is_rejected():
    with pytest.raises(TypeError):
        Trace(events=[("write", 0, "x")])


def test_trace_pickled_as_an_event_list_still_loads():
    old = Trace.__new__(Trace)
    old.__setstate__({"events": sample_events()})
    assert old == Trace(events=sample_events())


def test_columns_pickled_with_structure_sites_still_load(monkeypatch):
    # Columns pickled while they had a structure-site column.
    trace = Trace(events=sample_events())
    enc = encode_trace(trace)
    slots = {name: getattr(enc, name) for name in EncodedTrace.__slots__}
    slots["structure_sites"] = ["a.py:1 (main)", None, None, None, None]
    monkeypatch.setattr(EncodedTrace, "__getstate__",
                        lambda self: (None, slots), raising=False)
    data = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
    monkeypatch.undo()
    assert pickle.loads(data) == trace
