"""CLI robustness tests for ``python -m repro.obs.validate``.

The contract: exit 0 on valid documents, exit 1 on *any* invalid input —
including truncated/malformed JSON — with a pointed one-line message and
never a traceback, and exit 2 only for usage errors / unreadable files.
"""

import json

from repro.obs.validate import main as validate_main


def test_truncated_json_exits_one_with_pointed_message(tmp_path, capsys):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"traceEvents": [{"ph": "X", "name"')
    assert validate_main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert str(bad) in err
    assert "Traceback" not in err


def test_empty_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    assert validate_main([str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_phase_exits_one(tmp_path, capsys):
    bad = tmp_path / "phase.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"ph": "B", "name": "span", "pid": 1, "tid": 1, "ts": 0, "cat": "c"},
    ]}))
    assert validate_main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad phase 'B'" in err


def test_non_monotonic_instant_ts_exits_one(tmp_path, capsys):
    bad = tmp_path / "backwards.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 10.0,
         "cat": "c", "s": "t"},
        {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 5.0,
         "cat": "c", "s": "t"},
    ]}))
    assert validate_main([str(bad)]) == 1
    assert "goes backwards" in capsys.readouterr().err


def test_instants_on_different_tracks_may_interleave(tmp_path, capsys):
    ok = tmp_path / "tracks.json"
    ok.write_text(json.dumps({"traceEvents": [
        {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 10.0,
         "cat": "c", "s": "t"},
        {"ph": "i", "name": "b", "pid": 1, "tid": 2, "ts": 5.0,
         "cat": "c", "s": "t"},
    ]}))
    assert validate_main([str(ok)]) == 0


def test_nested_complete_spans_are_ts_exempt(tmp_path, capsys):
    """X spans close inner-first, so emission order is not ts order."""
    ok = tmp_path / "spans.json"
    ok.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "name": "inner", "pid": 1, "tid": 1, "ts": 8.0,
         "cat": "c", "dur": 1.0},
        {"ph": "X", "name": "outer", "pid": 1, "tid": 1, "ts": 0.0,
         "cat": "c", "dur": 10.0},
    ]}))
    assert validate_main([str(ok)]) == 0


def test_valid_witness_report_exits_zero(tmp_path, capsys):
    from repro.obs.provenance import (
        RaceProvenance, explain_races, witness_report_data,
    )
    from repro.core.detector import DeterminacyRaceDetector
    from repro.memory.shared import SharedArray
    from repro.memory.tracer import TraceRecorder
    from repro.runtime.runtime import Runtime

    prov = RaceProvenance()
    recorder = TraceRecorder(prov)
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[recorder, det], provenance=prov)

    def program(rt):
        data = SharedArray(rt, "d", 1)
        f = rt.future(lambda: data.write(0, 1))
        data.read(0)
        f.get()

    rt.run(program)
    _, witnesses = explain_races(recorder.trace, det.races, det.race_rows)
    assert len(witnesses) == 1
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_report_data(witnesses)))
    assert validate_main([str(path)]) == 0
    assert "valid witness report" in capsys.readouterr().out


def test_witness_with_true_verdict_exits_one(tmp_path, capsys):
    doc = {
        "schema": "repro.race-witness-report/1",
        "witnesses": [{
            "schema": "repro.race-witness/1",
            "witness_id": "w0",
            "race": {"loc": ["x", 0], "kind": "write-read",
                     "prev_task": 1, "current_task": 0},
            "certificate": {
                "verdict": True,  # an *ordering* is not a race witness
                "a_label": {"pre": 1, "post": 2},
                "b_label": {"pre": 0, "post": 3},
                "a_set": {"rep": 1, "nt": [], "members": [1]},
                "b_set": {"rep": 0, "nt": [], "members": [0]},
                "level0": {"same_task": False},
                "search": None,
            },
        }],
    }
    path = tmp_path / "bad_witness.json"
    path.write_text(json.dumps(doc))
    assert validate_main([str(path)]) == 1
    assert "'verdict' must be false" in capsys.readouterr().err


def test_witness_missing_certificate_exits_one(tmp_path, capsys):
    doc = {"schema": "repro.race-witness/1", "witness_id": "w0",
           "race": {"loc": 0, "kind": "write-write",
                    "prev_task": 1, "current_task": 2}}
    path = tmp_path / "no_cert.json"
    path.write_text(json.dumps(doc))
    assert validate_main([str(path)]) == 1
    assert "certificate" in capsys.readouterr().err


def test_dropped_events_warn_but_still_exit_zero(tmp_path, capsys):
    """A wrapped ring buffer is a *warning* — the trace stays valid."""
    from repro.obs.trace import RingTracer

    ticks = iter(range(0, 1_000_000, 1000))
    t = RingTracer(capacity=2, clock=lambda: next(ticks))
    for n in range(6):
        t.instant(f"e{n}", "c", 0)
    path = tmp_path / "wrapped.json"
    t.write(path)
    assert validate_main([str(path)]) == 0
    captured = capsys.readouterr()
    assert "warning: ring buffer dropped 4 event(s)" in captured.err
    assert "valid Chrome trace" in captured.out


def test_complete_trace_emits_no_drop_warning(tmp_path, capsys):
    bare = tmp_path / "ok.json"
    bare.write_text(json.dumps({"traceEvents": []}))
    assert validate_main([str(bare)]) == 0
    assert "dropped" not in capsys.readouterr().err


def test_trace_dropped_events_helper():
    from repro.obs.validate import trace_dropped_events

    assert trace_dropped_events({"traceEvents": []}) == 0
    assert trace_dropped_events(
        {"traceEvents": [], "otherData": {"dropped": 7}}) == 7
    # Falls back to the metadata record when otherData is absent.
    assert trace_dropped_events({"traceEvents": [
        {"ph": "M", "name": "trace_buffer_stats", "pid": 1, "tid": 0,
         "args": {"dropped": 3}},
    ]}) == 3
    assert trace_dropped_events(None) == 0


def test_missing_file_still_exits_two(tmp_path, capsys):
    assert validate_main([str(tmp_path / "nope.json")]) == 2
    assert validate_main([]) == 2
