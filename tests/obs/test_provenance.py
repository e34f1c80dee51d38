"""Unit tests for the race provenance layer (flight recorder + witnesses)."""

import json

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.memory.shared import SharedArray
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.core.events import (
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    WriteEvent,
)
from repro.obs.provenance import (
    SITE_UNKNOWN,
    RaceProvenance,
    RaceWitness,
    SiteTable,
    confirm_witness,
    explain_races,
    render_witness_text,
    witness_report_data,
)
from repro.obs.validate import validate_witness, validate_witness_report
from repro.runtime.runtime import Runtime


class TestSiteTable:
    def test_interns_and_dedupes(self):
        table = SiteTable(capacity=8)
        a = table.intern("prog.py", 3, "worker")
        assert a != SITE_UNKNOWN
        assert table.intern("prog.py", 3, "worker") == a
        assert table.intern("prog.py", 4, "worker") != a
        assert table.label(a) == "prog.py:3 (worker)"
        assert len(table) == 2
        assert table.num_dropped == 0

    def test_overflow_collapses_to_unknown_and_counts(self):
        table = SiteTable(capacity=2)
        a = table.intern("p.py", 1, "f")
        b = table.intern("p.py", 2, "f")
        c = table.intern("p.py", 3, "f")
        assert a != SITE_UNKNOWN and b != SITE_UNKNOWN
        assert c == SITE_UNKNOWN
        assert table.num_dropped == 1
        assert table.label(c) == "<unknown>"
        # existing sites still intern to their ids after overflow
        assert table.intern("p.py", 1, "f") == a

    def test_out_of_range_sid_is_unknown(self):
        table = SiteTable()
        assert table.label(999) == "<unknown>"
        assert table.label(-1) == "<unknown>"


def run_racy(provenance=None, extra_observers=()):
    """One future-read race, accesses performed directly in this file so
    the captured sites point here (past the runtime/shared skip list).
    Returns the detector and the recorded trace."""
    recorder = TraceRecorder(provenance=provenance)
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[recorder, det, *extra_observers],
                 provenance=provenance)

    def program(rt):
        data = SharedArray(rt, "data", 2)
        f = rt.future(lambda: data.write(0, 1), name="producer")
        data.read(0)
        f.get()

    rt.run(program)
    return det, recorder.trace


def explain_racy(provenance=None, extra_observers=()):
    """``run_racy``, then its races explained from the trace."""
    det, trace = run_racy(provenance, extra_observers)
    return explain_races(trace, det.races, det.race_rows)


class TestFlightRecorder:
    def test_sites_point_at_user_code(self):
        prov = RaceProvenance()
        (race,), _ = explain_racy(prov)
        assert race.prev_site and "test_provenance.py" in race.prev_site
        assert "(<lambda>)" in race.prev_site
        assert race.current_site and "(program)" in race.current_site
        assert race.witness_id == "w0"

    def test_spawn_sites_and_ring(self):
        prov = RaceProvenance()
        run_racy(prov)
        # tid 1 = the producer future, spawned from program()
        assert prov.spawn_site_label(1) and "(program)" in prov.spawn_site_label(1)
        kinds = [entry[0] for entry in prov.recent()]
        assert kinds == ["spawn", "write", "read", "get"]
        assert prov.num_events == 4

    def test_ring_is_bounded(self):
        prov = RaceProvenance(ring_capacity=2)
        run_racy(prov)
        assert len(prov.recent()) == 2
        assert prov.num_events == 4
        assert prov.recent(1)[0][0] == "get"

    def test_site_capacity_bounds_memory(self):
        prov = RaceProvenance(site_capacity=1)
        run_racy(prov)
        assert len(prov.sites) == 1
        assert prov.sites.num_dropped > 0

    def test_disabled_path_installs_nothing(self):
        det = DeterminacyRaceDetector()
        rt = Runtime(observers=[det])
        assert len(rt._observers) == 1  # no provenance adapter injected
        _, trace = run_racy()
        assert trace._whole_columns().access_sites is None


class TestWitnesses:
    def test_witness_built_per_deduplicated_race(self):
        prov = RaceProvenance()
        races, witnesses = explain_racy(prov)
        assert len(witnesses) == len(races) == 1
        (w,) = witnesses
        assert w.kind == "write-read"
        assert w.loc == ("data", 0)
        assert w.certificate["verdict"] is False

    def test_witness_confirmed_and_schema_valid(self):
        prov = RaceProvenance()
        gb = GraphBuilder()
        _, witnesses = explain_racy(prov, extra_observers=[gb])
        (w,) = witnesses
        assert confirm_witness(w, gb.graph,
                               closure=ReachabilityClosure(gb.graph))
        assert validate_witness(w.to_data()) == []
        report = witness_report_data(witnesses, program="prog.py",
                                     verified=True)
        assert validate_witness_report(report) == []
        json.dumps(report)  # JSON-serializable end to end

    def test_render_witness_text(self):
        prov = RaceProvenance()
        _, witnesses = explain_racy(prov)
        text = render_witness_text(witnesses[0])
        assert "witness w0" in text
        assert "PRECEDE(1, 0) = False" in text
        assert "producer" in text
        assert "reverse direction" in text

    def test_render_without_certificate(self):
        w = RaceWitness(witness_id="w9", loc="x", kind="write-write",
                        prev_task=1, current_task=2)
        assert "(no certificate recorded)" in render_witness_text(w)


class TestReplayProvenance:
    def test_sites_survive_record_replay(self):
        """A trace recorded with provenance explains the races of a
        detector that replayed it without any."""
        recording_prov = RaceProvenance()
        _, trace = run_racy(recording_prov)

        det = DeterminacyRaceDetector(engine="vc")
        replay_trace(trace, [det])
        (race,) = list(det.report)
        assert race.prev_site is None  # checkers report no sites
        (race,), (w,) = explain_races(trace, det.races, det.race_rows)
        assert race.prev_site and "test_provenance.py" in race.prev_site
        assert race.current_site and "(program)" in race.current_site
        assert w.certificate["verdict"] is False

    def test_replay_without_provenance_still_detects(self):
        _, trace = run_racy()
        det = DeterminacyRaceDetector()
        replay_trace(trace, [det])
        assert det.report.racy_locations == {("data", 0)}
        (race,) = list(det.report)
        assert race.prev_site is None and race.witness_id is None
        # Without recorded sites the witness still certifies the pair.
        (race,), (w,) = explain_races(trace, det.races, det.race_rows)
        assert race.prev_site is None and race.current_site is None
        assert race.witness_id == w.witness_id == "w0"
        assert w.certificate["verdict"] is False


def _sited_trace():
    """Unjoined async 1 reads ``x`` twice, writes ``y`` twice; main then
    reads ``x``, writes ``x`` and ``y``: one read-write and one
    write-write race, each with more than one candidate earlier access."""
    return Trace(events=[
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=0),
        ReadEvent(task=1, loc="x", site="a.py:1"),
        WriteEvent(task=1, loc="y", site="a.py:2"),
        ReadEvent(task=1, loc="x", site="a.py:3"),
        WriteEvent(task=1, loc="y", site="a.py:4"),
        TaskEndEvent(task=1),
        ReadEvent(task=0, loc="x", site="b.py:5"),
        WriteEvent(task=0, loc="x", site="b.py:6"),
        WriteEvent(task=0, loc="y", site="b.py:7"),
    ])


class TestExplainRaces:
    def test_previous_site_is_latest_access_of_prev_with_the_kind(self):
        trace = _sited_trace()
        det = DeterminacyRaceDetector()
        replay_trace(trace, [det])
        assert det.race_rows == [5, 6]
        races, witnesses = explain_races(trace, det.races, det.race_rows)
        rw, ww = races
        assert (rw.kind.value, rw.prev_task) == ("read-write", 1)
        # Task 1's later read, not its first one nor main's own read.
        assert (rw.prev_site, rw.current_site) == ("a.py:3", "b.py:6")
        assert (ww.kind.value, ww.prev_site, ww.current_site) == (
            "write-write", "a.py:4", "b.py:7")
        assert [w.witness_id for w in witnesses] == ["w0", "w1"]
        assert [(w.prev_site, w.current_site) for w in witnesses] == [
            ("a.py:3", "b.py:6"), ("a.py:4", "b.py:7")]

    def test_output_follows_the_race_order_given(self):
        trace = _sited_trace()
        det = DeterminacyRaceDetector()
        replay_trace(trace, [det])
        forward, _ = explain_races(trace, det.races, det.race_rows)
        backward, witnesses = explain_races(
            trace, det.races[::-1], det.race_rows[::-1])
        assert [r.loc for r in backward] == ["y", "x"]
        assert [r.prev_site for r in backward] == [
            r.prev_site for r in forward[::-1]]
        assert witnesses[0].witness_id == "w0" and witnesses[0].loc == "y"

    def test_row_beyond_the_columns_raises(self):
        trace = _sited_trace()
        det = DeterminacyRaceDetector()
        replay_trace(trace, [det])
        with pytest.raises(ValueError, match="beyond"):
            explain_races(trace, det.races[:1], [99])
