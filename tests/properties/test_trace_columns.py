"""A recorded trace's columns are lossless, under fuzzing.

``TraceRecorder`` writes a :class:`~repro.core.events.Trace` straight
into its :class:`~repro.core.events.EncodedTrace` columns; the event
objects are decoded from them on demand.  Over 200 generated programs,
with scoped and unscoped handles, with and without a
:class:`~repro.obs.provenance.RaceProvenance`:

(a) lowering the decoded events again gives the recorder's columns,
    field by field;
(b) ``Trace.save``/``Trace.load`` round-trips to an equal trace;
(c) replaying the trace prints the live detector's ``summary()`` byte
    for byte, task display names aside (the live run names a task
    ``async#3``, replay ``task#3``; both carry the tid), and reports the
    same races in the same order, at the same access rows;
(d) ``explain_races`` over the columns gives the live kernel's races and
    a replaying ``engine="vc"`` detector's races the same sites and
    witnesses;
(e) a program that raises inside an open finish leaves a trace that
    decodes, encodes, checks and explains (``racecheck`` writes exactly
    this partial trace when a run aborts).
"""

import random
import re

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import ExecutionObserver, Trace, encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.obs.provenance import RaceProvenance, explain_races
from repro.testing.generator import random_program, run_program

NUM_SEEDS = 200
COLUMNS = (
    "access", "structure", "runs", "task_keys", "is_future", "locs",
    "access_sites",
)
VARIANTS = [
    pytest.param(scoped, prov, id=f"{'scoped' if scoped else 'wild'}-"
                                  f"{'prov' if prov else 'plain'}")
    for scoped in (True, False) for prov in (False, True)
]


def _record(program, *, scoped, prov, extra=()):
    provenance = RaceProvenance() if prov else None
    recorder = TraceRecorder(provenance=provenance)
    live = DeterminacyRaceDetector()
    run_program(program, [recorder, live, *extra], scoped_handles=scoped,
                provenance=provenance)
    return recorder.trace, live


def _by_tid(summary):
    """``summary`` with each task display name reduced to its tid."""
    return re.sub(r"task [a-z]+#(\d+)", r"task \1", summary)


def _races(races):
    return [(r.loc, r.kind, r.prev_task, r.current_task, r.prev_site,
             r.current_site, r.witness_id) for r in races]


def _assert_same_columns(got, want, seed):
    for name in COLUMNS:
        assert getattr(got, name) == getattr(want, name), (
            f"seed {seed}: column {name} differs")


@pytest.mark.parametrize("scoped, prov", VARIANTS)
def test_columns_round_trip(scoped, prov, tmp_path):
    with_sites = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        trace, live = _record(program, scoped=scoped, prov=prov)

        # (a) decode, lower again: the same columns.
        events = list(trace)
        assert len(events) == len(trace)
        _assert_same_columns(encode_trace(events), encode_trace(trace), seed)
        with_sites += encode_trace(trace).access_sites is not None

        # (b) save/load.
        path = tmp_path / f"{seed}.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace, f"seed {seed}: save/load changed the trace"
        _assert_same_columns(encode_trace(loaded), encode_trace(trace), seed)

        # (c) replay prints the live summary.
        replayed = DeterminacyRaceDetector()
        replay_trace(trace, [replayed])
        assert _by_tid(replayed.report.summary()) == _by_tid(
            live.report.summary()), f"seed {seed}: replay summary differs"
        assert _races(replayed.races) == _races(live.races), (
            f"seed {seed}: replay races differ from the live run")
        assert replayed.race_rows == live.race_rows, seed
    # Provenance must actually reach the columns, or (a) is vacuous there.
    assert (with_sites > 0) == prov


def test_provenance_replay_matches_live_sites():
    """Sites read from the columns attribute the races of a replay as
    they attribute the live run's."""
    racy = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        provenance = RaceProvenance()
        recorder = TraceRecorder(provenance=provenance)
        live = DeterminacyRaceDetector()
        run_program(program, [recorder, live], provenance=provenance)
        trace = recorder.trace

        replayed = DeterminacyRaceDetector(engine="vc")
        replay_trace(trace, [replayed])
        live_races, live_witnesses = explain_races(
            trace, live.races, live.race_rows)
        races, witnesses = explain_races(
            trace, replayed.races, replayed.race_rows)
        assert _races(races) == _races(live_races), (
            f"seed {seed}: sited replay races differ from the live run")
        assert [w.certificate for w in witnesses] == [
            w.certificate for w in live_witnesses], seed
        assert all(r.current_site and r.prev_site for r in races), seed
        racy += bool(live.races)
    assert racy > 0


class _AbortInFinish(ExecutionObserver):
    """Raises at the first access made inside an explicit finish."""

    def __init__(self):
        self.depth = 0  # open finish scopes, the implicit root included

    def on_finish_start(self, scope):
        self.depth += 1

    def on_finish_end(self, scope):
        self.depth -= 1

    def on_read(self, task, loc):
        if self.depth > 1:
            raise RuntimeError("abort inside a finish")

    on_write = on_read


@pytest.mark.parametrize("scoped, prov", VARIANTS)
def test_aborted_run_leaves_a_checkable_trace(scoped, prov):
    aborted = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        provenance = RaceProvenance() if prov else None
        recorder = TraceRecorder(provenance=provenance)
        try:
            run_program(program, [recorder, _AbortInFinish()],
                        scoped_handles=scoped, provenance=provenance)
        except RuntimeError:
            aborted += 1
        else:
            continue  # no access inside an explicit finish
        trace = recorder.trace
        events = list(trace)
        assert len(events) == len(trace)
        _assert_same_columns(encode_trace(events), encode_trace(trace), seed)
        # The fast path and a replay report the same races at the same
        # rows, so the columns explain them alike.
        replayed = DeterminacyRaceDetector()
        replay_trace(trace, [replayed])
        fast = check_trace_fast(trace)
        assert fast.summary() == replayed.report.summary(), (
            f"seed {seed}: partial trace checks differently")
        assert fast.race_rows == replayed.race_rows, seed
        sited, _ = explain_races(trace, fast.races, fast.race_rows)
        assert all(bool(r.current_site) == prov for r in sited), seed
    assert aborted > 0
