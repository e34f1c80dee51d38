"""The checked-in fuzz regression corpus must replay green forever.

Each ``tests/corpus/*.json`` entry is a (usually minimized) program with
the oracle's verdict frozen in.  Every general detector must reproduce
that verdict exactly; restricted detectors must refuse or agree; and each
run must survive the record-replay round trip.  A red test here means a
previously-fixed detector bug has come back.
"""

from pathlib import Path

import pytest

from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.errors import UnsupportedConstructError
from repro.testing.codec import entry_from_data
from repro.testing.generator import Future, count_stmts, run_program
from repro.tools.fuzz import GENERAL, ORACLE, RESTRICTED, load_corpus
from repro.tools.racecheck import DETECTORS

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_nonempty_and_named_uniquely():
    assert len(ENTRIES) >= 4
    names = [e.name for e in ENTRIES]
    assert len(set(names)) == len(names)
    assert "dtrg_future_covered_reader" in names


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_general_detectors_reproduce_the_frozen_verdict(entry):
    for name in (ORACLE,) + GENERAL:
        det = DETECTORS[name]()
        run_program(entry.program, [det])
        assert det.racy_locations == entry.racy_locations, name


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_restricted_detectors_refuse_or_agree(entry):
    for name in RESTRICTED:
        det = DETECTORS[name]()
        try:
            run_program(entry.program, [det])
        except UnsupportedConstructError:
            continue
        assert det.racy_locations == entry.racy_locations, name


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_record_replay_parity_on_corpus(entry):
    recorder = TraceRecorder()
    live = DETECTORS["dtrg"]()
    run_program(entry.program, [recorder, live])
    replayed = DETECTORS["dtrg"]()
    replay_trace(recorder.trace, [replayed])
    assert replayed.racy_locations == live.racy_locations


def test_future_covered_reader_entry_shape():
    """The Lemma-4 soundness regression: a minimized program whose race is
    missed if future-coverage is not propagated to spawn-tree descendants."""
    entry = next(e for e in ENTRIES if e.name == "dtrg_future_covered_reader")
    assert entry.racy_locs == (0,)
    assert count_stmts(entry.program.body) <= 9
    assert any(isinstance(s, Future) for s in entry.program.body)


def test_entries_round_trip_through_raw_json():
    import json

    for path in sorted(CORPUS_DIR.glob("*.json")):
        with open(path) as fh:
            data = json.load(fh)
        if "schema" in data:  # witness golden hashes, not an entry
            continue
        entry = entry_from_data(data)
        assert entry.name == path.stem
