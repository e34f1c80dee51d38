"""Integration: every corpus program, every applicable detector, one
ground truth."""

import pytest

from repro import DeterminacyRaceDetector, ParallelRaceDetector, ReportPolicy
from repro.baselines import BruteForceDetector, ESPBagsDetector, SPBagsDetector
from repro.runtime.errors import RaceError, UnsupportedConstructError
from repro.testing.programs import CORPUS, run_corpus_program

#: The vector-clock row is ParallelRaceDetector, the precise per-task
#: vector-clock detector; its id names the algorithm, not the class.
GENERAL_DETECTORS = [
    pytest.param(DeterminacyRaceDetector, id="DeterminacyRaceDetector"),
    pytest.param(BruteForceDetector, id="BruteForceDetector"),
    pytest.param(ParallelRaceDetector, id="VectorClockDetector"),
]


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_declared_verdicts(program):
    det = DeterminacyRaceDetector()
    run_corpus_program(program, [det])
    assert det.racy_locations == program.racy, program.description


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
@pytest.mark.parametrize("detector_cls", GENERAL_DETECTORS)
def test_all_general_detectors_agree(program, detector_cls):
    det = detector_cls()
    run_corpus_program(program, [det])
    assert det.racy_locations == program.racy


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_restricted_detectors_agree_or_reject(program):
    """ESP-bags/SP-bags either agree (within their model) or refuse with
    UnsupportedConstructError — never silently wrong."""
    for cls in (ESPBagsDetector, SPBagsDetector):
        det = cls()
        try:
            run_corpus_program(program, [det])
        except UnsupportedConstructError:
            continue
        assert det.racy_locations == program.racy, (program.name, cls)


@pytest.mark.parametrize(
    "program", [p for p in CORPUS if p.racy], ids=lambda p: p.name
)
def test_raise_policy_fires_on_racy_programs(program):
    det = DeterminacyRaceDetector(policy=ReportPolicy.RAISE)
    with pytest.raises(RaceError):
        run_corpus_program(program, [det])


@pytest.mark.parametrize(
    "program", [p for p in CORPUS if not p.racy], ids=lambda p: p.name
)
def test_race_free_corpus_is_determinate(program):
    from repro.graph import GraphBuilder
    from repro.graph.schedule import is_determinate

    gb = GraphBuilder()
    run_corpus_program(program, [gb])
    assert is_determinate(gb.graph, samples=12, seed=2)
