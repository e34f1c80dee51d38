"""The Determinism Property (Appendix A.3), property-tested.

"If a parallel program is written using only async, finish and future
constructs, and is guaranteed to never exhibit a data race, then it must be
determinate" — and, constructively, every detected race on a location can
be turned into two schedules whose observable behaviour differs there.
"""

from hypothesis import HealthCheck, given, settings

from repro import DeterminacyRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.graph.schedule import (
    demonstrate_nondeterminism,
    is_determinate,
    sample_outcomes,
)
from repro.testing.generator import program_strategy, run_program

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(program=program_strategy(num_locs=3, max_leaves=25))
@settings(max_examples=80, **COMMON)
def test_race_free_programs_are_determinate(program):
    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    run_program(program, [gb, det])
    if det.report.has_races:
        return
    assert is_determinate(gb.graph, samples=15, seed=3)


@given(program=program_strategy(num_locs=3, max_leaves=25))
@settings(max_examples=80, **COMMON)
def test_race_witnesses_are_real_or_race_is_masked(program):
    """For each racy location, either two concrete linear extensions with
    different observable outcomes on it exist, or the race is *masked*
    (the paper's "racy, yet determinate" case, e.g. racing writes both
    overwritten by an ordered final write and never read) — in which case
    sampled schedules must agree on that location."""
    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    run_program(program, [gb, det])
    closure = ReachabilityClosure(gb.graph)
    samples = None
    for loc in det.racy_locations:
        witness = demonstrate_nondeterminism(gb.graph, loc, closure)
        if witness is not None:
            a, b = witness
            assert any(str(loc) in diff for diff in a.differs_from(b))
        else:
            if samples is None:
                samples = sample_outcomes(gb.graph, samples=10, seed=5)
            for outcome in samples[1:]:
                fw0 = dict(samples[0].final_writer)
                fw = dict(outcome.final_writer)
                assert fw0.get(loc) == fw.get(loc), (loc, str(program))


@given(program=program_strategy(num_locs=2, max_leaves=20))
@settings(max_examples=50, **COMMON)
def test_depth_first_schedule_is_among_sampled_behaviours(program):
    """The serial elision (step-id order) is itself a legal schedule; for
    race-free programs its outcome equals every sampled outcome."""
    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    run_program(program, [gb, det])
    if det.report.has_races:
        return
    from repro.graph.schedule import schedule_outcome

    dfs = schedule_outcome(gb.graph, list(range(gb.graph.num_steps)))
    for outcome in sample_outcomes(gb.graph, samples=8, seed=1):
        assert outcome == dfs
