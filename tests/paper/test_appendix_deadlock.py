"""Appendix A — the deadlock example and its race diagnosis."""

from repro.core.races import AccessKind
from repro.examples_lib.appendix_deadlock import run_deadlock_example
from repro.graph import GraphBuilder
from repro.graph.schedule import is_determinate


def test_faithful_mode_raises_null_future():
    outcome = run_deadlock_example(defensive=False)
    assert outcome.deadlock_diagnosed
    assert "deadlock" in str(outcome.null_future_error).lower()


def test_defensive_mode_reports_reference_races():
    outcome = run_deadlock_example(defensive=True)
    assert not outcome.deadlock_diagnosed
    races = outcome.detector.races
    assert {race.loc for race in races} == {("a",), ("b",)}
    kinds = {race.loc: race.kind for race in races}
    # F1 reads b before async2 writes it: read happened first in DFS.
    assert kinds[("b",)] is AccessKind.READ_WRITE
    # async1 writes a before F2 reads it.
    assert kinds[("a",)] is AccessKind.WRITE_READ


def test_defensive_mode_is_structurally_nondeterminate():
    """The reference races mean different schedules see different handle
    values — the root of the possible deadlock."""
    gb = GraphBuilder()
    run_deadlock_example(defensive=True, extra_observers=[gb])
    assert not is_determinate(gb.graph, samples=40)
