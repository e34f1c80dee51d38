"""Property tests for the multiprocessor scheduling simulators."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder
from repro.graph.schedule import WorkStealingSimulator, greedy_schedule
from repro.testing.generator import program_strategy, run_program

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def graph_of(program):
    gb = GraphBuilder()
    run_program(program, [gb])
    return gb.graph


@given(
    program=program_strategy(num_locs=2, max_leaves=25),
    workers=st.integers(1, 12),
)
@settings(max_examples=100, **COMMON)
def test_greedy_brent_bound(program, workers):
    """T_p <= ceil(T_1 / p) + T_inf for every graph and worker count."""
    graph = graph_of(program)
    stats = greedy_schedule(graph, workers)
    assert stats.satisfies_brent_bound(), str(program)
    assert stats.makespan >= stats.span
    assert stats.makespan * workers >= stats.work  # can't beat perfect


@given(
    program=program_strategy(num_locs=2, max_leaves=25),
    workers=st.integers(1, 8),
    seed=st.integers(0, 100),
)
@settings(max_examples=80, **COMMON)
def test_work_stealing_is_a_legal_schedule(program, workers, seed):
    """Work stealing executes every step exactly once, respects the span
    lower bound, and burns exactly the graph's work in busy time."""
    graph = graph_of(program)
    stats = WorkStealingSimulator(graph, workers, seed=seed).run()
    assert stats.busy == stats.work
    assert stats.makespan >= stats.span
    assert stats.makespan >= (stats.work + workers - 1) // workers


@given(program=program_strategy(num_locs=2, max_leaves=25))
@settings(max_examples=60, **COMMON)
def test_parallel_never_slower_than_serial(program):
    """Greedy with any worker count beats one worker: some worker is busy
    whenever steps remain, so the makespan never exceeds the total work.
    (Strict monotonicity in p is *not* asserted — Graham's scheduling
    anomalies make it false in general for weighted steps.)"""
    graph = graph_of(program)
    t1 = greedy_schedule(graph, 1).makespan
    for p in (2, 4, 8):
        assert greedy_schedule(graph, p).makespan <= t1
