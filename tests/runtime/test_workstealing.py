"""Unit tests for the multiprocessor scheduling simulators."""

import pytest

from repro import Runtime, SharedArray
from repro.graph import GraphBuilder
from repro.graph.schedule import (
    WorkStealingSimulator,
    greedy_schedule,
    step_weights,
)


def record(builder, locs=32):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return gb.graph


def wide_graph(tasks=12, work=4):
    def prog(rt, mem):
        with rt.finish():
            for i in range(tasks):
                rt.async_(lambda i=i: [mem.write(i, j) for j in range(work)])

    return record(prog)


def chain_graph(length=10):
    def prog(rt, mem):
        prev = None
        for i in range(length):
            f = rt.future(lambda i=i: mem.write(0, i))
            f.get()

    return record(prog)


def test_one_worker_equals_work():
    graph = wide_graph()
    stats = greedy_schedule(graph, 1)
    assert stats.makespan == stats.work
    assert stats.speedup == pytest.approx(1.0)
    assert stats.utilization == pytest.approx(1.0)


def test_many_workers_bounded_by_span():
    graph = wide_graph()
    stats = greedy_schedule(graph, 64)
    assert stats.makespan >= stats.span
    assert stats.makespan < stats.work


def test_greedy_satisfies_brent_bound():
    graph = wide_graph(tasks=16, work=7)
    for p in (1, 2, 3, 5, 8):
        assert greedy_schedule(graph, p).satisfies_brent_bound(), p


def test_serial_chain_gets_almost_no_speedup():
    # spawn-then-get is *almost* a chain: between the spawn and the get the
    # parent has one (empty, weight-1) step that overlaps the future, so
    # the width is 2 for one unit per link — speedup stays marginal.
    graph = chain_graph()
    s1 = greedy_schedule(graph, 1)
    s8 = greedy_schedule(graph, 8)
    assert s8.makespan == s8.span  # enough workers: span-limited
    assert s8.span >= 0.75 * s1.work
    assert s8.speedup < 1.5


def test_unit_weights_option():
    graph = wide_graph(work=9)
    weighted = step_weights(graph)
    unit = step_weights(graph, unit_weights=True)
    assert sum(unit) == graph.num_steps
    assert sum(weighted) > sum(unit)
    stats = greedy_schedule(graph, 2, unit_weights=True)
    assert stats.work == graph.num_steps


def test_work_stealing_executes_everything():
    graph = wide_graph()
    stats = WorkStealingSimulator(graph, 4, seed=7).run()
    assert stats.busy == stats.work
    assert stats.makespan >= stats.span
    assert stats.steals > 0  # roots start on worker 0; others must steal


def test_work_stealing_single_worker_no_steals():
    graph = wide_graph()
    stats = WorkStealingSimulator(graph, 1, seed=7).run()
    assert stats.steals == 0
    assert stats.makespan == stats.work


def test_work_stealing_deterministic_per_seed():
    graph = wide_graph()
    a = WorkStealingSimulator(graph, 3, seed=42).run()
    b = WorkStealingSimulator(graph, 3, seed=42).run()
    assert a == b


def test_speedup_curve_monotone_for_wide_graph():
    graph = wide_graph(tasks=24, work=6)
    speedups = [greedy_schedule(graph, p).speedup for p in (1, 2, 4, 8)]
    assert speedups[0] == pytest.approx(1.0)
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
    ws1, ws4 = (WorkStealingSimulator(graph, p).run() for p in (1, 4))
    assert ws4.makespan <= ws1.makespan


def test_invalid_inputs():
    graph = wide_graph()
    with pytest.raises(ValueError):
        greedy_schedule(graph, 0)
    with pytest.raises(ValueError):
        WorkStealingSimulator(graph, 0)


def test_future_pipeline_speedup_beats_barrier():
    """The §5 claim made quantitative: dependence-driven futures expose
    strictly more parallelism than barrier-per-phase async-finish on the
    same computation."""
    from repro.workloads import jacobi

    params = jacobi.default_params("tiny")

    def graph_of(entry):
        gb = GraphBuilder()
        rt = Runtime(observers=[gb])
        rt.run(lambda r: entry(r, params))
        return gb.graph

    af = graph_of(jacobi.run_af)
    fut = graph_of(jacobi.run_future)
    p = 8
    af_stats = greedy_schedule(af, p)
    fut_stats = greedy_schedule(fut, p)
    # same work modulo handle traffic; futures shorten the critical path
    assert fut_stats.span <= af_stats.span


# ---------------------------------------------------------------------- #
# Corrected Blumofe-Leiserson steal accounting                           #
# ---------------------------------------------------------------------- #
def test_successful_steal_costs_one_cycle():
    """A stolen step begins executing the cycle *after* the steal."""
    graph = wide_graph(tasks=2, work=0)  # small: exact accounting tractable
    stats2 = WorkStealingSimulator(graph, 2, seed=0, unit_weights=True).run()
    stats1 = WorkStealingSimulator(graph, 1, seed=0, unit_weights=True).run()
    # Every stolen unit step costs its thief one extra (non-busy) cycle,
    # so with steals > 0 the 2-worker makespan cannot collapse to the
    # perfect work/2 split on this root-heavy graph.
    assert stats2.steals > 0
    assert stats2.busy == stats2.work == stats1.makespan
    assert stats2.makespan > stats2.work // 2


def test_steal_accounting_pinned_deterministic_seed():
    """Exact (makespan, steals, failed) for a pinned seed and graph."""
    graph = wide_graph(tasks=3, work=2)
    stats = WorkStealingSimulator(graph, 2, seed=42).run()
    again = WorkStealingSimulator(graph, 2, seed=42).run()
    assert stats == again
    assert stats.busy == stats.work
    # Steal latency is visible: busy time plus idle/steal cycles fills the
    # makespan exactly on both workers.
    assert stats.makespan * stats.workers >= stats.busy + stats.steals


def test_failed_steals_require_an_attempt():
    """One long step, two workers: the idle worker's probes against the
    busy worker's empty deque are failed steals; a single worker never
    attempts (no victim) so it records none."""

    def prog(rt, mem):
        for j in range(5):
            mem.write(j, j)

    graph = record(prog)
    assert graph.num_steps == 2  # the access step, then main's final step
    stats = WorkStealingSimulator(graph, 2, seed=3).run()
    assert stats.steals == 0
    # w0 executes the chain alone; w1 probes w0's (always empty by the
    # time it looks) deque every cycle: one failed attempt per cycle.
    assert stats.failed_steals == stats.makespan
    solo = WorkStealingSimulator(graph, 1, seed=3).run()
    assert solo.steals == 0 and solo.failed_steals == 0


# ---------------------------------------------------------------------- #
# greedy_schedule deque migration parity                                 #
# ---------------------------------------------------------------------- #
def _greedy_schedule_listpop(graph, workers, *, unit_weights=False):
    """The pre-deque implementation (list.pop(0) ready queue), kept as the
    parity reference for the O(1) popleft version."""
    weights = step_weights(graph, unit_weights)
    n = graph.num_steps
    indeg = [len(p) for p in graph.predecessors]
    ready = [i for i, d in enumerate(indeg) if d == 0]
    remaining = {}
    time = done = busy = 0
    while done < n:
        while ready and len(remaining) < workers:
            step = ready.pop(0)
            remaining[step] = weights[step]
        delta = min(remaining.values())
        time += delta
        busy += delta * len(remaining)
        finished = [s for s, r in remaining.items() if r == delta]
        for step in list(remaining):
            remaining[step] -= delta
            if remaining[step] == 0:
                del remaining[step]
        for step in finished:
            done += 1
            for succ in graph.successors[step]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
    from repro.graph.analysis import _critical_path
    from repro.graph.schedule import ScheduleStats

    return ScheduleStats(
        workers=workers, makespan=time, work=sum(weights),
        span=_critical_path(graph, weights), busy=busy,
    )


def test_greedy_deque_matches_old_list_implementation():
    import random as _random

    from repro.testing.generator import random_program, run_program

    graphs = [wide_graph(tasks=9, work=3), chain_graph(6)]
    for seed in range(6):
        gb = GraphBuilder()
        run_program(random_program(_random.Random(seed)), [gb])
        graphs.append(gb.graph)
    for graph in graphs:
        for p in (1, 2, 4, 7):
            assert greedy_schedule(graph, p) == _greedy_schedule_listpop(
                graph, p
            )
