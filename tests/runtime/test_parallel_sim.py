"""Unit tests for the parallel-schedule simulator (Appendix A.3 machinery)."""

import random

import pytest

from repro import Runtime, SharedArray
from repro.graph import GraphBuilder
from repro.graph.schedule import (
    demonstrate_nondeterminism,
    extension_preferring,
    is_determinate,
    random_linear_extension,
    sample_outcomes,
    schedule_outcome,
)


def record(builder):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    mem = SharedArray(rt, "x", 4)
    rt.run(lambda _rt: builder(rt, mem))
    return gb.graph


def racy_graph():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))

    return record(prog)


def ordered_graph():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        f.get()
        mem.write(0, 2)
        mem.read(0)

    return record(prog)


def test_random_extension_is_topological():
    graph = racy_graph()
    rng = random.Random(1)
    for _ in range(10):
        order = random_linear_extension(graph, rng)
        pos = {s: i for i, s in enumerate(order)}
        assert len(order) == graph.num_steps
        for src, dst, _ in graph.edges:
            assert pos[src] < pos[dst]


def test_schedule_outcome_validates_order():
    graph = ordered_graph()
    order = list(range(graph.num_steps))
    schedule_outcome(graph, order)  # DFS order is always valid
    bad = list(reversed(order))
    with pytest.raises(ValueError):
        schedule_outcome(graph, bad)


def test_race_free_program_is_determinate():
    graph = ordered_graph()
    assert is_determinate(graph, samples=30)
    outcomes = sample_outcomes(graph, samples=5)
    final = dict(outcomes[0].final_writer)
    # the second write is the unique final writer in every schedule
    assert all(dict(o.final_writer) == final for o in outcomes)


def test_racy_program_witnessed_nondeterminate():
    graph = racy_graph()
    witness = demonstrate_nondeterminism(graph, ("x", 0))
    assert witness is not None
    a, b = witness
    diffs = a.differs_from(b)
    assert diffs and any("final value" in d for d in diffs)


def test_demonstrate_nondeterminism_none_for_clean_location():
    graph = ordered_graph()
    assert demonstrate_nondeterminism(graph, ("x", 0)) is None


def test_extension_preferring_orders_parallel_steps_both_ways():
    graph = racy_graph()
    accesses = graph.accesses_by_loc[("x", 0)]
    s1, s2 = accesses[0].step, accesses[1].step
    order12 = extension_preferring(graph, s1, s2)
    order21 = extension_preferring(graph, s2, s1)
    assert order12.index(s1) < order12.index(s2)
    assert order21.index(s2) < order21.index(s1)


def test_extension_preferring_rejects_impossible_order():
    graph = ordered_graph()
    accesses = graph.accesses_by_loc[("x", 0)]
    writes = [a.step for a in accesses if a.is_write]
    first, second = writes[0], writes[1]
    with pytest.raises(ValueError):
        extension_preferring(graph, second, first)  # second ≺ ... is forced


def test_read_sees_write_tracking():
    graph = ordered_graph()
    outcome = schedule_outcome(graph, list(range(graph.num_steps)))
    reads = [entry for entry in outcome.read_sees if entry[0] == ("x", 0)]
    assert len(reads) == 1
    _, _, seen = reads[0]
    writes = [a.step for a in graph.accesses_by_loc[("x", 0)] if a.is_write]
    assert seen == writes[-1]
