"""Unit tests for graph analyses: closure, race oracle, work/span."""

from repro import Runtime, SharedArray
from repro.graph import (
    GraphBuilder,
    ReachabilityClosure,
    find_races,
    racy_locations,
    work_and_span,
)


def build(builder, locs=4):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return gb.graph


def fork_join_graph():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(1, 2))
        mem.read(0)

    return build(prog)


def test_closure_precedes_and_parallel():
    graph = fork_join_graph()
    cl = ReachabilityClosure(graph)
    a_steps = graph.steps_of_task(1)
    b_steps = graph.steps_of_task(2)
    a, b = a_steps[0].sid, b_steps[0].sid
    assert cl.parallel(a, b)
    assert not cl.precedes(a, b)
    first_main = graph.first_step[0]
    assert cl.precedes(first_main, a)
    assert cl.precedes(a, graph.last_step[0])
    assert not cl.parallel(a, a)


def test_descendants_set():
    graph = fork_join_graph()
    cl = ReachabilityClosure(graph)
    first = graph.first_step[0]
    # the first step reaches every other step
    assert cl.descendants(first) == set(range(1, graph.num_steps))
    assert cl.descendants(graph.last_step[0] ) == set()


def test_find_races_and_racy_locations_agree():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))
            rt.async_(lambda: mem.read(1))
        mem.write(1, 3)  # ordered: after the finish

    graph = build(prog)
    races = find_races(graph)
    locs = racy_locations(graph)
    assert locs == frozenset({("x", 0)})
    assert {r.loc for r in races} == {("x", 0)}


def test_read_read_is_not_a_race():
    def prog(rt, mem):
        mem.write(0, 1)
        with rt.finish():
            rt.async_(lambda: mem.read(0))
            rt.async_(lambda: mem.read(0))

    graph = build(prog)
    assert racy_locations(graph) == frozenset()


def test_max_pairs_per_loc_caps_enumeration():
    def prog(rt, mem):
        with rt.finish():
            for _ in range(4):
                rt.async_(lambda: mem.write(0, 1))

    graph = build(prog)
    assert len(find_races(graph, max_pairs_per_loc=1)) == 1
    assert len(find_races(graph, max_pairs_per_loc=None)) == 6  # C(4,2)


def test_task_precedes_matches_on_the_fly_semantics():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        rt.future(lambda: (f.get(), mem.read(0)))
        mem.read(1)

    graph = build(prog)
    cl = ReachabilityClosure(graph)
    # every step of the producer (task 1) precedes the consumer's read step
    consumer_read = graph.accesses_by_loc[("x", 0)][1].step
    assert cl.task_precedes(1, consumer_read)
    # main's later read step is NOT preceded by the consumer (task 2):
    main_read = graph.accesses_by_loc[("x", 1)][0].step
    assert not cl.task_precedes(2, main_read)


def test_work_and_span_serial_vs_parallel():
    # A task-free program still has two steps: main's body and the step
    # after the implicit root finish.
    serial = build(lambda rt, mem: mem.write(0, 1))
    w, s = work_and_span(serial)
    assert (w, s) == (2, 2)

    parallel = fork_join_graph()
    w, s = work_and_span(parallel)
    assert w == parallel.num_steps
    assert s < w  # some parallelism exists
