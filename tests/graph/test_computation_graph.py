"""Unit tests for computation-graph construction (Section 3)."""

import pytest

from repro import Runtime, SharedArray
from repro.baselines import BruteForceDetector
from repro.core.events import GetEvent, TaskCreateEvent, Trace, WriteEvent
from repro.graph import EdgeKind, GraphBuilder
from repro.memory.tracer import replay_trace


def build(builder, locs=4):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return gb.graph


def test_single_task_two_steps():
    # Main's body is one step; closing the implicit root finish starts the
    # terminal step (Definition 1: end-of-finish is a step boundary).
    graph = build(lambda rt, mem: (mem.write(0, 1), mem.read(0)))
    assert graph.num_steps == 2
    assert graph.num_tasks == 1
    assert [kind for (_, _, kind) in graph.edges] == [EdgeKind.CONTINUE]
    step = graph.steps[0]
    assert len(step.accesses) == 2


def test_spawn_creates_three_edge_pattern():
    def prog(rt, mem):
        rt.async_(lambda: mem.write(0, 1))
        mem.read(1)

    graph = build(prog)
    counts = graph.edge_counts()
    assert counts[EdgeKind.SPAWN] == 1
    assert counts[EdgeKind.CONTINUE] == 2   # pre->post spawn, post->terminal
    assert counts[EdgeKind.JOIN_TREE] == 1  # implicit finish joins the async
    # main: pre-spawn, post-spawn, post-implicit-finish; child: one step
    assert graph.num_steps == 4


def test_step_ids_are_depth_first_execution_order():
    order = []

    def prog(rt, mem):
        mem.write(0, 0)  # main step 0

        def child():
            mem.write(1, 1)
            rt.async_(lambda: mem.write(2, 2))
            mem.write(3, 3)

        rt.async_(child)
        mem.read(0)

    graph = build(prog)
    # Access order in the log must be sorted by step id.
    flat = [a for loc in graph.accesses_by_loc.values() for a in loc]
    flat.sort(key=lambda a: a.step)
    values = [a.loc for a in flat]
    assert values == [("x", 0), ("x", 1), ("x", 2), ("x", 3), ("x", 0)]
    # Topological: every edge goes forward in step id.
    assert all(src < dst for src, dst, _ in graph.edges)


def test_get_join_edges_classified():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1), name="p")
        f.get()  # parent join: tree

        def consumer():
            f.get()  # sibling join: non-tree
            mem.read(0)

        g = rt.future(consumer, name="c")
        g.get()

    graph = build(prog)
    counts = graph.edge_counts()
    assert counts[EdgeKind.JOIN_NON_TREE] == 1
    # tree joins: parent get of p, parent get of c, implicit finish (2 tasks)
    assert counts[EdgeKind.JOIN_TREE] == 4


def test_finish_join_edges_from_all_registered_tasks():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: rt.async_(lambda: None))  # escaping grandchild

    graph = build(prog)
    # finish end joins both tasks, plus implicit-root join of nothing new
    assert graph.edge_counts()[EdgeKind.JOIN_TREE] == 2


def test_first_and_last_steps_tracked():
    def prog(rt, mem):
        t = rt.async_(lambda: (mem.write(0, 1), rt.async_(lambda: None)))
        assert t is not None

    graph = build(prog)
    for tid in graph.task_parent:
        assert tid in graph.first_step
        assert tid in graph.last_step
        assert graph.first_step[tid] <= graph.last_step[tid]


def test_is_ancestor_task():
    def prog(rt, mem):
        def child():
            rt.async_(lambda: None)

        rt.async_(child)
        rt.async_(lambda: None)

    graph = build(prog)
    assert graph.is_ancestor_task(0, 1)
    assert graph.is_ancestor_task(0, 2)
    assert graph.is_ancestor_task(1, 2)
    assert not graph.is_ancestor_task(2, 1)
    assert not graph.is_ancestor_task(1, 3)


def test_task_names_and_kinds_recorded():
    def prog(rt, mem):
        rt.future(lambda: None, name="fut")
        rt.async_(lambda: None, name="asy")

    graph = build(prog)
    assert graph.task_names[1] == "fut"
    assert graph.task_is_future[1] is True
    assert graph.task_is_future[2] is False


def test_steps_of_task_and_label_lookup():
    def prog(rt, mem):
        mem.write(0, 1)
        rt.async_(lambda: None)
        mem.write(1, 1)

    graph = build(prog)
    main_steps = graph.steps_of_task(0)
    assert len(main_steps) == 3  # pre-spawn, post-spawn, post-root-finish
    graph.steps[0].label = "first"
    assert graph.step_by_label("first") is graph.steps[0]


def test_a_join_of_a_running_task_raises_a_pointed_error():
    """A trace cut short (a run that raised) ends with a task still
    running; the oracle names the join instead of a bare ``KeyError``."""
    with pytest.raises(ValueError,
                       match=r"end of finish 0 \(owner task 0\) joins task "
                             r"1, which is still running"):
        replay_trace(Trace([TaskCreateEvent(0, 1, False, 0),
                            WriteEvent(1, "x")]), [BruteForceDetector()])
    # A bare event list skips Trace's checks, so a get can reach the
    # oracle before its producer ends.
    with pytest.raises(ValueError,
                       match=r"get of task 0 joins task 1, which is still "
                             r"running"):
        replay_trace([TaskCreateEvent(0, 1, True, 0), GetEvent(0, 1)],
                     [GraphBuilder()])
