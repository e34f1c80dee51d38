"""Input checks shared by every schedule over a recorded graph."""

import random

import pytest

from repro import Runtime, SharedArray
from repro.graph import EdgeKind, GraphBuilder
from repro.graph.computation_graph import ComputationGraph
from repro.graph.schedule import (
    WorkStealingSimulator,
    extension_preferring,
    greedy_schedule,
    random_linear_extension,
    schedule_outcome,
)


def two_asyncs_graph():
    """finish { async write x[0]; async write x[0] }: 8 steps."""
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    mem = SharedArray(rt, "x", 1)

    def prog(rt):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))

    rt.run(prog)
    return gb.graph


def cyclic_graph(root):
    """Steps 1 and 2 wait on each other; step 0 is a root if ``root``."""
    g = ComputationGraph()
    for _ in range(3 if root else 2):
        g.new_step(0)
    a, b = (1, 2) if root else (0, 1)
    if root:
        g.add_edge(0, a, EdgeKind.CONTINUE)
    g.add_edge(a, b, EdgeKind.CONTINUE)
    g.add_edge(b, a, EdgeKind.CONTINUE)
    return g


def test_order_naming_a_foreign_step_is_a_value_error():
    graph = two_asyncs_graph()
    order = list(range(graph.num_steps))
    assert order[-1] == 7
    schedule_outcome(graph, order)
    order[-1] = 15
    with pytest.raises(ValueError, match="step 15 is not in the graph"):
        schedule_outcome(graph, order)


@pytest.mark.parametrize("order", [[0, 1], list(range(9)), [0] * 8])
def test_order_that_is_not_a_permutation_is_a_value_error(order):
    with pytest.raises(ValueError, match="permutation"):
        schedule_outcome(two_asyncs_graph(), order)


def test_order_breaking_an_edge_names_the_edge():
    graph = two_asyncs_graph()
    order = list(range(graph.num_steps))
    order[0], order[1] = order[1], order[0]
    with pytest.raises(ValueError, match="order violates edge 0 -> 1"):
        schedule_outcome(graph, order)


@pytest.mark.parametrize("first, then", [(15, 2), (2, 15), (-1, 2)])
def test_preferring_a_foreign_step_is_a_value_error(first, then):
    with pytest.raises(ValueError, match="is not in the graph"):
        extension_preferring(two_asyncs_graph(), first, then)


@pytest.mark.parametrize("root", [False, True])
@pytest.mark.parametrize("schedule", [
    lambda g: random_linear_extension(g, random.Random(0)),
    lambda g: extension_preferring(g, 0, 1),
    lambda g: greedy_schedule(g, 2),
    lambda g: WorkStealingSimulator(g, 1).run(),
    lambda g: WorkStealingSimulator(g, 2).run(),
], ids=["random", "preferring", "greedy", "stealing-1", "stealing-2"])
def test_every_schedule_refuses_a_cycle(schedule, root):
    with pytest.raises(ValueError, match="contains a cycle"):
        schedule(cyclic_graph(root))
