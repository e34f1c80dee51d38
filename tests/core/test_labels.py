"""Unit tests for the online interval labeling (DTRG map L), read off
:class:`ArrayDTRG`'s ``pre``/``post`` columns."""

import pytest

from repro.core.array_dtrg import MAXID, ArrayDTRG


def contains(outer, inner):
    """Interval containment of two ``(pre, post)`` labels."""
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def live_count(g):
    return sum(1 for flag in g.final if not flag)


class Labels:
    """Spawn/terminate by name on a fresh graph; ``self[name]`` is the
    task's current ``(pre, post)`` label."""

    def __init__(self):
        self.g = ArrayDTRG()

    def spawn(self, name, parent=None):
        if parent is None:
            self.g.add_root(name)
        else:
            self.g.add_task(parent, name, is_future=False)

    def terminate(self, name):
        self.g.on_terminate(name)

    def __getitem__(self, name):
        return self.g.label_of(name)

    def final(self, name):
        return bool(self.g.final[self.g.index[name]])


def simulate(spawn_script):
    """Drive a graph from a nested-tuple spawn script.

    ``("name", [children...])`` spawns in depth-first order, terminating
    each node after its children — the exact discipline of the runtime.
    Returns the :class:`Labels`.
    """
    labels = Labels()

    def walk(node, parent):
        name, children = node
        labels.spawn(name, parent)
        for child in children:
            walk(child, name)
        labels.terminate(name)

    walk(spawn_script, None)
    return labels


def test_single_node_interval():
    labels = simulate(("root", []))
    assert labels["root"] == (0, 1)
    assert labels.final("root")


def test_ancestor_contains_descendant():
    labels = simulate(
        ("r", [("a", [("aa", []), ("ab", [])]), ("b", [("ba", [])])])
    )
    assert contains(labels["r"], labels["a"])
    assert contains(labels["r"], labels["ba"])
    assert contains(labels["a"], labels["ab"])
    assert not contains(labels["a"], labels["b"])
    assert not contains(labels["a"], labels["ba"])
    assert not contains(labels["ab"], labels["a"])


def test_siblings_disjoint():
    labels = simulate(("r", [("a", []), ("b", []), ("c", [])]))
    for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
        assert not contains(labels[x], labels[y])
        assert not contains(labels[y], labels[x])


def test_temporary_postorder_ordering_mid_execution():
    """While tasks are live, ancestors must already contain descendants."""
    labels = Labels()
    labels.spawn("root")
    labels.spawn("child", "root")
    labels.spawn("grandchild", "child")
    # All three live: containment must hold with temporary postorders.
    assert contains(labels["root"], labels["child"])
    assert contains(labels["child"], labels["grandchild"])
    assert contains(labels["root"], labels["grandchild"])
    assert not contains(labels["grandchild"], labels["child"])
    labels.terminate("grandchild")
    assert contains(labels["child"], labels["grandchild"])
    labels.terminate("child")
    assert contains(labels["root"], labels["child"])
    labels.terminate("root")


def test_completed_sibling_does_not_contain_later_spawn():
    labels = Labels()
    labels.spawn("root")
    labels.spawn("first", "root")
    labels.terminate("first")
    labels.spawn("second", "root")
    assert not contains(labels["first"], labels["second"])
    assert not contains(labels["second"], labels["first"])
    assert contains(labels["root"], labels["second"])
    labels.terminate("second")
    labels.terminate("root")


def test_temporary_values_count_down_from_maxid():
    labels = Labels()
    labels.spawn("a")
    labels.spawn("b", "a")
    assert labels["a"][1] == MAXID
    assert labels["b"][1] == MAXID - 1
    assert live_count(labels.g) == 2


def test_tmpid_recycled_on_terminate():
    labels = Labels()
    labels.spawn("root")
    labels.spawn("child1", "root")
    labels.terminate("child1")
    labels.spawn("child2", "root")
    # child2 reuses the temporary slot child1 released.
    assert labels["child2"][1] == MAXID - 1
    labels.terminate("child2")
    labels.terminate("root")
    assert live_count(labels.g) == 0


def test_double_terminate_rejected():
    labels = Labels()
    labels.spawn("root")
    labels.terminate("root")
    with pytest.raises(ValueError):
        labels.terminate("root")


def test_final_postorders_use_shared_counter():
    """pre and post values interleave in one DFS counter (CLRS-style)."""
    labels = simulate(("r", [("a", []), ("b", [])]))
    assert labels["r"][0] == 0
    assert labels["a"] == (1, 2)
    assert labels["b"] == (3, 4)
    assert labels["r"][1] == 5
