"""Unit tests for the dynamic task reachability graph (Section 4.1)."""

import pytest

from repro.core.reachability import DynamicTaskReachabilityGraph


def build_chain():
    """main -> A (future) -> B (future), fully live."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.add_task("A", "B", is_future=True, name="B")
    return g


def test_task_precedes_itself():
    g = build_chain()
    assert g.precede("A", "A")


def test_live_ancestor_precedes_descendant():
    g = build_chain()
    assert g.precede("main", "B")
    assert g.precede("A", "B")


def test_completed_sibling_does_not_precede():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    assert not g.precede("A", "B")
    assert not g.precede("B", "A")


def test_tree_join_via_parent_get_merges():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.record_join("main", "A")  # parent get: tree join
    assert g.same_set("main", "A")
    assert g.num_tree_merges == 1
    assert g.num_non_tree_edges == 0
    g.add_task("main", "B", is_future=True, name="B")
    assert g.precede("A", "B")  # through the merged set's containment


def test_sibling_get_records_non_tree_edge():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")  # sibling join: non-tree
    assert g.num_non_tree_edges == 1
    assert g.non_tree_predecessors("B") == ["A"]
    assert g.precede("A", "B")
    assert not g.precede("B", "A")


def test_repeated_join_is_idempotent():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.record_join("main", "A")
    g.record_join("main", "A")  # same set now: no-op
    assert g.num_tree_merges == 1


def test_transitive_path_through_two_non_tree_edges():
    # A -> B (B got A), B -> C (C got B): A must precede C.
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")
    g.on_terminate("B")
    g.add_task("main", "C", is_future=True, name="C")
    g.record_join("C", "B")
    assert g.precede("A", "C")
    assert g.precede("B", "C")


def test_lsa_assignment_rules():
    """Algorithm 2 lines 7-11: lsa is the parent iff the parent's set has
    non-tree edges, else inherited."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "P", is_future=True, name="P")
    g.add_task("P", "C1", is_future=True, name="C1")
    assert g.lsa_of("C1") is None  # no non-tree edges anywhere yet
    g.on_terminate("C1")
    g.add_task("main", "X", is_future=True, name="X")
    g.on_terminate("X")
    # X completed as a sibling subtree of P?  No: X is child of main spawned
    # while P live — allowed in this synthetic driver.  P joins it: non-tree.
    g.record_join("P", "X")
    g.add_task("P", "C2", is_future=True, name="C2")
    assert g.lsa_of("C2") == "P"  # parent's set now has an nt edge
    g.add_task("C2", "D", is_future=True, name="D")
    assert g.lsa_of("D") == "P"  # inherited: C2's set has no nt edges


def test_reachability_through_ancestors_non_tree_edge():
    """A join recorded into an ancestor before the current task's branch
    spawned must order the producer before the current task (the LSA walk)."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "W", is_future=True, name="W")
    g.record_join("W", "A")  # non-tree into W
    g.add_task("W", "child", is_future=True, name="child")
    # A's completion reaches W's post-get step, which precedes child's spawn.
    assert g.precede("A", "child")


def test_merged_member_non_tree_edge_not_pruned():
    """Regression for the unsound preorder prune (DESIGN.md §3).

    main spawns F1 and F2; F2 joins F1 (non-tree); main joins F2 (tree
    merge — main's set label has pre 0 while the nt edge source F1 has
    pre 1).  precede(F1, main) must be True via the merged nt list.
    """
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "F1", is_future=True, name="F1")
    g.on_terminate("F1")
    g.add_task("main", "F2", is_future=True, name="F2")
    g.record_join("F2", "F1")  # non-tree
    g.on_terminate("F2")
    g.record_join("main", "F2")  # tree merge into main's set
    assert g.precede("F1", "main")


def test_statistics_counters():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    # Pruned at level 0 (A postdates everything in main's set), so the
    # expansion counter does not move: num_visits counts VISIT
    # *expansions* only, never level-0 resolutions.
    g.precede("A", "main")
    assert g.num_precede_queries == 1
    assert g.num_visits == 0
    # A query that must actually search backwards expands at least B's set.
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")  # non-tree edge A -> B's set
    g.precede("A", "B")
    assert g.num_precede_queries == 2
    assert g.num_visits >= 1


@pytest.mark.parametrize(
    "options",
    [
        {"use_lsa": False},
        {"memoize_visit": False},
        {"use_intervals": False},
        {"use_lsa": False, "memoize_visit": False, "use_intervals": False},
    ],
)
def test_ablation_variants_agree_on_small_graph(options):
    def build(**kw):
        g = DynamicTaskReachabilityGraph(**kw)
        g.add_root("m")
        g.add_task("m", "a", is_future=True, name="a")
        g.on_terminate("a")
        g.add_task("m", "b", is_future=True, name="b")
        g.record_join("b", "a")
        g.on_terminate("b")
        g.add_task("m", "c", is_future=True, name="c")
        g.record_join("c", "b")
        g.on_terminate("c")
        g.record_join("m", "c")
        g.add_task("m", "d", is_future=True, name="d")
        return g

    reference = build()
    variant = build(**options)
    tasks = ["m", "a", "b", "c", "d"]
    for x in tasks:
        for y in tasks:
            assert reference.precede(x, y) == variant.precede(x, y), (x, y)


# ---------------------------------------------------------------------- #
# The epoch-scoped verdict memo (docs/ALGORITHM.md §7)                   #
# ---------------------------------------------------------------------- #
def sibling_join_graph():
    """main spawns futures A, C (terminated), then B; B joins C.

    ``precede(A, B)`` is an expensive *negative* (A was created before B,
    so the preorder prune cannot answer, and B's set has a non-tree edge
    to explore); ``precede(C, B)`` is an expensive *positive*.
    """
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "C", is_future=True, name="C")
    g.on_terminate("C")
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "C")
    return g


def test_expensive_positive_is_memoized():
    g = sibling_join_graph()
    assert g.precede("C", "B")
    visits = g.num_visits
    assert visits > 0
    assert g.precede("C", "B")
    assert g.num_visits == visits  # answered from the memo


def test_expensive_negative_is_memoized_within_epoch():
    g = sibling_join_graph()
    assert not g.precede("A", "B")
    visits = g.num_visits
    assert not g.precede("A", "B")
    assert g.num_visits == visits


def test_memoized_negative_flips_after_join_adds_the_path():
    """The reason the memo is epoch-scoped: the missing path can appear
    one mutation later."""
    g = sibling_join_graph()
    assert not g.precede("A", "B")  # memoized negative
    g.record_join("B", "A")         # adds exactly the A -> B edge
    assert g.precede("A", "B")      # the stale negative must not answer


def test_positive_survives_merge():
    """Tree-join merges change set representatives but never retract a
    positive verdict (monotonicity)."""
    g = sibling_join_graph()
    assert g.precede("C", "B")
    g.on_terminate("B")
    g.record_join("main", "B")  # parent get: merges B into main's set
    assert g.precede("C", "B")  # same verdict through the merged set


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(
            lambda g: g.add_task("main", "D", is_future=True, name="D"),
            id="add_task",
        ),
        pytest.param(lambda g: g.record_join("B", "A"), id="record_join-nt"),
        pytest.param(lambda g: g.on_terminate("B"), id="on_terminate"),
        pytest.param(
            lambda g: (g.on_terminate("B"), g.record_join("main", "B")),
            id="merge-via-tree-join",
        ),
    ],
)
def test_every_mutation_kind_bumps_the_epoch(mutate):
    g = sibling_join_graph()
    before = g.mutation_epoch
    mutate(g)
    assert g.mutation_epoch > before


def test_same_set_join_does_not_bump_epoch():
    """A redundant join is a graph no-op and must not invalidate."""
    g = sibling_join_graph()
    g.on_terminate("B")
    g.record_join("main", "B")  # merge
    before = g.mutation_epoch
    g.record_join("main", "B")  # same set now: no-op
    assert g.mutation_epoch == before


def test_memo_dropped_by_unrelated_mutation_then_recomputed():
    g = sibling_join_graph()
    assert not g.precede("A", "B")
    g.add_task("main", "D", is_future=True, name="D")  # unrelated bump
    visits = g.num_visits
    assert not g.precede("A", "B")  # searched again, same verdict
    assert g.num_visits > visits


def test_partition_groups_by_set_in_creation_order():
    g = sibling_join_graph()
    assert g.partition() == [["main"], ["A"], ["C"], ["B"]]
    g.on_terminate("B")
    g.record_join("main", "B")  # merge B into main's set
    # Groups keyed by first-created member; members in creation order.
    assert g.partition() == [["main", "B"], ["A"], ["C"]]


def test_partition_is_deterministic_across_repeats():
    g = sibling_join_graph()
    assert g.partition() == g.partition()
