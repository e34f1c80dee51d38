"""Property tests of the DTRG's building blocks: interval labels and
disjoint sets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disjoint_set import DisjointSets
from repro.core.labels import LabelAllocator
from repro.graph import GraphBuilder
from repro.testing.generator import program_strategy, run_program


# ---------------------------------------------------------------------- #
# Interval labels driven by random spawn trees                           #
# ---------------------------------------------------------------------- #
@st.composite
def spawn_trees(draw, max_nodes=24):
    """A random tree as a parent vector: parent[i] < i."""
    n = draw(st.integers(1, max_nodes))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return parents


def _labels_for_tree(parents):
    """Assign labels by simulating the depth-first spawn/terminate order."""
    children = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    alloc = LabelAllocator()
    labels = {}

    def walk(node):
        labels[node] = alloc.on_spawn()
        for child in children[node]:
            walk(child)
        alloc.on_terminate(labels[node])

    walk(0)
    return labels


def _is_ancestor(parents, a, b):
    node = parents[b]
    while node is not None:
        if node == a:
            return True
        node = parents[node]
    return False


@given(parents=spawn_trees())
@settings(max_examples=200, deadline=None)
def test_containment_iff_ancestry(parents):
    labels = _labels_for_tree(parents)
    n = len(parents)
    for a in range(n):
        for b in range(n):
            expected = a == b or _is_ancestor(parents, a, b)
            assert labels[a].contains(labels[b]) == expected, (a, b)


@given(parents=spawn_trees())
@settings(max_examples=100, deadline=None)
def test_preorders_are_dense_and_unique(parents):
    labels = _labels_for_tree(parents)
    pres = sorted(label.pre for label in labels.values())
    assert pres == list(range(0, 2 * len(parents), 2)) or len(set(pres)) == len(
        parents
    )


# ---------------------------------------------------------------------- #
# Disjoint sets vs a naive model                                         #
# ---------------------------------------------------------------------- #
@given(
    n=st.integers(1, 30),
    ops=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_union_find_matches_naive_partition(n, ops):
    ds = DisjointSets()
    model = {i: {i} for i in range(n)}
    for i in range(n):
        ds.make_set(i)
    for a, b in ops:
        a, b = a % n, b % n
        ds.union(a, b)
        sa, sb = None, None
        for group in model.values():
            if a in group:
                sa = group
            if b in group:
                sb = group
        if sa is not sb:
            sa |= sb
            for member in sb:
                model[member] = sa
    for a in range(n):
        for b in range(n):
            assert ds.same_set(a, b) == (model[a] is model[b]), (a, b)
    assert ds.num_sets == len({id(g) for g in model.values()})


# ---------------------------------------------------------------------- #
# DTRG structural invariants on generated programs                       #
# ---------------------------------------------------------------------- #
@given(program=program_strategy(num_locs=2, max_leaves=25))
@settings(max_examples=80, deadline=None)
def test_dtrg_invariants_after_execution(program):
    from repro import DeterminacyRaceDetector

    # The reference engine: the invariants are stated on the object graph.
    det = DeterminacyRaceDetector(engine="object")
    gb = GraphBuilder()
    run_program(program, [gb, det])
    graph = gb.graph
    dtrg = det.dtrg

    for tid in graph.task_parent:
        node = dtrg.node(tid)
        # 1. labels are finalized and nest along the spawn tree
        assert node.label.final
        parent = graph.task_parent[tid]
        if parent is not None:
            assert dtrg.node(parent).label.contains(node.label)
        # 2. the set's lsa, if any, is a proper ancestor of the set's
        #    root-most member (the invariant the LSA walk termination uses)
        data = dtrg.set_data(tid)
        if data.lsa is not None:
            assert data.lsa.label.pre < data.label.pre
            assert data.lsa.label.contains(data.label)
        # 3. max_pre dominates the set label's pre
        assert data.max_pre >= data.label.pre
        # 4. every recorded non-tree predecessor was spawned before the
        #    getter could exist (sources predate some member)
        for pred in data.nt:
            assert pred.label.pre <= data.max_pre


@given(program=program_strategy(num_locs=2, max_leaves=25))
@settings(max_examples=80, deadline=None)
def test_counters_match_graph(program):
    """DTRG tree-merge + non-tree counters tie out against the graph's
    join-edge classification under Algorithm 4's merge condition."""
    from repro import DeterminacyRaceDetector
    from repro.graph import EdgeKind

    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    run_program(program, [gb, det])
    nt_edges = gb.graph.edge_counts()[EdgeKind.JOIN_NON_TREE]
    # Algorithm 4 merges only when the producer's parent is already in the
    # consumer's set, which implies the consumer is an ancestor — so every
    # algorithmic tree join is a definitional tree join.  The converse can
    # fail (ancestor join with an unjoined intermediate is recorded as a
    # non-tree edge), hence >= rather than ==.
    assert det.dtrg.num_non_tree_edges >= nt_edges
