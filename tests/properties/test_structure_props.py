"""Property tests of the DTRG's building blocks: interval labels and
disjoint sets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_dtrg import ArrayDTRG
from repro.core.disjoint_set import DisjointSets
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
    """Assign labels by driving an ``ArrayDTRG`` in the depth-first
    spawn/terminate order; ``labels[node]`` is its final ``(pre, post)``."""
    children = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    g = ArrayDTRG()

    def walk(node):
        if parents[node] is None:
            g.add_root(node)
        else:
            g.add_task(parents[node], node, is_future=False)
        for child in children[node]:
            walk(child)
        g.on_terminate(node)

    walk(0)
    return {node: g.label_of(node) for node in range(len(parents))}


def _contains(outer, inner):
    return outer[0] <= inner[0] and inner[1] <= outer[1]


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
            assert _contains(labels[a], labels[b]) == expected, (a, b)


@given(parents=spawn_trees())
@settings(max_examples=100, deadline=None)
def test_preorders_are_dense_and_unique(parents):
    labels = _labels_for_tree(parents)
    pres = sorted(pre for pre, _post in labels.values())
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

    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    run_program(program, [gb, det])
    graph = gb.graph
    g = det.dtrg
    pre, post = g.pre, g.post

    def contains(a, b):
        return pre[a] <= pre[b] and post[b] <= post[a]

    for tid in graph.task_parent:
        i = g.index[tid]
        # 1. labels are finalized and nest along the spawn tree
        assert g.final[i]
        parent = graph.task_parent[tid]
        if parent is not None:
            assert g.parent[i] == g.index[parent]
            assert contains(g.index[parent], i)
        # 2. the set's lsa, if any, is a proper ancestor of the set's
        #    root (its root-most member: the invariant the LSA walk
        #    termination uses)
        root = g.find(i)
        assert contains(root, i)
        lsa = g.lsa[root]
        if lsa >= 0:
            assert pre[lsa] < pre[root]
            assert contains(lsa, root)
        # 3. max_pre dominates the set label's pre
        assert g.max_pre[root] >= pre[root]
        # 4. every recorded non-tree predecessor was spawned before the
        #    getter could exist (sources predate some member)
        for pred in g.nt[root] or ():
            assert pre[pred] <= g.max_pre[root]


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
