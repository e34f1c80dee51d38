"""Theorem 1's query-cost shape, micro-benchmarked.

Per shared-memory access, the detector issues up to ``(#readers + 1)``
PRECEDE calls, and each call visits at most the non-tree edges reachable
backwards (``O((n+1) * alpha)``).  We time PRECEDE directly on synthetic
:class:`~repro.core.array_dtrg.ArrayDTRG` graphs (by task key) sweeping
the two cost drivers:

* chain length of non-tree joins the query must traverse;
* number of stored future readers a write-check loops over.
"""

import pytest

from repro.core.array_dtrg import ArrayDTRG

CHAIN_LENGTHS = [4, 16, 64, 256]


def build_nt_chain(n):
    """main spawns F0..Fn; each F(i+1) joined F(i) -> a non-tree chain.

    ``precede(F0, Fn)`` must walk the whole chain; ``precede(Fn, F0)`` is
    pruned immediately by the preorder check.
    """
    g = ArrayDTRG()
    g.add_root("main")
    prev = None
    for i in range(n + 1):
        name = f"F{i}"
        g.add_task("main", name, is_future=True, name=name)
        if prev is not None:
            g.record_join(name, prev)
        g.on_terminate(name)
        prev = name
    return g


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_precede_walks_nt_chain(benchmark, n):
    g = build_nt_chain(n)
    src, dst = "F0", f"F{n}"
    assert g.precede(src, dst)

    benchmark(g.precede, src, dst)


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_precede_pruned_is_constant_time(benchmark, n):
    """The reverse query fails the preorder prune on the first visit — the
    fast path that keeps structured programs SP-bags-cheap."""
    g = build_nt_chain(n)
    src, dst = f"F{n}", "F0"
    assert not g.precede(src, dst)
    before = g.num_visits
    g.precede(src, dst)
    # level-0 preorder prune: no set is ever expanded, so the expansion
    # counter does not move at all.
    assert g.num_visits - before == 0

    benchmark(g.precede, src, dst)


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_memoization_bounds_visits(n):
    """With memoization every set is expanded at most once per query even
    on an adversarial all-pairs join pattern."""
    g = ArrayDTRG()
    g.add_root("main")
    names = []
    for i in range(min(n, 64)):
        name = f"T{i}"
        g.add_task("main", name, is_future=True, name=name)
        for earlier in names:
            g.record_join(name, earlier)  # joins *every* predecessor
        g.on_terminate(name)
        names.append(name)
    before = g.num_visits
    g.precede(names[0], names[-1])
    # each of the k sets is visited at most once (+1 for the initial call)
    assert g.num_visits - before <= len(names) + 1


@pytest.mark.parametrize("num_tasks", [64, 256])
def test_tree_join_merge_cost(benchmark, num_tasks):
    """Structured joins are near-free: one union-find merge each."""

    def run():
        g = ArrayDTRG()
        g.add_root("main")
        for i in range(num_tasks):
            name = f"T{i}"
            g.add_task("main", name, is_future=True, name=name)
            g.on_terminate(name)
            g.record_join("main", name)
        return g

    g = benchmark(run)
    assert g.num_tree_merges == num_tasks
