"""Unit tests for the flat-array live DTRG (``core/array_dtrg.py``)."""

import pytest

from repro.core.array_dtrg import ArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.core.reachability import DynamicTaskReachabilityGraph


def _mirror():
    """A fresh (object graph, array graph) pair driven in lockstep."""
    obj = DynamicTaskReachabilityGraph()
    arr = ArrayDTRG()
    return obj, arr


def _drive(pair, op, *args, **kwargs):
    for g in pair:
        getattr(g, op)(*args, **kwargs)


def _assert_all_pairs(obj, arr, keys):
    for a in keys:
        for b in keys:
            assert arr.precede(a, b) == obj.precede(a, b), (a, b)


def test_lockstep_future_scenario():
    """Spawns, terminations, a non-tree join and a tree merge produce the
    same verdicts and the same structural counters as the object graph."""
    pair = _mirror()
    obj, arr = pair
    _drive(pair, "add_root", "m")
    _drive(pair, "add_task", "m", "a", is_future=True)
    _drive(pair, "add_task", "a", "b", is_future=True)
    _drive(pair, "add_task", "m", "c", is_future=False)
    _drive(pair, "on_terminate", "b")
    _drive(pair, "on_terminate", "a")
    # c.get(b): b's parent (a) is not in c's set -> non-tree edge.
    _drive(pair, "record_join", "c", "b")
    _drive(pair, "on_terminate", "c")
    # m.get(a): a's parent is m -> tree join (merge).
    _drive(pair, "record_join", "m", "a")
    _drive(pair, "merge", "m", "c")
    _drive(pair, "on_terminate", "m")

    keys = ["m", "a", "b", "c"]
    _assert_all_pairs(obj, arr, keys)
    assert arr.mutation_epoch == obj.mutation_epoch
    assert arr.num_non_tree_edges == obj.num_non_tree_edges
    assert arr.num_tree_merges == obj.num_tree_merges
    assert arr.num_tasks == 4


def test_repeated_get_is_idempotent():
    pair = _mirror()
    obj, arr = pair
    _drive(pair, "add_root", "m")
    _drive(pair, "add_task", "m", "f", is_future=True)
    _drive(pair, "on_terminate", "f")
    for _ in range(3):  # repeated get: only the first mutates
        _drive(pair, "record_join", "m", "f")
    assert arr.mutation_epoch == obj.mutation_epoch
    assert arr.num_tree_merges == obj.num_tree_merges == 1
    assert arr.precede("f", "m") and obj.precede("f", "m")


def test_memo_invalidated_by_mutation():
    """The internal verdict memo must never outlive a mutation: a verdict
    that flips when a join edge arrives is observed flipped."""
    arr = ArrayDTRG()
    arr.add_root("m")
    arr.add_task("m", "f", is_future=True)
    arr.add_task("m", "g", is_future=True)
    arr.on_terminate("f")
    # Repeat queries so the second answer comes from the memo.
    assert not arr.precede("f", "g")
    assert not arr.precede("f", "g")
    arr.record_join("g", "f")  # non-tree edge f -> g's set
    assert arr.precede("f", "g")
    assert arr.precede("f", "g")


def test_counter_discipline_matches_object_graph():
    """precede() bumps num_precede_queries on every call; the memo may
    only suppress duplicate *searches* (num_visits is engine-private)."""
    arr = ArrayDTRG()
    arr.add_root("m")
    arr.add_task("m", "t", is_future=False)
    before = arr.num_precede_queries
    arr.precede("m", "t")
    arr.precede("m", "t")
    assert arr.num_precede_queries == before + 2


def test_terminate_twice_rejected():
    arr = ArrayDTRG()
    arr.add_root("m")
    arr.add_task("m", "t", is_future=False)
    arr.on_terminate("t")
    with pytest.raises(ValueError):
        arr.on_terminate("t")


def test_second_root_rejected():
    arr = ArrayDTRG()
    arr.add_root("m")
    with pytest.raises(ValueError):
        arr.add_root_idx("m2")


def test_growth_past_initial_buffers():
    """Columns grow without bound or reallocation bugs: a deep spawn
    chain keeps ancestor verdicts exact at every size."""
    arr = ArrayDTRG()
    arr.add_root_idx()
    parent = 0
    for _ in range(2000):
        parent = arr.add_task_idx(parent, False)
    assert len(arr) == 2001
    assert arr.precede_idx(0, 2000)       # ancestor chain
    assert arr.precede_idx(1000, 2000)
    assert not arr.precede_idx(2000, 0)   # child never precedes parent


def test_detector_engine_gating():
    with pytest.raises(ValueError):
        DeterminacyRaceDetector(engine="bogus")
    # Ablation switches exist on the reference engine only, so asking
    # for one selects it.
    for switch in ("use_lsa", "memoize_visit", "use_intervals"):
        det = DeterminacyRaceDetector(engine="array", **{switch: False})
        assert det.engine == "object"
    with pytest.raises(ValueError):
        DeterminacyRaceDetector(engine="vc", use_lsa=False)
    det = DeterminacyRaceDetector(engine="array")
    assert det.engine == "array"
    assert det.perf_stats["cache_hits"] == 0
    assert det.perf_stats["cache_misses"] == 0
