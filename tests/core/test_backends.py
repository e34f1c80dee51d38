"""Unit tests for the pluggable PRECEDE backends (docs/ALGORITHM.md §14).

Every scenario drives a raw backend the way the detector does under the
serial DFS contract: mutators arrive in execution order and ``precede(a,
b)`` is only queried while ``b`` is the currently executing task.  The
cross-backend *equivalence* sweep lives in
``tests/properties/test_backend_equivalence.py``; these tests pin the
individual clock algebra and the protocol plumbing.
"""

import pytest

from repro.core.backend import (
    ENGINE_ALIASES,
    ENGINES,
    PrecedeBackend,
    resolve_engine,
)
from repro.core.detector import DeterminacyRaceDetector
from repro.core.vc_backend import VectorClockBackend


# ---------------------------------------------------------------------- #
# Protocol and engine resolution                                         #
# ---------------------------------------------------------------------- #
def test_all_engines_satisfy_the_protocol():
    from repro.core.array_dtrg import AblatedArrayDTRG, ArrayDTRG

    for backend in (ArrayDTRG(), AblatedArrayDTRG(use_lsa=False),
                    VectorClockBackend()):
        assert isinstance(backend, PrecedeBackend)
    # vc counts no search, edges or sets.
    vc = VectorClockBackend()
    assert vc.num_visits == vc.num_non_tree_edges == vc.num_tree_merges == 0


def test_resolve_engine_accepts_names_and_aliases():
    for name in ENGINES:
        assert resolve_engine(name) == name
    for alias, canonical in ENGINE_ALIASES.items():
        assert resolve_engine(alias) == canonical


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError, match="unknown DTRG engine"):
        resolve_engine("hb-tree")


def test_detector_accepts_every_engine():
    for name in ENGINES + tuple(ENGINE_ALIASES):
        det = DeterminacyRaceDetector(engine=name)
        assert det.dtrg is not None


def test_non_default_engines_reject_attachments():
    from repro.obs import Observability

    with pytest.raises(ValueError, match="default query strategy"):
        DeterminacyRaceDetector(engine="vc", use_lsa=False)
    with pytest.raises(ValueError, match="observability"):
        DeterminacyRaceDetector(engine="vc", obs=Observability())
    # The ablations run the kernel over the ablated graph, and obs
    # observes the default graph only.
    assert DeterminacyRaceDetector(engine="array",
                                   use_lsa=False).engine == "array"
    assert DeterminacyRaceDetector(engine="array",
                                   obs=Observability()).engine == "array"
    with pytest.raises(ValueError, match="observability"):
        DeterminacyRaceDetector(use_lsa=False, obs=Observability())
    with pytest.raises(ValueError, match="was removed"):
        DeterminacyRaceDetector(engine="object", obs=Observability())


# ---------------------------------------------------------------------- #
# Vector-clock backend algebra                                           #
# ---------------------------------------------------------------------- #
def test_vc_live_ancestor_chain():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1)
    b.add_task(1, 2)
    assert b.precede(0, 2) and b.precede(1, 2) and b.precede(2, 2)


def test_vc_terminated_sibling_is_unordered_until_joined():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1, is_future=True)
    b.on_terminate(1)
    b.add_task(0, 2)
    assert not b.precede(1, 2)


def test_vc_future_get_join_orders_producer():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1, is_future=True)
    b.on_terminate(1)
    b.record_join(0, 1)
    # The get edge is the whole point of the vc engine: after the join,
    # the producer happens-before the consumer's continuation.
    assert b.precede(1, 0)


def test_vc_get_join_propagates_transitively():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1, is_future=True)
    b.add_task(1, 2, is_future=True)
    b.on_terminate(2)
    b.on_terminate(1)
    b.record_join(0, 1)
    b.add_task(0, 3)
    # 1's frozen clock dominates 2's spawn component, so the join pulls
    # 2 into main's past — and every later child inherits it.
    assert b.precede(1, 3)
    b.record_join(0, 2)
    assert b.precede(2, 0)


def test_vc_finish_merge_joins_scope_tasks():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1)
    b.on_terminate(1)
    b.merge(0, 1)
    assert b.precede(1, 0)


def test_vc_join_before_task_end_is_a_malformed_stream():
    b = VectorClockBackend()
    b.add_root(0)
    b.add_task(0, 1, is_future=True)
    with pytest.raises(ValueError, match="before its task-end"):
        b.record_join(0, 1)


def test_vc_every_mutator_bumps_the_epoch():
    b = VectorClockBackend()
    epoch = b.mutation_epoch
    for mutate in (
        lambda: b.add_root(0),
        lambda: b.add_task(0, 1, is_future=True),
        lambda: b.on_terminate(1),
        lambda: b.record_join(0, 1),
        lambda: b.merge(0, 1),
    ):
        mutate()
        assert b.mutation_epoch == epoch + 1
        epoch = b.mutation_epoch


# ---------------------------------------------------------------------- #
# Detector integration                                                   #
# ---------------------------------------------------------------------- #
def _race_pairs(engine):
    """One racy and one race-free access pattern through the detector."""
    from repro.testing.generator import (
        Async, Program, Read, Write, run_program,
    )

    prog = Program(num_locs=2, body=[
        Async([Write(0), Read(1)]),  # write races with the parent's below
        Write(0),
        Read(1),                     # read/read with the child: no race
    ])
    det = DeterminacyRaceDetector(policy="collect", engine=engine)
    run_program(prog, [det])
    return sorted({(repr(r.loc), r.kind.value) for r in det.races})


def test_detector_reports_identical_races_on_every_engine():
    golden = _race_pairs("array")
    assert golden  # the scenario above must actually race
    for engine in ("dtrg", "vc"):
        assert _race_pairs(engine) == golden


def test_detector_perf_stats_work_for_label_engines():
    stats = DeterminacyRaceDetector(engine="vc").perf_stats
    assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0
    assert "precede_queries" in stats
