"""Operation-count checks for Theorem 1's complexity claims.

Wall-clock benchmarks live in ``benchmarks/``; these tests pin the
*counted* behaviour, which is deterministic:

* structured (async-finish) programs never leave the PRECEDE fast path —
  zero VISIT expansions, zero non-tree edges, one merge per task;
* the number of PRECEDE queries per access is bounded by the stored
  readers + writer (Algorithms 8-9);
* with memoization, VISIT expansions per query are bounded by the number
  of disjoint sets.
"""

import pytest

from repro.core.array_dtrg import ArrayDTRG
from repro.core.events import encode_trace
from repro.core.fastcheck import CheckResult, _kernel
from repro.memory.tracer import TraceRecorder
from repro.workloads import crypt_idea, series, smith_waterman
from repro.workloads.common import run_instrumented


def detector_of(entry):
    run = run_instrumented(entry, detect=True)
    assert not run.races
    return run.detector, run.metrics


def test_structured_program_stays_on_fast_path():
    params = series.default_params("tiny")
    det, metrics = detector_of(lambda rt: series.run_af(rt, params))
    dtrg = det.dtrg
    assert dtrg.num_non_tree_edges == 0
    # every task merges exactly once (at its IEF's end)
    assert dtrg.num_tree_merges == metrics.num_tasks
    # fast path: precede() answers at level 0 — num_visits counts VISIT
    # *expansions* only (see ArrayDTRG), so a structured program performs
    # zero backward-search work.
    assert dtrg.num_visits == 0


def test_crypt_af_query_count_tracks_accesses():
    params = crypt_idea.default_params("tiny")
    det, metrics = detector_of(lambda rt: crypt_idea.run_af(rt, params))
    q = det.dtrg.num_precede_queries
    # At most ~2 queries per access (reader + writer checks), never less
    # than the number of write checks with a prior writer.
    assert q <= 2 * metrics.num_shared_accesses
    assert q >= metrics.num_writes // 2


def test_wavefront_visits_bounded_by_sets_per_query():
    params = smith_waterman.default_params("tiny")
    det, metrics = detector_of(
        lambda rt: smith_waterman.run_future(rt, params)
    )
    dtrg = det.dtrg
    assert dtrg.num_non_tree_edges == metrics.num_nt_joins
    queries = dtrg.num_precede_queries
    # Memoization: average expansions per query stay far below the task
    # count (here: a small constant — the paper's "1-2 hops" observation).
    assert dtrg.num_visits <= 4 * queries


def test_avg_readers_matches_paper_accounting():
    """#AvgReaders is total stored readers seen / total accesses — verify
    the bookkeeping against the reader populations the kernel's
    ``on_access`` hook reports, summed over a recorded run.  (The plain
    Algorithms 8/9's own value is pinned per configuration by
    ``tests/corpus/engine_golden.json``.)"""
    params = crypt_idea.default_params("tiny")
    recorder = TraceRecorder()
    run = run_instrumented(lambda rt: crypt_idea.run_future(rt, params),
                           detect=True, extra_observers=(recorder,))
    det, metrics = run.detector, run.metrics
    assert not run.races
    assert det.num_accesses == metrics.num_shared_accesses

    populations = []
    enc = encode_trace(recorder.trace)
    kernel = _kernel(
        enc, ArrayDTRG(), [""] * enc.num_tasks, CheckResult(),
        on_access=lambda is_write, task, lid, readers:
            populations.append(readers),
    )
    next(kernel)
    with pytest.raises(StopIteration):
        kernel.send(True)
    assert len(populations) == metrics.num_shared_accesses
    assert det.avg_readers == sum(populations) / len(populations)
    assert det.avg_readers > 0  # futures keep several readers per cell
