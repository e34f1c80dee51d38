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

from repro.core.detector import DeterminacyRaceDetector
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
    # *expansions* only (see DynamicTaskReachabilityGraph.__init__), so a
    # structured program performs zero backward-search work.
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
    the bookkeeping against a recomputation from shadow state sizes."""
    params = crypt_idea.default_params("tiny")
    det, metrics = detector_of(
        lambda rt: crypt_idea.run_future(rt, params)
    )
    assert det.num_accesses == metrics.num_shared_accesses
    # The kernel's figure equals the reference engine's, recomputed from
    # its shadow memory.
    reference = run_instrumented(
        lambda rt: crypt_idea.run_future(rt, params), detect=True,
        detector_options={"engine": "object"},
    ).detector
    shadow = reference.shadow
    assert shadow.num_accesses == metrics.num_shared_accesses
    assert det.avg_readers == reference.avg_readers == (
        shadow.total_readers_seen / shadow.num_accesses
    )
