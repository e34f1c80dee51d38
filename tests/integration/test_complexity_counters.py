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

from repro.core.array_dtrg import ArrayDTRG
from repro.core.events import ExecutionObserver
from repro.core.shadow import ShadowMemory
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
    the bookkeeping against a recomputation from shadow state sizes."""
    params = crypt_idea.default_params("tiny")
    det, metrics = detector_of(
        lambda rt: crypt_idea.run_future(rt, params)
    )
    assert det.num_accesses == metrics.num_shared_accesses
    # The kernel's figure equals the plain Algorithms 8/9's, recomputed
    # from a ShadowMemory over the DTRG's key layer.
    plain = _PlainShadow()
    run_instrumented(lambda rt: crypt_idea.run_future(rt, params),
                     detect=False, extra_observers=(plain,))
    shadow = plain.shadow
    assert shadow.num_accesses == metrics.num_shared_accesses
    assert det.avg_readers == (
        shadow.total_readers_seen / shadow.num_accesses
    )


class _PlainShadow(ExecutionObserver):
    """The plain Algorithms 8/9 (``ShadowMemory``, one PRECEDE call per
    stored reader and writer) over an ``ArrayDTRG`` driven by key."""

    def __init__(self):
        self.dtrg = ArrayDTRG()
        #: tid -> future-covered (a future or inside one's spawn subtree).
        self.covered = {}
        self.shadow = ShadowMemory(precede=self.dtrg.precede,
                                   is_future=self.covered.__getitem__,
                                   report=lambda *race: None)

    def on_init(self, main):
        self.covered[main.tid] = False
        self.dtrg.add_root(main.tid)

    def on_task_create(self, parent, child):
        self.covered[child.tid] = (child.is_future
                                   or self.covered[parent.tid])
        self.dtrg.add_task(parent.tid, child.tid, is_future=child.is_future)

    def on_task_end(self, task):
        self.dtrg.on_terminate(task.tid)

    def on_get(self, consumer, producer):
        self.dtrg.record_join(consumer.tid, producer.tid)

    def on_finish_end(self, scope):
        for task in scope.joins:
            self.dtrg.merge(scope.owner.tid, task.tid)

    def on_read(self, task, loc):
        self.shadow.read(task.tid, loc)

    def on_write(self, task, loc):
        self.shadow.write(task.tid, loc)
