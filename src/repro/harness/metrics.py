"""Structural counters for the Table 2 columns.

Table 2 reports, per benchmark:

* ``#Tasks``      — dynamic tasks created (main excluded, as in the paper's
  999,999 for Series which counts only the spawned tasks);
* ``#NTJoins``    — "the subset of future get() operations that are
  non-tree-joins", classified by the *definition* (Section 3): a join from
  B to A is a tree join iff A is a spawn-tree ancestor of B;
* ``#SharedMem``  — total instrumented shared-memory accesses;
* ``#AvgReaders`` — mean shadow reader-set size at access time (this one
  comes from the detector, because only it has shadow state; the harness
  merges it in).

:class:`MetricsCollector` is a passive observer — attaching it to a run
without a detector measures the workload's structure at (near) zero cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.events import ExecutionObserver

__all__ = ["DetectorPerf", "Metrics", "MetricsCollector"]


@dataclass
class Metrics:
    """Immutable snapshot of the structural counters."""

    num_tasks: int = 0          #: spawned tasks (main excluded)
    num_future_tasks: int = 0
    num_async_tasks: int = 0
    num_gets: int = 0
    num_nt_joins: int = 0       #: gets whose consumer is not an ancestor
    num_reads: int = 0
    num_writes: int = 0
    num_finish_scopes: int = 0  #: explicit scopes (root excluded)
    max_live_depth: int = 0

    @property
    def num_shared_accesses(self) -> int:
        return self.num_reads + self.num_writes

    @property
    def num_events(self) -> int:
        """Total instrumented events: accesses plus the structure stream
        (create + end per spawned task, one get per join, start + end per
        explicit finish scope) — the same count a trace recorder captures."""
        return (
            self.num_shared_accesses
            + 2 * self.num_tasks
            + self.num_gets
            + 2 * self.num_finish_scopes
        )

    def as_row(self) -> Dict[str, int]:
        return {
            "#Tasks": self.num_tasks,
            "#NTJoins": self.num_nt_joins,
            "#SharedMem": self.num_shared_accesses,
        }


@dataclass
class DetectorPerf:
    """Snapshot of the detector's fast-path counters.

    These are *performance* observability (PRECEDE queries, DTRG mutation
    epochs, shadow fast-path savings), kept separate from the structural
    :class:`Metrics` so the Table 2 columns stay comparable to the paper
    while the report can print them alongside ``#AvgReaders``.  The
    ``cache_*`` fields mirror ``perf_stats`` and are 0: no engine keeps a
    public PRECEDE cache.
    """

    precede_queries: int = 0    #: PRECEDE calls issued by the shadow checks
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    cache_hit_rate: float = 0.0
    epoch_bumps: int = 0        #: DTRG mutations observed (epoch counter)
    shadow_fast_hits: int = 0   #: accesses short-circuited before PRECEDE
    precede_calls_saved: int = 0

    @classmethod
    def from_detector(cls, detector) -> "DetectorPerf":
        """Build from a :class:`~repro.core.detector.DeterminacyRaceDetector`
        (``None`` yields all-zero counters).

        Missing stats default to zero: subclasses and duck-typed
        stand-ins in the fuzz harness may omit counters from
        ``perf_stats``; indexing them directly raised ``KeyError`` and
        took the whole Table-2 report down with it.
        """
        if detector is None:
            return cls()
        stats = detector.perf_stats
        return cls(
            precede_queries=stats.get("precede_queries", 0),
            cache_hits=stats.get("cache_hits", 0),
            cache_misses=stats.get("cache_misses", 0),
            cache_invalidations=stats.get("cache_invalidations", 0),
            cache_hit_rate=stats.get("cache_hit_rate", 0.0),
            epoch_bumps=stats.get("mutation_epoch", 0),
            shadow_fast_hits=stats.get("shadow_fast_hits", 0),
            precede_calls_saved=stats.get("precede_calls_saved", 0),
        )

    def as_row(self) -> Dict[str, object]:
        """Columns the Table-2 report appends next to ``#AvgReaders``."""
        return {
            "#PrecedeQ": self.precede_queries,
            "#QSaved": self.precede_calls_saved,
        }


class MetricsCollector(ExecutionObserver):
    """Counts tasks, joins (tree vs non-tree), and shared accesses."""

    def __init__(self) -> None:
        self.num_tasks = 0
        self.num_future_tasks = 0
        self.num_async_tasks = 0
        self.num_gets = 0
        self.num_nt_joins = 0
        self.num_reads = 0
        self.num_writes = 0
        self.num_finish_scopes = 0
        self.max_live_depth = 0
        # parent map for the ancestor test (tid -> parent tid)
        self._parent: Dict[int, Optional[int]] = {}
        # memoized spawn-tree depth (tid -> depth; main is 0).  Computed
        # incrementally — walking the whole parent chain per spawn made
        # on_task_create O(depth), i.e. quadratic over a deep spawn chain
        # (Sort's depth-999 recursion spent more time here than in the
        # detector; see tests/integration/test_harness_metrics.py's
        # walk-bound test at depth 10,000).
        self._depth: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        self._parent[main.tid] = None
        self._depth[main.tid] = 0

    def on_task_create(self, parent, child) -> None:
        self.num_tasks += 1
        if child.is_future:
            self.num_future_tasks += 1
        else:
            self.num_async_tasks += 1
        self._parent[child.tid] = parent.tid
        # Depth comes from our own maps so replayed stand-in tasks (which
        # carry no depth attribute) work too; the parent's depth is already
        # memoized, so this is O(1) per spawn.
        depth = self._depth.get(parent.tid, 0) + 1
        self._depth[child.tid] = depth
        if depth > self.max_live_depth:
            self.max_live_depth = depth

    def on_get(self, consumer, producer) -> None:
        self.num_gets += 1
        if not self._is_ancestor(consumer.tid, producer.tid):
            self.num_nt_joins += 1

    def on_finish_start(self, scope) -> None:
        if scope.enclosing is not None:
            self.num_finish_scopes += 1

    def on_read(self, task, loc) -> None:
        self.num_reads += 1

    def on_write(self, task, loc) -> None:
        self.num_writes += 1

    # ------------------------------------------------------------------ #
    def _is_ancestor(self, a: int, b: int) -> bool:
        """Is ``a`` a spawn-tree ancestor of ``b``?

        The memoized depths bound the walk: lift ``b`` exactly
        ``depth(b) - depth(a)`` levels and compare — never the full chain.
        """
        da = self._depth.get(a)
        db = self._depth.get(b)
        if da is None or db is None or db <= da:
            return False
        node: Optional[int] = b
        for _ in range(db - da):
            node = self._parent.get(node)
        return node == a

    def snapshot(self) -> Metrics:
        """Freeze the counters into a :class:`Metrics` value."""
        return Metrics(
            num_tasks=self.num_tasks,
            num_future_tasks=self.num_future_tasks,
            num_async_tasks=self.num_async_tasks,
            num_gets=self.num_gets,
            num_nt_joins=self.num_nt_joins,
            num_reads=self.num_reads,
            num_writes=self.num_writes,
            num_finish_scopes=self.num_finish_scopes,
            max_live_depth=self.max_live_depth,
        )
