"""Exact timestamped race detection — beyond the paper's scope assumption.

DESIGN.md deviation #4 documents a genuine boundary of the paper's
algorithm: its task-granularity structures (and its precision proof) assume
future handles flow only through the language — spawn arguments, future
values, or race-checked shared memory.  Joins conjured through channels the
model cannot express (our generator's "wild" mode) admit both false
positives and false negatives at task granularity, because a task's
*prefix* before a future spawn can be ordered with a consumer while its
*suffix* is not, and vice versa.

This module removes the assumption.  The key observation: at task
granularity the computation graph has only three kinds of in-edges into a
task's steps —

1. the task's own earlier steps (program order),
2. join edges into the task, each landing at a known *time*,
3. the spawn edge from the parent into the task's first step.

So "does the access A made at time ``a`` precede the current step?" is
answerable by a **backward search over (task, time-bound) states**:

    state (X, t) ⇒ every step of X executed before time t reaches the
                   current step.

    start:   (current task, ∞)
    expand:  every join into X recorded at τ < t   → (source, ∞)
             the spawn edge                        → (parent(X), spawn_time(X))
    answer:  reachable state (T, t) with a < t     → True

States are memoized by their maximal bound, so each task expands at most
once per distinct bound (bounds are ∞ or a child's spawn time ⇒ O(joins +
ancestors) per query).  Soundness and completeness need no reference-flow
assumption at all — the timestamps carry exactly the prefix information the
paper's interval/merge machinery approximates.

The cost is real: no union-find collapsing, no O(1) containment fast path —
``bench_detector_comparison.py`` measures the gap, which is this module's
second purpose: quantifying what the paper's discipline assumption buys.

:class:`ExactDetector` reuses the reference engine's plain shadow memory
(Algorithms 8-9, :class:`~repro.core.shadow.ShadowMemory`) with
``(task, access_time)`` composite keys, so the two detectors differ
*only* in the reachability primitive.  Every key is distinct, and
``precede`` is reflexive on a key, as the shadow memory requires.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.events import ExecutionObserver
from repro.core.races import AccessKind, Race, RaceReport, ReportPolicy
from repro.core.shadow import ShadowMemory
from repro.runtime.errors import RaceError

__all__ = ["ExactTaskReachability", "ExactDetector"]

_INF = float("inf")


class ExactTaskReachability:
    """Timestamped task-level reachability with prefix bounds."""

    def __init__(self) -> None:
        self._time = 0
        self._parent: Dict[int, Optional[int]] = {}
        self._spawn_time: Dict[int, int] = {}
        self._is_future: Dict[int, bool] = {}
        #: joins INTO each task: list of (time, source tid)
        self._joins_in: Dict[int, List[Tuple[int, int]]] = {}
        self.num_queries = 0
        self.num_expansions = 0

    # ------------------------------------------------------------------ #
    # Construction (driven by the observer)                              #
    # ------------------------------------------------------------------ #
    def tick(self) -> int:
        """Advance and return the global event clock."""
        self._time += 1
        return self._time

    def add_task(
        self, tid: int, parent: Optional[int], is_future: bool
    ) -> None:
        self._parent[tid] = parent
        self._spawn_time[tid] = self.tick()
        self._is_future[tid] = is_future
        self._joins_in[tid] = []

    def record_join(self, consumer: int, producer: int) -> None:
        """A join edge from ``producer``'s end into ``consumer`` now."""
        self._joins_in[consumer].append((self.tick(), producer))

    def is_future(self, tid: int) -> bool:
        return self._is_future[tid]

    # ------------------------------------------------------------------ #
    # The query                                                          #
    # ------------------------------------------------------------------ #
    def access_precedes(
        self, prev_tid: int, prev_time: int, cur_tid: int
    ) -> bool:
        """Does the access performed by ``prev_tid`` at ``prev_time``
        precede the *current* step of ``cur_tid`` (executing now)?"""
        self.num_queries += 1
        if prev_tid == cur_tid:
            return True  # program order
        best: Dict[int, float] = {}
        stack: List[Tuple[int, float]] = [(cur_tid, _INF)]
        joins_in = self._joins_in
        parent = self._parent
        spawn_time = self._spawn_time
        while stack:
            x, t = stack.pop()
            seen = best.get(x)
            if seen is not None and seen >= t:
                continue
            best[x] = t
            self.num_expansions += 1
            if x == prev_tid and prev_time < t:
                return True
            for tau, src in joins_in[x]:
                if tau < t:
                    stack.append((src, _INF))
            p = parent[x]
            if p is not None:
                stack.append((p, spawn_time[x]))
        return False


class ExactDetector(ExecutionObserver):
    """Determinacy race detector exact under arbitrary handle flows.

    Same observer surface and shadow policies as
    :class:`~repro.core.detector.DeterminacyRaceDetector`; only the
    reachability primitive differs.  Shadow entries are
    ``(tid, access_time)`` pairs so each access carries its position within
    its task — the refinement the task-level DTRG cannot express.
    """

    def __init__(
        self,
        policy: ReportPolicy | str = ReportPolicy.COLLECT,
        *,
        dedupe: bool = True,
    ) -> None:
        if isinstance(policy, str):
            policy = ReportPolicy(policy)
        self.policy = policy
        self.report = RaceReport(dedupe=dedupe)
        self.reach = ExactTaskReachability()
        # Lemma 4's single-async-reader optimization needs care: any
        # retained reader that a later get() can order away fails to
        # witness races for the readers it displaced.  That happens under
        # wild flow (a wild get() of a future spawned *inside* an async A
        # orders A's prefix with the getter — shrunk counterexample in
        # tests/core/test_exact.py), and even under scoped flow when the
        # retained reader is future-covered (inside a future's spawn
        # subtree — tests/corpus/dtrg_future_covered_reader.json).  The
        # DTRG detector compensates with its future-covered predicate;
        # the exact detector simply retains every parallel reader.
        self.shadow = ShadowMemory(
            precede=self._precede_keys,
            is_future=lambda key: True,
            report=self._report_race,
        )
        self._names: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        self._names[main.tid] = main.name
        self.reach.add_task(main.tid, parent=None, is_future=False)

    def on_task_create(self, parent, child) -> None:
        self._names[child.tid] = child.name
        self.reach.add_task(child.tid, parent.tid, child.is_future)

    def on_get(self, consumer, producer) -> None:
        self.reach.record_join(consumer.tid, producer.tid)

    def on_finish_end(self, scope) -> None:
        owner = scope.owner.tid
        for task in scope.joins:
            self.reach.record_join(owner, task.tid)

    def on_read(self, task, loc: Hashable) -> None:
        self.shadow.read((task.tid, self.reach.tick()), loc)

    def on_write(self, task, loc: Hashable) -> None:
        self.shadow.write((task.tid, self.reach.tick()), loc)

    # ------------------------------------------------------------------ #
    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    def _precede_keys(self, prev_key, cur_key) -> bool:
        # cur_key is the key of the access being checked right now, so its
        # task is the currently executing task.
        return self.reach.access_precedes(
            prev_key[0], prev_key[1], cur_key[0]
        )

    def _report_race(self, kind: str, prev_key, cur_key, loc) -> None:
        race = Race(
            loc=loc,
            kind=AccessKind(kind),
            prev_task=prev_key[0],
            current_task=cur_key[0],
            prev_name=self._names.get(prev_key[0], ""),
            current_name=self._names.get(cur_key[0], ""),
        )
        if self.report.add(race) and self.policy is ReportPolicy.RAISE:
            raise RaceError(race)
