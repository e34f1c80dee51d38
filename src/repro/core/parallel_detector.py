"""Schedule-robust online race detection for concurrent runtimes.

The paper's detector (:class:`~repro.core.detector.DeterminacyRaceDetector`)
is proven sound and precise **for the serial depth-first elision**
(Theorem 2): three of its ingredients silently assume that event order —

* interval-label containment answers "spawn-tree ancestor" only when
  terminations arrive in LIFO order relative to spawns;
* the shadow memory's single-plain-async-reader retention (Lemma 4) keeps
  the *leftmost-in-DFS* reader as the representative;
* the vector-clock backend's live-task branch walks spawn-tree ancestry,
  which is only equivalent to happens-before when an ancestor's
  post-spawn accesses cannot yet have happened.

Under a real parallel schedule (``ThreadRuntime``) or a cooperative
non-DFS interleaving (``AsyncioRuntime``) all three break.
:class:`ParallelRaceDetector` therefore checks accesses with the one
PRECEDE representation that is exact under *any* linearization of the
computation graph's happens-before order: future-aware vector clocks at
**access-stamp granularity** (the FastTrack idea specialized to
determinacy races — every access is recorded as the pair
``(task, stamp)`` where ``stamp`` is the task's own clock component at
access time, and a later access by task ``b`` is ordered after it iff
``clock(b)[task] >= stamp``).

Clock algebra (identical to :class:`~repro.core.vc_backend.VectorClockBackend`,
whose serial-only live-task shortcut is exactly what this module replaces):

* spawn: the child inherits a copy of the parent's clock plus its own
  fresh component; the parent then ticks (post-spawn parent work is
  unordered with the child);
* task end: the task's clock is frozen — its final value summarizes
  everything that happened before the task's end;
* ``get`` / finish-end join: the consumer merges the *frozen* producer
  clock component-wise and ticks.

This is also the precise per-task vector-clock detector whose cost the
paper's §1 calls impractical: clock width grows with the number of tasks
ever joined, and every spawn copies the parent's clock.
:attr:`ParallelRaceDetector.total_clock_entries_copied` and
:attr:`ParallelRaceDetector.max_clock_size` measure exactly that
(``benchmarks/bench_vector_clock_scaling.py``).

Why this stays exact concurrently (ALGORITHM.md §15 gives the proof
sketch):

* **Precision** — ``covered(a, s, b)`` compares against stamps, never
  against "is ``a`` still alive", so a report is issued only when the two
  accesses are truly unordered in the graph, regardless of the real-time
  order the schedule produced.
* **Location-level soundness** — the shadow cell keeps the last writer
  and the latest read stamp of *every* reader task since that writer.
  A write retires all of them, but anything it retires is either ordered
  before it (by ``covered``) or has already been reported as a race on
  this location; by transitivity of happens-before, a later access
  parallel to a retired ordered access is also parallel to the retiring
  write still stored in the cell.  Hence the *first* race on each
  location is always caught — and ``racy_locations`` (the quantity the
  brute-force oracle pins, see :mod:`repro.core.races`) is exact.

Thread-safety contract (the runtime side of ALGORITHM.md §15):

* structural hooks (init/spawn/end/get/finish) must be serialized by the
  caller — ``ThreadRuntime`` dispatches them under its exclusive
  structural lock, the serial/asyncio runtimes are single-threaded;
* access hooks (read/write) may run concurrently for different
  locations, but must be serialized *per location* — ``ThreadRuntime``'s
  striped per-cell locks provide that.  An access by task ``t`` reads
  only ``t``'s own live clock (mutated exclusively by the thread running
  ``t``), frozen producer clocks, and immutable stamps in the cell, so
  no structural lock is needed on the access path;
* the race report is shared across cells and guarded by an internal
  lock here.

``mutation_epoch`` counts structural mutations under the same contract
as :mod:`repro.core.backend` ("epoch unchanged ⇒ no structural mutation
happened between the two reads"), which makes the per-cell same-access
fast path below well-defined even mid-schedule.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.events import ExecutionObserver
from repro.core.races import RaceReport, ReportPolicy
from repro.runtime.errors import RaceError

__all__ = ["ParallelRaceDetector"]

class _Cell:
    """Shadow state of one shared location.

    ``writer`` is the last write as ``(tid, stamp)``; ``readers`` maps
    each reader tid to the *latest* stamp it read with since the last
    write (a later stamp covers the earlier ones: the clock component is
    monotone, so ``covered`` on the latest read implies ``covered`` on
    all earlier reads by that task — and an uncovered earlier read would
    report the same ``(loc, pair, kind)`` the dedup collapses anyway).
    """

    __slots__ = ("writer", "readers")

    def __init__(self) -> None:
        self.writer: Optional[Tuple[int, int]] = None
        self.readers: Dict[int, int] = {}


class ParallelRaceDetector(ExecutionObserver):
    """Online determinacy race detector safe under any schedule.

    Plugs into any :class:`~repro.runtime.base.RuntimeBase` — the serial
    elision (where it is an alternative engine, differentially fuzzed
    against the DTRG), ``ThreadRuntime`` (where it is the *only* engine
    whose answers are well-defined) and ``AsyncioRuntime``.

    Parameters
    ----------
    policy:
        :attr:`ReportPolicy.COLLECT` (default) or
        :attr:`ReportPolicy.RAISE` (raise
        :class:`~repro.runtime.errors.RaceError` at the first race — on a
        threaded runtime the error surfaces on the accessing worker and
        propagates out of ``run``).
    dedupe:
        Collapse repeated reports of the same (location, pair, kind).
    """

    #: Stripe fan-out for :attr:`stripe_counts`; matches ThreadRuntime's
    #: striped per-location lock count so the two tallies line up.
    NUM_STRIPES = 64

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
        #: tid -> live vector clock (mutated only by the thread currently
        #: running the task; see the module thread-safety contract).
        self._clocks: Dict[int, Dict[int, int]] = {}
        #: tid -> frozen clock, written once at task end.
        self._final: Dict[int, Dict[int, int]] = {}
        self._names: Dict[int, str] = {}
        self._cells: Dict[Hashable, _Cell] = {}
        #: Guards _cells insertion and the report (cells for *different*
        #: locations are mutated concurrently under the runtime's striped
        #: per-location locks; this lock covers the cross-location shared
        #: pieces only, so it is never contended on the per-cell state).
        self._lock = threading.Lock()
        #: Structural mutation counter (core/backend.py epoch contract).
        self.mutation_epoch = 0
        #: Clock entries copied by spawns plus entries merged by joins —
        #: the §1 scaling metric (structural hooks only, so serialized).
        self.total_clock_entries_copied = 0
        self.num_accesses = 0
        #: Per-stripe access tallies, indexed like ThreadRuntime's
        #: striped per-location locks (``hash(loc) % NUM_STRIPES``) —
        #: live telemetry reads these to show how access traffic spreads
        #: over the lock stripes.  Increments happen while the caller
        #: holds the matching stripe lock, so same-stripe updates never
        #: collide; reads are lock-free and therefore approximate.
        self.stripe_counts = [0] * self.NUM_STRIPES

    # ------------------------------------------------------------------ #
    # Structural hooks (serialized by the runtime)                       #
    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        self._names[main.tid] = main.name
        self._clocks[main.tid] = {main.tid: 1}
        self.mutation_epoch += 1

    def on_task_create(self, parent, child) -> None:
        self._names[child.tid] = child.name
        pclock = self._clocks[parent.tid]
        clock = dict(pclock)
        self.total_clock_entries_copied += len(pclock)
        clock[child.tid] = 1
        self._clocks[child.tid] = clock
        # Parent's post-spawn steps are unordered with the child: tick.
        pclock[parent.tid] += 1
        self.mutation_epoch += 1

    def on_task_end(self, task) -> None:
        # Freeze by copy: the live dict keeps servicing in-flight
        # covered() reads by the owner thread without aliasing the
        # frozen summary that joiners will merge.
        self._final[task.tid] = dict(self._clocks[task.tid])
        self.mutation_epoch += 1

    def on_get(self, consumer, producer) -> None:
        self._join(consumer.tid, producer.tid)

    def on_finish_end(self, scope) -> None:
        owner = scope.owner.tid
        for task in scope.joins:
            self._join(owner, task.tid)

    def _join(self, dst: int, src: int) -> None:
        frozen = self._final.get(src)
        if frozen is None:
            raise RuntimeError(
                f"join of task {src} before its task-end event: the "
                "runtime must dispatch on_task_end before any consumer "
                "observes the join (RuntimeBase ordering contract)"
            )
        clock = self._clocks[dst]
        self.total_clock_entries_copied += len(frozen)
        for tid, stamp in frozen.items():
            if clock.get(tid, 0) < stamp:
                clock[tid] = stamp
        clock[dst] += 1
        self.mutation_epoch += 1

    # ------------------------------------------------------------------ #
    # Access hooks (serialized per location by the runtime)              #
    # ------------------------------------------------------------------ #
    def _cell(self, loc: Hashable) -> _Cell:
        cell = self._cells.get(loc)
        if cell is None:
            # Double-checked under the lock: two tasks touching the same
            # new location race to create its cell; same loc ⇒ same
            # stripe lock in ThreadRuntime, so this is belt-and-braces
            # for callers with weaker per-location serialization.
            with self._lock:
                cell = self._cells.get(loc)
                if cell is None:
                    cell = _Cell()
                    self._cells[loc] = cell
        return cell

    def on_write(self, task, loc: Hashable) -> None:
        tid = task.tid
        clock = self._clocks[tid]
        stamp = clock[tid]
        cell = self._cell(loc)
        self.num_accesses += 1
        self.stripe_counts[hash(loc) % self.NUM_STRIPES] += 1
        w = cell.writer
        if w is not None and w == (tid, stamp) and not cell.readers:
            return  # pure replay of this task's own stored write
        for r_tid, r_stamp in cell.readers.items():
            if r_tid != tid and clock.get(r_tid, 0) < r_stamp:
                self._report_race("read-write", r_tid, tid, loc)
        if w is not None and w[0] != tid and clock.get(w[0], 0) < w[1]:
            self._report_race("write-write", w[0], tid, loc)
        cell.writer = (tid, stamp)
        # Retired readers are either ordered before this write (covered)
        # or already reported; either way the stored writer now witnesses
        # every future conflict they could have witnessed (hb transitivity
        # — see the module docstring soundness argument).
        if cell.readers:
            cell.readers = {}

    def on_read(self, task, loc: Hashable) -> None:
        tid = task.tid
        clock = self._clocks[tid]
        stamp = clock[tid]
        cell = self._cell(loc)
        self.num_accesses += 1
        self.stripe_counts[hash(loc) % self.NUM_STRIPES] += 1
        w = cell.writer
        if w is not None and w[0] != tid and clock.get(w[0], 0) < w[1]:
            self._report_race("write-read", w[0], tid, loc)
        prev = cell.readers.get(tid, 0)
        if stamp > prev:
            cell.readers[tid] = stamp

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    def precede(self, a_tid: int, b_tid: int) -> bool:
        """Task-granularity PRECEDE (end of ``a`` before current step of
        ``b``) — exposed for tests; requires ``a`` to have ended."""
        if a_tid == b_tid:
            return True
        frozen = self._final.get(a_tid)
        if frozen is None:
            raise RuntimeError(
                f"precede({a_tid}, {b_tid}) while {a_tid} is live: "
                "task-granularity queries are only defined for ended "
                "tasks under a parallel schedule"
            )
        return self._clocks[b_tid].get(a_tid, 0) >= frozen[a_tid]

    @property
    def max_clock_size(self) -> int:
        """Widest vector clock materialized — the §1 memory-growth
        metric.  Iterates the clock table, so read it after ``run``."""
        return max(map(len, self._clocks.values()), default=0)

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    @property
    def perf_stats(self) -> dict:
        return {
            "mutation_epoch": self.mutation_epoch,
            "num_accesses": self.num_accesses,
            "num_locations": len(self._cells),
            "num_tasks": len(self._clocks),
        }

    # ------------------------------------------------------------------ #
    def _report_race(self, kind: str, prev: int, cur: int, loc) -> None:
        prev_name = self._names.get(prev, "")
        current_name = self._names.get(cur, "")
        with self._lock:
            race = self.report.record(loc, kind, prev, cur, prev_name,
                                      current_name)
        if race is not None and self.policy is ReportPolicy.RAISE:
            raise RaceError(race)
