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

Both arguments hold for the accesses checked in *any* linear extension
of happens-before, which is what lets the checks run late, per segment
(ALGORITHM.md §15.1):

* ``on_read``/``on_write`` only append the location and the kind, as
  two flat items, to the running task's own buffer.  A task runs on one
  thread at a time, so the append takes no lock.
* A *segment* is the run of a task's accesses between two of its
  structural events; the task's stamp does not change inside one.  The
  task's next structural hook checks the whole buffer in one pass, with
  the clock and stamp read once, before it ticks or freezes the clock:
  ``on_task_create`` checks the parent's, ``on_get`` the consumer's,
  ``on_finish_end`` the owner's and ``on_task_end`` the task's own.
  Every edge out of a segment leaves through that hook, so a segment is
  checked before any access ordered after it, and the check order is a
  linear extension of happens-before.  On the serial ``Runtime`` it is
  the access order, so reports are byte-identical to checking each
  access as it happens.
* A buffer holding :data:`~repro.core.detector.RESUME_ENTRIES` items is
  checked early, so memory stays bounded.  Under ``RAISE`` the bound is
  1: every access is checked at the access, on the accessing thread, and
  no structural hook ever raises.
* ``report``, ``races``, ``racy_locations``, ``perf_stats`` and
  :meth:`ParallelRaceDetector.flush` first check every pending buffer,
  so a hand-driven detector or an aborted run still reports its tail.

Thread-safety contract (the runtime side of ALGORITHM.md §15):

* a task's hooks run on the thread running that task, in program order
  (a task is never on two threads at once);
* access hooks take no lock: each touches only its own task's buffer;
* every check and every structural mutation runs under the detector's
  own lock, so checks by different threads, a structural hook and a
  query from another thread (the live sampler) never interleave.  A
  check consumes a prefix of a buffer (``del buf[:n]``), so a query may
  check another task's buffer while that task keeps appending to it.

``mutation_epoch`` counts structural mutations under the same contract
as :mod:`repro.core.backend` ("epoch unchanged ⇒ no structural mutation
happened between the two reads").
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.detector import RESUME_ENTRIES
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
    ``hits`` counts the accesses checked against the cell.
    """

    __slots__ = ("writer", "readers", "hits")

    def __init__(self) -> None:
        self.writer: Optional[Tuple[int, int]] = None
        self.readers: Dict[int, int] = {}
        self.hits = 0


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
        :class:`~repro.runtime.errors.RaceError` at the first race, at
        the racing access — on a threaded runtime the error surfaces on
        the accessing worker and propagates out of ``run``).
    dedupe:
        Collapse repeated reports of the same (location, pair, kind).
    """

    #: Location-hash buckets of :attr:`stripe_counts`.
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
        self._report = RaceReport(dedupe=dedupe)
        #: tid -> live vector clock (mutated only by the task's own
        #: structural hooks, under ``_lock``).
        self._clocks: Dict[int, Dict[int, int]] = {}
        #: tid -> frozen clock, written once at task end.
        self._final: Dict[int, Dict[int, int]] = {}
        self._names: Dict[int, str] = {}
        self._cells: Dict[Hashable, _Cell] = {}
        #: tid -> the unchecked accesses of a task that has not ended, as
        #: flat ``loc, is_write`` pairs (appended only by the task itself).
        self._buffers: Dict[int, list] = {}
        #: Buffer length at which an access hook checks its buffer.
        self._limit = 1 if policy is ReportPolicy.RAISE else RESUME_ENTRIES
        #: Serializes the checks, the structural mutations and the report.
        self._lock = threading.Lock()
        #: Structural mutation counter (core/backend.py epoch contract).
        self.mutation_epoch = 0
        #: Clock entries copied by spawns plus entries merged by joins —
        #: the §1 scaling metric.
        self.total_clock_entries_copied = 0
        #: Accesses checked so far.
        self.num_accesses = 0

    # ------------------------------------------------------------------ #
    # Structural hooks: check the task's segment, then change its clock  #
    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        with self._lock:
            self._names[main.tid] = main.name
            self._clocks[main.tid] = {main.tid: 1}
            self._buffers[main.tid] = []
            self.mutation_epoch += 1

    def on_task_create(self, parent, child) -> None:
        with self._lock:
            self._check(parent.tid)
            self._names[child.tid] = child.name
            pclock = self._clocks[parent.tid]
            clock = dict(pclock)
            self.total_clock_entries_copied += len(pclock)
            clock[child.tid] = 1
            self._clocks[child.tid] = clock
            self._buffers[child.tid] = []
            # Parent's post-spawn steps are unordered with the child: tick.
            pclock[parent.tid] += 1
            self.mutation_epoch += 1

    def on_task_end(self, task) -> None:
        with self._lock:
            self._check(task.tid)
            del self._buffers[task.tid]
            # Freeze by copy: joiners merge the summary, never the live
            # dict.
            self._final[task.tid] = dict(self._clocks[task.tid])
            self.mutation_epoch += 1

    def on_get(self, consumer, producer) -> None:
        with self._lock:
            self._check(consumer.tid)
            self._join(consumer.tid, producer.tid)

    def on_finish_end(self, scope) -> None:
        owner = scope.owner.tid
        with self._lock:
            self._check(owner)
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
    # Access hooks: append to the running task's buffer, no lock         #
    # ------------------------------------------------------------------ #
    def on_read(self, task, loc: Hashable) -> None:
        buf = self._buffers[task.tid]
        buf.append(loc)
        buf.append(False)
        if len(buf) >= self._limit:
            with self._lock:
                self._check(task.tid)

    def on_write(self, task, loc: Hashable) -> None:
        buf = self._buffers[task.tid]
        buf.append(loc)
        buf.append(True)
        if len(buf) >= self._limit:
            with self._lock:
                self._check(task.tid)

    # ------------------------------------------------------------------ #
    # The check (caller holds _lock)                                     #
    # ------------------------------------------------------------------ #
    def _check(self, tid: int) -> None:
        """Check the accesses buffered for ``tid`` against the cells,
        with ``tid``'s current clock.  Consumes only the whole pairs
        present now: when the caller is a query on another thread, the
        task's own thread may append behind them meanwhile, and may
        have appended a location but not yet its kind."""
        buf = self._buffers[tid]
        n = len(buf) & -2
        if not n:
            return
        batch = buf[:n]
        del buf[:n]
        self.num_accesses += n >> 1
        clock = self._clocks[tid]
        clock_at = clock.get
        stamp = clock[tid]
        me = (tid, stamp)
        cells = self._cells
        it = iter(batch)
        for loc, is_write in zip(it, it):
            cell = cells.get(loc)
            if cell is None:
                cell = cells[loc] = _Cell()
            cell.hits += 1
            w = cell.writer
            if is_write:
                readers = cell.readers
                if w == me and not readers:
                    continue  # pure replay of this task's own stored write
                for r_tid, r_stamp in readers.items():
                    if r_tid != tid and clock_at(r_tid, 0) < r_stamp:
                        self._report_race("read-write", r_tid, tid, loc)
                if w is not None and w[0] != tid and clock_at(w[0], 0) < w[1]:
                    self._report_race("write-write", w[0], tid, loc)
                cell.writer = me
                # Retired readers are either ordered before this write
                # (covered) or already reported; either way the stored
                # writer now witnesses every future conflict they could
                # have witnessed (hb transitivity — see the module
                # docstring soundness argument).
                if readers:
                    cell.readers = {}
            else:
                if w is not None and w[0] != tid and clock_at(w[0], 0) < w[1]:
                    self._report_race("write-read", w[0], tid, loc)
                readers = cell.readers
                if readers.get(tid, 0) < stamp:
                    readers[tid] = stamp

    def _report_race(self, kind: str, prev: int, cur: int, loc) -> None:
        race = self._report.record(loc, kind, prev, cur,
                                   self._names.get(prev, ""),
                                   self._names.get(cur, ""))
        if race is not None and self.policy is ReportPolicy.RAISE:
            raise RaceError(race)

    def flush(self) -> None:
        """Check every buffered access now.  Safe from any thread, also
        while tasks run; a no-op under ``RAISE``, which checks every
        access at the access."""
        if self._limit == 1:
            return
        with self._lock:
            for tid in list(self._buffers):
                self._check(tid)

    # ------------------------------------------------------------------ #
    # Queries (each checks the pending buffers first)                    #
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
    def report(self) -> RaceReport:
        """The accumulated :class:`~repro.core.races.RaceReport`."""
        self.flush()
        return self._report

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    @property
    def perf_stats(self) -> dict:
        self.flush()
        return {
            "mutation_epoch": self.mutation_epoch,
            "num_accesses": self.num_accesses,
            "num_locations": len(self._cells),
            "num_tasks": len(self._clocks),
        }

    @property
    def stripe_counts(self) -> List[int]:
        """Checked accesses per location-hash bucket
        (``hash(loc) % NUM_STRIPES``): how access traffic spreads over
        the locations."""
        self.flush()
        counts = [0] * self.NUM_STRIPES
        with self._lock:
            cells = list(self._cells.items())
        for loc, cell in cells:
            counts[hash(loc) % self.NUM_STRIPES] += cell.hits
        return counts
