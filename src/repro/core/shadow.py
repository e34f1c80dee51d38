"""Shadow memory — Section 4.2 and Algorithms 8-9.

For every shared location ``M`` the detector keeps a shadow cell ``M_s``:

* ``w`` — the task that last wrote ``M`` (``None`` until the first write);
* ``r`` — tasks that read ``M`` in parallel since the last write.  The set
  holds **at most one plain async task** but arbitrarily many
  *future-covered* tasks: Lemma 4's pseudo-transitivity
  (``s1 ∥ s2 ∧ s2 ∥ s3 ⇒ s1 ∥ s3``) holds only among tasks whose ends
  cannot be awaited through a ``get`` edge, so a single "leftmost parallel
  reader" representative suffices for those, while every parallel
  future-covered reader must be retained.

  *Future-covered* means the task is a future **or is a spawn-tree
  descendant of one**: a read inside a finish in a future's body is
  summarized by the future's end, so a later ``get`` orders it with the
  consumer while a parallel plain-async reader stays unordered — dropping
  that reader would silently miss the race (found by differential fuzzing
  under fully scoped handle flow; regression
  ``tests/corpus/dtrg_future_covered_reader.json``).  The ``is_future``
  callback below must therefore answer True for every future-covered
  task, not just for future tasks.

The *average* shadow reader-set population is the paper's ``#AvgReaders``
column in Table 2 (0..1 for async-finish programs, unbounded with futures);
:class:`ShadowMemory` maintains the running average exactly as described:
"the average number of past parallel readers per location stored in the
shadow memory when a read/write access is performed on that location …
computed across all accesses and all locations."

Deviation from the printed pseudocode (see DESIGN.md §3): Algorithm 9 as
printed never records the *first* reader of a location (the ``update`` flag
stays false when ``r`` is empty), which would let a later parallel write slip
through undetected; we treat an empty reader set as "record the reader".

Fast paths (perf layer; ``docs/ALGORITHM.md`` §"Precede caching")
-----------------------------------------------------------------
Access-dominated workloads repeat accesses by the same task on the same
cell; the checks below skip the ``PRECEDE`` loops when the outcome is
forced, while keeping the ``#AvgReaders`` accounting and the cell-state
evolution *bit-identical* to the plain algorithms:

* **structural** — a write to a cell whose writer is already the current
  task (or unwritten) with no stored readers, and a read of a cell whose
  only reader is the current task and whose writer is the current task (or
  none), are algebraic no-ops of Algorithms 8-9: every ``precede`` call
  they would issue is the reflexive ``precede(t, t)``.  These need no
  extra state and rely only on ``precede`` being reflexive.
* **epoch-memoized reads** — after a read by task ``t`` completes with no
  race reported, the cell memoizes ``(t, mutation_epoch)``.  A later read
  by ``t`` with the memo still valid is a *pure replay*: the cell state is
  unchanged (any other access overwrites or clears the memo) and the DTRG
  is frozen (``PRECEDE`` is a pure function of DTRG state), so the reader
  loop would retire nobody new, the writer check would pass again, and the
  only list mutation — retiring and re-appending ``t`` itself — is order
  preserving because a clean read always leaves ``t`` last (or absent)
  in the reader list.  Keyed on the ``epoch`` supplier (the DTRG's
  mutation counter).

The reader *list* keeps the paper's ordering semantics; a parallel
``reader_ids`` set makes the ``task not in r`` membership test O(1) for
cells with large future-reader populations.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

__all__ = ["ShadowCell", "ShadowMemory"]


class ShadowCell:
    """Shadow state of one shared memory location."""

    __slots__ = ("writer", "readers", "reader_ids", "fast_reader",
                 "fast_epoch")

    def __init__(self) -> None:
        self.writer: Optional[int] = None
        self.readers: List[int] = []
        #: Mirror of ``readers`` for O(1) membership (list keeps ordering).
        self.reader_ids: Set[int] = set()
        #: Task of the last race-free read check, or None (see module doc).
        self.fast_reader: Optional[int] = None
        #: DTRG mutation epoch at which ``fast_reader`` was recorded.
        self.fast_epoch: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowCell(w={self.writer}, r={self.readers})"


class ShadowMemory:
    """All shadow cells plus the Algorithm 8/9 access checks.

    Parameters
    ----------
    precede:
        ``precede(prev_tid, cur_tid) -> bool`` — the DTRG query.  Must be
        reflexive (``precede(t, t)`` is True); the structural fast paths
        depend on it.
    is_future:
        ``is_future(tid) -> bool`` — the paper's ``IsFuture``, strengthened:
        must answer True for every task whose recorded access can become
        ordered with a later access via a ``get`` edge (future tasks *and*
        their spawn-tree descendants — see the module docstring).  Answering
        True too often only stores extra readers (precision is unaffected;
        each report is still confirmed by ``precede``); answering False for
        a future-covered task loses soundness.
    report:
        ``report(kind, prev_tid, cur_tid, loc)`` — race sink, called for each
        conflicting pair found.
    epoch:
        ``() -> int`` returning the DTRG mutation epoch
        (:attr:`DynamicTaskReachabilityGraph.mutation_epoch`), the key of
        the same-task read memo.
    """

    def __init__(
        self,
        precede: Callable[[int, int], bool],
        is_future: Callable[[int], bool],
        report: Callable[[str, int, int, Hashable], None],
        epoch: Callable[[], int],
    ) -> None:
        self._cells: Dict[Hashable, ShadowCell] = {}
        self._precede = precede
        self._is_future = is_future
        self._report = report
        self._epoch = epoch
        # #AvgReaders bookkeeping: readers stored at the moment of access,
        # summed over all accesses.
        self.num_accesses = 0
        self.total_readers_seen = 0
        # Fast-path observability (harness report / benchmarks).
        self.num_fast_read_hits = 0
        self.num_fast_write_hits = 0
        #: PRECEDE calls the fast paths skipped that the plain Algorithms
        #: 8-9 would have issued.
        self.num_precede_calls_saved = 0
        # Observability hook (installed by attach_observability; the
        # default path carries no instrumentation at all).
        self._obs = None

    # ------------------------------------------------------------------ #
    # Observability (repro.obs)                                          #
    # ------------------------------------------------------------------ #
    def attach_observability(self, obs) -> None:
        """Install per-access tracing/metrics instrumentation.

        Null-object protocol: ``None`` or a disabled observability object
        is ignored and the default (uninstrumented) :meth:`read`/
        :meth:`write` stay in place.  When enabled, the two access checks
        are shadowed by traced twins reporting each check's kind, stored
        reader population and wall time to ``obs`` (the population feeds
        the ``cell_readers`` histogram behind Table 2's ``#AvgReaders``).

        Attachment is construction-time wiring, not something to flip
        mid-run: the hooks install by rebinding :meth:`read`/:meth:`write`
        as instance attributes, which a concurrently executing runtime
        (``ThreadRuntime``) could observe half-applied — and even serially
        the pre-attachment accesses would be missing from the trace.  Once
        any access has been checked (or any cell exists), attaching raises
        :class:`~repro.runtime.errors.RuntimeStateError`.
        """
        if obs is None or not getattr(obs, "enabled", False):
            return
        if self._cells or self.num_accesses:
            from repro.runtime.errors import RuntimeStateError

            raise RuntimeStateError(
                "attach_observability after accesses were checked: attach "
                "hooks at construction time, before the shadow memory "
                "observes any access (rebinding the access checks "
                "mid-flight is unsafe under a concurrent runtime and would "
                "leave earlier accesses uninstrumented)"
            )
        self._obs = obs
        self.read = self._traced_read
        self.write = self._traced_write

    def _traced_read(self, task: int, loc: Hashable) -> None:
        from time import perf_counter_ns

        readers0 = self.total_readers_seen
        start = perf_counter_ns()
        ShadowMemory.read(self, task, loc)
        dur = perf_counter_ns() - start
        # The plain check adds the stored population to the running total
        # exactly once per access, so the delta is the population it saw.
        self._obs.on_shadow_access(
            "read", task, loc, self.total_readers_seen - readers0, dur
        )

    def _traced_write(self, task: int, loc: Hashable) -> None:
        from time import perf_counter_ns

        readers0 = self.total_readers_seen
        start = perf_counter_ns()
        ShadowMemory.write(self, task, loc)
        dur = perf_counter_ns() - start
        self._obs.on_shadow_access(
            "write", task, loc, self.total_readers_seen - readers0, dur
        )

    # ------------------------------------------------------------------ #
    def cell(self, loc: Hashable) -> ShadowCell:
        """The shadow cell for ``loc``, created on first touch."""
        cell = self._cells.get(loc)
        if cell is None:
            cell = ShadowCell()
            self._cells[loc] = cell
        return cell

    def write(self, task: int, loc: Hashable) -> None:
        """Algorithm 8 — write check.

        Every stored reader and the stored writer must precede the writing
        task; offenders are reported.  Readers that do precede are retired
        (the new write supersedes them); the writer shadow becomes the
        current task.
        """
        cell = self.cell(loc)
        self.num_accesses += 1
        readers = cell.readers
        self.total_readers_seen += len(readers)
        w = cell.writer
        if not readers and (w is None or w == task):
            # Structural fast path: the reader loop is empty and the writer
            # check is skipped (w is None) or reflexive (w == task), so
            # Algorithm 8 degenerates to installing the writer.
            self.num_fast_write_hits += 1
            cell.fast_reader = None
            cell.writer = task
            return
        precede = self._precede
        cell.fast_reader = None  # cell state changes: read memo is stale
        # Batch: each distinct tid (reader or writer) queried at most once
        # per access.  Reader tids are unique by construction, so this
        # mainly spares the writer check when the writer also read.
        verdicts: Optional[Dict[int, bool]] = {} if readers else None
        if readers:
            # Lazily copy: the common case retires or keeps everything
            # without rebuilding the list.
            surviving: Optional[List[int]] = None
            for i, x in enumerate(readers):
                v = verdicts.get(x)
                if v is None:
                    v = precede(x, task)
                    verdicts[x] = v
                if v:
                    if surviving is None:
                        surviving = readers[:i]
                    continue  # retired: happens-before the write
                self._report("read-write", x, task, loc)
                if surviving is not None:
                    surviving.append(x)  # the paper keeps racy readers
            if surviving is not None:
                cell.readers = surviving
                cell.reader_ids = set(surviving)
        if w is not None and w != task:
            v = verdicts.get(w) if verdicts is not None else None
            if v is None:
                v = precede(w, task)
            else:
                self.num_precede_calls_saved += 1
            if not v:
                self._report("write-write", w, task, loc)
        cell.writer = task

    def read(self, task: int, loc: Hashable) -> None:
        """Algorithm 9 — read check.

        The stored writer must precede the reading task.  The reader set is
        maintained so that it always contains every past parallel
        *future-covered* reader plus one representative plain-async reader
        (Lemma 4 justifies the single-representative policy for tasks no
        ``get`` edge can order).
        """
        cell = self.cell(loc)
        self.num_accesses += 1
        readers = cell.readers
        self.total_readers_seen += len(readers)
        w = cell.writer
        if w is None or w == task:
            # Structural fast paths: no writer check needed, and the reader
            # loop either is empty or only retires-and-reappends the task
            # itself (reflexivity) — both leave the cell exactly as the
            # plain Algorithm 9 would.
            if not readers:
                # Deviation: always record the first reader.
                self.num_fast_read_hits += 1
                readers.append(task)
                cell.reader_ids.add(task)
                return
            if len(readers) == 1 and readers[0] == task:
                self.num_fast_read_hits += 1
                self.num_precede_calls_saved += 1
                return
        epoch = -1
        if cell.fast_reader == task:
            epoch = self._epoch()
            if cell.fast_epoch == epoch:
                # Pure replay of the last clean check by this task: same
                # cell state, frozen DTRG — every precede answer and the
                # resulting cell state are forced (see module docstring).
                self.num_fast_read_hits += 1
                self.num_precede_calls_saved += len(readers) + (
                    0 if w is None or w == task else 1
                )
                return
        precede = self._precede
        update = not readers  # deviation: always record the first reader
        if readers:
            task_is_future = self._is_future(task)
            surviving: Optional[List[int]] = None
            for i, x in enumerate(readers):
                if precede(x, task):
                    update = True  # x is superseded by this reader
                    if surviving is None:
                        surviving = readers[:i]
                    continue
                if task_is_future or self._is_future(x):
                    update = True  # pseudo-transitivity unavailable: keep both
                if surviving is not None:
                    surviving.append(x)
            if surviving is not None:
                cell.readers = surviving
                cell.reader_ids = set(surviving)
        raced = False
        if w is not None and w != task and not precede(w, task):
            self._report("write-read", w, task, loc)
            raced = True
        if update and task not in cell.reader_ids:
            cell.readers.append(task)
            cell.reader_ids.add(task)
        if raced:
            cell.fast_reader = None
        else:
            cell.fast_reader = task
            cell.fast_epoch = epoch if epoch >= 0 else self._epoch()

    # ------------------------------------------------------------------ #
    # Metrics / introspection                                            #
    # ------------------------------------------------------------------ #
    @property
    def avg_readers(self) -> float:
        """Paper's ``#AvgReaders``: mean stored-reader population observed
        at access time, over all accesses."""
        if self.num_accesses == 0:
            return 0.0
        return self.total_readers_seen / self.num_accesses

    @property
    def num_fast_path_hits(self) -> int:
        """Accesses resolved without running the full Algorithm 8/9 body."""
        return self.num_fast_read_hits + self.num_fast_write_hits

    @property
    def num_locations(self) -> int:
        """Number of distinct shared locations touched."""
        return len(self._cells)

    def state(self, loc: Hashable) -> Tuple[Optional[int], List[int]]:
        """``(writer, readers)`` of ``loc``'s cell — for tests."""
        cell = self._cells.get(loc)
        if cell is None:
            return None, []
        return cell.writer, list(cell.readers)
