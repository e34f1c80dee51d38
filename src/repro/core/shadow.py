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

This module is the reference engine's shadow memory: the plain
Algorithms 8-9, one ``PRECEDE`` call per stored reader and one for a
writer other than the accessing task, and what the tests compare the
checking kernel against.  The fast paths (structural no-ops, the
epoch-memoized same-task read and the batched writer verdict) live only
in the kernel, :func:`repro.core.fastcheck._kernel` (``docs/ALGORITHM.md``
§3).  Every call they skip repeats a query made earlier in the same
mutation epoch, so verdicts, cell states and ``num_visits`` agree, and
the query counts differ by exactly the skipped calls:
``precede_queries(here) == precede_queries(kernel) +
precede_calls_saved(kernel)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["ShadowCell", "ShadowMemory"]


class ShadowCell:
    """Shadow state of one shared memory location."""

    __slots__ = ("writer", "readers")

    def __init__(self) -> None:
        self.writer: Optional[int] = None
        self.readers: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowCell(w={self.writer}, r={self.readers})"


class ShadowMemory:
    """All shadow cells plus the Algorithm 8/9 access checks.

    Parameters
    ----------
    precede:
        ``precede(prev_tid, cur_tid) -> bool`` — the DTRG query.  Must be
        reflexive (``precede(t, t)`` is True): the read check relies on it
        to retire the reading task's own earlier entry.
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
    """

    def __init__(
        self,
        precede: Callable[[int, int], bool],
        is_future: Callable[[int], bool],
        report: Callable[[str, int, int, Hashable], None],
    ) -> None:
        self._cells: Dict[Hashable, ShadowCell] = {}
        self._precede = precede
        self._is_future = is_future
        self._report = report
        # #AvgReaders bookkeeping: readers stored at the moment of access,
        # summed over all accesses.
        self.num_accesses = 0
        self.total_readers_seen = 0

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
        self.total_readers_seen += len(cell.readers)
        precede = self._precede
        surviving: List[int] = []
        for x in cell.readers:
            if precede(x, task):
                continue  # retired: happens-before the write
            self._report("read-write", x, task, loc)
            surviving.append(x)  # the paper keeps racy readers
        cell.readers = surviving
        w = cell.writer
        if w is not None and w != task and not precede(w, task):
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
        precede = self._precede
        update = not readers  # deviation: always record the first reader
        surviving: List[int] = []
        if readers:
            task_is_future = self._is_future(task)
            for x in readers:
                if precede(x, task):
                    update = True  # x is superseded by this reader
                    continue
                if task_is_future or self._is_future(x):
                    update = True  # pseudo-transitivity unavailable: keep both
                surviving.append(x)
        cell.readers = surviving
        w = cell.writer
        if w is not None and w != task and not precede(w, task):
            self._report("write-read", w, task, loc)
        if update:
            # ``task`` itself was retired above (precede is reflexive), so
            # it is never stored twice.
            surviving.append(task)

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
    def num_locations(self) -> int:
        """Number of distinct shared locations touched."""
        return len(self._cells)

    def state(self, loc: Hashable) -> Tuple[Optional[int], List[int]]:
        """``(writer, readers)`` of ``loc``'s cell — for tests."""
        cell = self._cells.get(loc)
        if cell is None:
            return None, []
        return cell.writer, list(cell.readers)
