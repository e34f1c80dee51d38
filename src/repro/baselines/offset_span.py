"""Offset-Span labeling — Mellor-Crummey's detector for nested fork-join.

Related work [20]: "Mellor-Crummey presented Offset-Span labeling … The
idea behind their techniques is to attach a label to every thread in the
program and use these labels to check if two threads can execute
concurrently.  The length of the labels associated with each thread is
bounded by the maximum nesting depth of fork-join … While Offset-Span
labeling supports only nested fork-join constructs, our algorithm supports
a more general set of computation graphs."

The scheme: a thread carries a list of ``(offset, span)`` pairs.

* fork — the *i*-th forked child extends the parent's label with a fresh
  pair ``(i, S)``;
* join — the continuation *replaces the parent's last pair* ``(o, s)``
  with ``(o + s, s)``;
* happens-before — ``L1 ≺ L2`` iff ``L1`` is a proper prefix of ``L2`` or,
  at the first index where they differ, the pairs are ``(o1, s)`` /
  ``(o2, s)`` with ``o1 < o2`` and ``o1 ≡ o2 (mod s)``.

Dynamic fork widths: the classic scheme needs the fork's width as the
span.  An async-finish ``finish { async… }`` region does not know its
width up front, so we use a span larger than any realizable offset
(``WIDE``): within one fork region distinct offsets are then never
congruent (concurrent, as required), and join continuations bump the
parent's offset by exactly one span so congruence along the sequential
spine is preserved.  This is the standard trick that makes OS-labels work
for dynamic widths, and it preserves the label-length bound (nesting
depth), which is the property the paper contrasts with its constant-size
interval labels.

Model restrictions (violations raise
:class:`~repro.runtime.errors.UnsupportedConstructError`): strict nested
fork-join only —

* the owner of a ``finish`` may not touch shared memory, start another
  construct, or spawn from a *descendant* once the first child has been
  forked (the fork suspends the parent in the fork-join model);
* every ``async`` must be forked directly by the finish owner;
* futures are out of model entirely.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.baselines.base import BaselineDetector
from repro.core.races import AccessKind, ReportPolicy
from repro.runtime.errors import UnsupportedConstructError

__all__ = ["OffsetSpanDetector", "os_precedes", "WIDE"]

#: Span stand-in for "wider than any fork in this run".
WIDE = 1 << 60

Label = Tuple[Tuple[int, int], ...]


def os_precedes(l1: Label, l2: Label) -> bool:
    """The Offset-Span happens-before test (reflexive)."""
    for (o1, s1), (o2, s2) in zip(l1, l2):
        if o1 == o2 and s1 == s2:
            continue
        return s1 == s2 and o1 < o2 and (o2 - o1) % s1 == 0
    return len(l1) <= len(l2)  # equal or proper prefix


def os_concurrent(l1: Label, l2: Label) -> bool:
    return not os_precedes(l1, l2) and not os_precedes(l2, l1)


class _Region:
    """Bookkeeping for one open finish scope acting as a fork region."""

    __slots__ = ("owner_tid", "next_offset", "forked")

    def __init__(self, owner_tid: int) -> None:
        self.owner_tid = owner_tid
        self.next_offset = 0
        self.forked = False


class _Cell:
    __slots__ = ("writer", "reader")

    def __init__(self) -> None:
        self.writer: Optional[Tuple[Label, int]] = None
        self.reader: Optional[Tuple[Label, int]] = None


class OffsetSpanDetector(BaselineDetector):
    """Offset-Span labeling detector for strict nested fork-join programs."""

    def __init__(
        self,
        policy: ReportPolicy | str = ReportPolicy.COLLECT,
        *,
        dedupe: bool = True,
    ) -> None:
        super().__init__(policy, dedupe=dedupe)
        self._labels: Dict[int, Label] = {}
        self._regions: Dict[int, _Region] = {}  # fid -> region
        self._region_stack: List[_Region] = []
        self._cells: Dict[Hashable, _Cell] = {}
        self.max_label_length = 0

    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        self._remember_name(main)
        self._labels[main.tid] = ((0, WIDE),)

    def on_finish_start(self, scope) -> None:
        # A forked owner is suspended in the fork-join model; opening a
        # nested region would hand out labels that collide with the open
        # fork's children.
        for region in reversed(self._region_stack):
            if region.owner_tid == scope.owner.tid:
                if region.forked:
                    raise UnsupportedConstructError(
                        "Offset-Span labeling: the owner started a nested "
                        "fork region between fork and join"
                    )
                break
        region = _Region(scope.owner.tid)
        self._regions[scope.fid] = region
        self._region_stack.append(region)

    def on_finish_end(self, scope) -> None:
        region = self._regions.pop(scope.fid)
        self._region_stack.pop()
        if region.forked:
            # Join: continuation bumps the parent's last pair by its span.
            label = self._labels[region.owner_tid]
            (o, s) = label[-1]
            self._labels[region.owner_tid] = label[:-1] + ((o + s, s),)

    def on_task_create(self, parent, child) -> None:
        self._remember_name(child)
        if child.is_future:
            raise UnsupportedConstructError(
                "Offset-Span labeling supports nested fork-join only; "
                "futures are out of model"
            )
        if child.ief is None or child.ief.fid not in self._regions:
            raise UnsupportedConstructError(
                "Offset-Span labeling requires every async inside a fork "
                "region (finish scope)"
            )
        region = self._regions[child.ief.fid]
        if region.owner_tid != parent.tid:
            raise UnsupportedConstructError(
                "Offset-Span labeling requires the fork region's owner to "
                f"fork all children; {child.name} was spawned by a "
                "different task"
            )
        # The owner's label as of this fork: a nested region it joined
        # before its first fork here has bumped it since the scope opened.
        label = self._labels[parent.tid] + ((region.next_offset, WIDE),)
        region.next_offset += 1
        region.forked = True
        self._labels[child.tid] = label
        if len(label) > self.max_label_length:
            self.max_label_length = len(label)

    def on_get(self, consumer, producer) -> None:
        raise UnsupportedConstructError(
            "Offset-Span labeling cannot model future get() operations"
        )

    # ------------------------------------------------------------------ #
    def _check_owner_quiescent(self, tid: int) -> None:
        """In fork-join, a parent that has forked is suspended until the
        join; any activity from it inside the open region is out of model."""
        for region in reversed(self._region_stack):
            if region.owner_tid == tid:
                if region.forked:
                    raise UnsupportedConstructError(
                        "Offset-Span labeling: the fork region's owner "
                        "accessed shared memory between fork and join "
                        "(not expressible in strict nested fork-join)"
                    )
                return  # innermost own region not yet forked: fine
            # Regions owned by others don't constrain this task.

    def on_write(self, task, loc) -> None:
        self._check_owner_quiescent(task.tid)
        label = self._labels[task.tid]
        cell = self._cell(loc)
        r = cell.reader
        if r is not None and os_concurrent(r[0], label):
            self._report_race(AccessKind.READ_WRITE, r[1], task.tid, loc)
        else:
            cell.reader = None
        w = cell.writer
        if w is not None and os_concurrent(w[0], label):
            self._report_race(AccessKind.WRITE_WRITE, w[1], task.tid, loc)
        cell.writer = (label, task.tid)

    def on_read(self, task, loc) -> None:
        self._check_owner_quiescent(task.tid)
        label = self._labels[task.tid]
        cell = self._cell(loc)
        w = cell.writer
        if w is not None and os_concurrent(w[0], label):
            self._report_race(AccessKind.WRITE_READ, w[1], task.tid, loc)
        r = cell.reader
        if r is None or os_precedes(r[0], label):
            cell.reader = (label, task.tid)

    def _cell(self, loc: Hashable) -> _Cell:
        cell = self._cells.get(loc)
        if cell is None:
            cell = _Cell()
            self._cells[loc] = cell
        return cell
