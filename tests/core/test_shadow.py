"""Unit tests for the shadow-memory policy (Section 4.2, Algorithms 8-9).

These drive the one checking kernel (:func:`repro.core.fastcheck._kernel`)
over a scripted reachability backend — an explicit happens-before table —
isolating the reader-set policies from the DTRG.  Every scripted task is
a child of main, created just before its first access; the kernel is
resumed after each access, so each case checks the accesses one by one
in the order it lists them.
"""

import pytest

from repro.core.events import ColumnBuilder, EncodedTrace
from repro.core.fastcheck import CheckResult, _kernel


class ScriptedBackend:
    """The kernel's ``PrecedeBackend`` surface over a table of task keys.

    Structural events only allocate indices and bump the epoch; no
    scripted case issues one between two reads by one task, so the
    kernel's epoch-memoized read path sees the table it was built on.
    """

    num_visits = num_non_tree_edges = num_tree_merges = 0

    def __init__(self, order):
        self.order = order  # pairs (a, b) of task keys: a precedes b
        self.keys = []
        self.mutation_epoch = 0
        self.num_precede_queries = 0

    def add_root_idx(self, key=None):
        self.keys.append(key)
        return 0

    def add_task_idx(self, parent_idx, is_future, key=None):
        self.keys.append(key)
        self.mutation_epoch += 1
        return len(self.keys) - 1

    def _mutate(self, *indices):
        self.mutation_epoch += 1

    on_terminate_idx = record_join_idx = merge_idx = _mutate

    def precede_idx(self, ia, ib):
        self.num_precede_queries += 1
        a, b = self.keys[ia], self.keys[ib]
        return a == b or (a, b) in self.order


class Harness:
    """The kernel wired to an explicit happens-before table."""

    def __init__(self, futures=()):
        self.order = set()
        self.futures = set(futures)
        self.enc = EncodedTrace()
        self.builder = ColumnBuilder(self.enc)
        # Every reported conflict, as the plain algorithms report them.
        self.result = CheckResult(dedupe=False)
        self.names = ["main"]
        self.kernel = _kernel(
            self.enc, ScriptedBackend(self.order), self.names, self.result,
            drop=self.builder.drop,
        )
        next(self.kernel)

    def let(self, a, b):
        self.order.add((a, b))

    def _access(self, lower, task, loc):
        if task not in self.enc.task_keys:
            self.names.append(f"t{task}")
            self.builder.task_create(0, task, task in self.futures, 0)
        lower(task, loc)
        self.builder.flush()
        next(self.kernel)

    def read(self, task, loc):
        self._access(self.builder.read, task, loc)

    def write(self, task, loc):
        self._access(self.builder.write, task, loc)

    @property
    def races(self):
        return [(r.kind.value, r.prev_task, r.current_task, r.loc)
                for r in self.result.races]

    def state(self, loc):
        """``(writer, readers)`` of ``loc``'s cell, as task keys: read from
        the shadow columns in the suspended kernel's frame."""
        frame = self.kernel.gi_frame.f_locals
        lid = self.enc.loc_index[loc]
        keys = self.enc.task_keys
        w = frame["writers"][lid]
        return (keys[w] if w >= 0 else None,
                [keys[x] for x in frame["readers"][lid] or ()])

    def finish(self):
        """Close the run: the kernel writes its final counters."""
        with pytest.raises(StopIteration):
            self.kernel.send(True)
        return self.result


def test_first_reader_recorded():
    """DESIGN.md deviation #1: the first reader must enter the (empty)
    reader set or a later parallel write is missed."""
    h = Harness()
    h.read(1, "x")
    _, readers = h.state("x")
    assert readers == [1]
    h.write(2, "x")  # 1 ∥ 2
    assert h.races == [("read-write", 1, 2, "x")]


def test_ordered_write_after_read_retires_reader():
    h = Harness()
    h.read(1, "x")
    h.let(1, 2)
    h.write(2, "x")
    assert h.races == []
    writer, readers = h.state("x")
    assert writer == 2
    assert readers == []


def test_write_write_race_and_update():
    h = Harness()
    h.write(1, "x")
    h.write(2, "x")  # parallel
    assert h.races == [("write-write", 1, 2, "x")]
    writer, _ = h.state("x")
    assert writer == 2  # last writer regardless of the race


def test_write_read_race():
    h = Harness()
    h.write(1, "x")
    h.read(2, "x")
    assert h.races == [("write-read", 1, 2, "x")]


def test_ordered_write_then_read_no_race():
    h = Harness()
    h.write(1, "x")
    h.let(1, 2)
    h.read(2, "x")
    assert h.races == []


def test_async_reader_not_duplicated_when_parallel():
    """Lemma 4: a second parallel *async* reader is not stored."""
    h = Harness()
    h.read(1, "x")
    h.read(2, "x")  # parallel asyncs: keep reader 1 only
    _, readers = h.state("x")
    assert readers == [1]


def test_parallel_future_readers_all_stored():
    h = Harness(futures={1, 2, 3})
    for t in (1, 2, 3):
        h.read(t, "x")
    _, readers = h.state("x")
    assert readers == [1, 2, 3]
    assert h.races == []  # read-read is never a race


def test_future_reader_added_next_to_async_reader():
    h = Harness(futures={2})
    h.read(1, "x")   # async
    h.read(2, "x")   # parallel future: both stay
    _, readers = h.state("x")
    assert readers == [1, 2]


def test_async_reader_replaced_when_ordered():
    h = Harness()
    h.read(1, "x")
    h.let(1, 2)
    h.read(2, "x")
    _, readers = h.state("x")
    assert readers == [2]


def test_write_checks_against_every_stored_reader():
    h = Harness(futures={1, 2, 3})
    for t in (1, 2, 3):
        h.read(t, "x")
    h.let(1, 9)
    h.let(3, 9)
    h.write(9, "x")
    # reader 2 is the single unsynchronized one
    assert h.races == [("read-write", 2, 9, "x")]
    _, readers = h.state("x")
    assert readers == [2]  # the paper keeps racy readers in the set


def test_same_task_reread_and_rewrite_never_race():
    h = Harness()
    h.write(5, "x")
    h.read(5, "x")
    h.write(5, "x")
    assert h.races == []


def test_locations_are_independent():
    h = Harness()
    h.write(1, "x")
    h.write(2, "y")
    assert h.races == []
    assert h.finish().num_locations == 2


def test_avg_readers_accounting():
    h = Harness(futures={1, 2, 3, 4})
    for t in (1, 2, 3):
        h.read(t, "x")   # sees 0, 1, 2 stored readers
    h.read(4, "y")        # sees 0
    result = h.finish()
    # (0 + 1 + 2 + 0) / 4 accesses
    assert result.avg_readers == pytest.approx(0.75)
    assert result.num_accesses == 4
