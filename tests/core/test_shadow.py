"""Unit tests for the shadow memory (Section 4.2, Algorithms 8-9).

These drive :class:`ShadowMemory` directly with a scripted ``precede``
relation, isolating the reader-set policies from the DTRG.
"""

import pytest

from repro.core.shadow import ShadowMemory


class Harness:
    """ShadowMemory wired to an explicit happens-before table."""

    def __init__(self, futures=()):
        self.order = set()  # pairs (a, b) meaning a precedes b
        self.futures = set(futures)
        self.races = []
        self.shadow = ShadowMemory(
            precede=lambda a, b: a == b or (a, b) in self.order,
            is_future=lambda t: t in self.futures,
            report=lambda kind, prev, cur, loc: self.races.append(
                (kind, prev, cur, loc)
            ),
        )

    def let(self, a, b):
        self.order.add((a, b))


def test_first_reader_recorded():
    """DESIGN.md deviation #1: the first reader must enter the (empty)
    reader set or a later parallel write is missed."""
    h = Harness()
    h.shadow.read(1, "x")
    _, readers = h.shadow.state("x")
    assert readers == [1]
    h.shadow.write(2, "x")  # 1 ∥ 2
    assert h.races == [("read-write", 1, 2, "x")]


def test_ordered_write_after_read_retires_reader():
    h = Harness()
    h.shadow.read(1, "x")
    h.let(1, 2)
    h.shadow.write(2, "x")
    assert h.races == []
    writer, readers = h.shadow.state("x")
    assert writer == 2
    assert readers == []


def test_write_write_race_and_update():
    h = Harness()
    h.shadow.write(1, "x")
    h.shadow.write(2, "x")  # parallel
    assert h.races == [("write-write", 1, 2, "x")]
    writer, _ = h.shadow.state("x")
    assert writer == 2  # last writer regardless of the race


def test_write_read_race():
    h = Harness()
    h.shadow.write(1, "x")
    h.shadow.read(2, "x")
    assert h.races == [("write-read", 1, 2, "x")]


def test_ordered_write_then_read_no_race():
    h = Harness()
    h.shadow.write(1, "x")
    h.let(1, 2)
    h.shadow.read(2, "x")
    assert h.races == []


def test_async_reader_not_duplicated_when_parallel():
    """Lemma 4: a second parallel *async* reader is not stored."""
    h = Harness()
    h.shadow.read(1, "x")
    h.shadow.read(2, "x")  # parallel asyncs: keep reader 1 only
    _, readers = h.shadow.state("x")
    assert readers == [1]


def test_parallel_future_readers_all_stored():
    h = Harness(futures={1, 2, 3})
    for t in (1, 2, 3):
        h.shadow.read(t, "x")
    _, readers = h.shadow.state("x")
    assert readers == [1, 2, 3]
    assert h.races == []  # read-read is never a race


def test_future_reader_added_next_to_async_reader():
    h = Harness(futures={2})
    h.shadow.read(1, "x")   # async
    h.shadow.read(2, "x")   # parallel future: both stay
    _, readers = h.shadow.state("x")
    assert readers == [1, 2]


def test_async_reader_replaced_when_ordered():
    h = Harness()
    h.shadow.read(1, "x")
    h.let(1, 2)
    h.shadow.read(2, "x")
    _, readers = h.shadow.state("x")
    assert readers == [2]


def test_write_checks_against_every_stored_reader():
    h = Harness(futures={1, 2, 3})
    for t in (1, 2, 3):
        h.shadow.read(t, "x")
    h.let(1, 9)
    h.let(3, 9)
    h.shadow.write(9, "x")
    # reader 2 is the single unsynchronized one
    assert h.races == [("read-write", 2, 9, "x")]
    _, readers = h.shadow.state("x")
    assert readers == [2]  # the paper keeps racy readers in the set


def test_same_task_reread_and_rewrite_never_race():
    h = Harness()
    h.shadow.write(5, "x")
    h.shadow.read(5, "x")
    h.shadow.write(5, "x")
    assert h.races == []


def test_locations_are_independent():
    h = Harness()
    h.shadow.write(1, "x")
    h.shadow.write(2, "y")
    assert h.races == []
    assert h.shadow.num_locations == 2


def test_avg_readers_accounting():
    h = Harness(futures={1, 2, 3, 4})
    for t in (1, 2, 3):
        h.shadow.read(t, "x")   # sees 0, 1, 2 stored readers
    h.shadow.read(4, "y")        # sees 0
    # (0 + 1 + 2 + 0) / 4 accesses
    assert h.shadow.avg_readers == pytest.approx(0.75)
    assert h.shadow.num_accesses == 4
