"""Regression tests for MemoryOutcome.differs_from key-aligned diffing.

The pre-PR-8 implementation zipped ``final_writer``/``read_sees`` tuples
positionally, so two outcomes that enumerate locations in different orders
mis-paired entries (phantom diffs on identical outcomes, masked diffs on
different ones) and ``zip`` silently dropped whichever outcome had more
entries.  These tests pin the fixed key-aligned behaviour.
"""

from repro.graph.schedule import MemoryOutcome


def test_identical_outcomes_no_diffs():
    a = MemoryOutcome(
        final_writer=(("x", 1), ("y", 2)),
        read_sees=(("x", 0, 1), ("y", 0, None)),
    )
    assert a.differs_from(a) == []


def test_reordered_locations_are_not_diffs():
    """Same mapping, different enumeration order: positional zip reported
    two phantom diffs here; key alignment reports none."""
    a = MemoryOutcome(
        final_writer=(("x", 1), ("y", 2)),
        read_sees=(("x", 0, 1), ("y", 0, 2)),
    )
    b = MemoryOutcome(
        final_writer=(("y", 2), ("x", 1)),
        read_sees=(("y", 0, 2), ("x", 0, 1)),
    )
    assert a.differs_from(b) == []
    assert b.differs_from(a) == []


def test_real_diff_survives_reordering():
    a = MemoryOutcome(final_writer=(("x", 1), ("y", 2)), read_sees=())
    b = MemoryOutcome(final_writer=(("y", 3), ("x", 1)), read_sees=())
    diffs = a.differs_from(b)
    assert len(diffs) == 1
    assert "'y'" in diffs[0] and "2" in diffs[0] and "3" in diffs[0]


def test_one_sided_locations_reported_not_dropped():
    """zip() used to truncate to the shorter tuple — the extra location
    vanished from the report entirely."""
    a = MemoryOutcome(final_writer=(("x", 1),), read_sees=())
    b = MemoryOutcome(final_writer=(("x", 1), ("extra", 9)), read_sees=())
    diffs = a.differs_from(b)
    assert diffs == ["location 'extra' only in other outcome"]
    assert b.differs_from(a) == ["location 'extra' only in this outcome"]


def test_one_sided_reads_reported():
    a = MemoryOutcome(final_writer=(), read_sees=(("x", 0, 1),))
    b = MemoryOutcome(
        final_writer=(), read_sees=(("x", 0, 1), ("x", 1, 2))
    )
    assert a.differs_from(b) == ["read #1 of 'x' only in other outcome"]
    assert b.differs_from(a) == ["read #1 of 'x' only in this outcome"]


def test_read_diff_aligned_by_location_and_index():
    a = MemoryOutcome(
        final_writer=(),
        read_sees=(("x", 0, 1), ("x", 1, 1), ("y", 0, None)),
    )
    b = MemoryOutcome(
        final_writer=(),
        read_sees=(("y", 0, None), ("x", 1, 7), ("x", 0, 1)),
    )
    diffs = a.differs_from(b)
    assert diffs == ["read #1 of 'x' sees write 1 vs 7"]


def test_heterogeneous_location_keys():
    """Tuple and string locations coexist; sorting uses repr, not <."""
    a = MemoryOutcome(
        final_writer=((("arr", 0), 5), ("v", 1)), read_sees=()
    )
    b = MemoryOutcome(
        final_writer=(("v", 1), (("arr", 0), 6)), read_sees=()
    )
    diffs = a.differs_from(b)
    assert len(diffs) == 1 and "('arr', 0)" in diffs[0]
