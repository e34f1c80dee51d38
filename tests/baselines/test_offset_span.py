"""Unit tests for Offset-Span labeling (nested fork-join)."""

import pytest

from repro import DeterminacyRaceDetector, Runtime, SharedArray
from repro.baselines.offset_span import (
    WIDE,
    OffsetSpanDetector,
    os_concurrent,
    os_precedes,
)
from repro.runtime.errors import UnsupportedConstructError


def run(builder, locs=4):
    det = OffsetSpanDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return det


# ---------------------------------------------------------------------- #
# Label algebra                                                          #
# ---------------------------------------------------------------------- #
def test_prefix_precedes():
    parent = ((0, WIDE),)
    child = ((0, WIDE), (0, WIDE))
    assert os_precedes(parent, child)
    assert not os_precedes(child, parent)


def test_siblings_concurrent():
    a = ((0, WIDE), (0, WIDE))
    b = ((0, WIDE), (1, WIDE))
    assert os_concurrent(a, b)


def test_join_continuation_after_children():
    base = ((0, WIDE),)
    children = [base + ((i, WIDE),) for i in range(3)]
    continuation = ((WIDE, WIDE),)  # (0 + WIDE, WIDE)
    for child in children:
        assert os_precedes(child, continuation)
        assert not os_precedes(continuation, child)


def test_second_fork_children_after_first_fork_children():
    base = ((0, WIDE),)
    first = base + ((0, WIDE),)
    cont = ((WIDE, WIDE),)
    second = cont + ((0, WIDE),)
    assert os_precedes(first, second)
    assert os_precedes(base, second)


def test_nested_fork_labels():
    outer_child = ((0, WIDE), (1, WIDE))
    inner_child = outer_child + ((0, WIDE),)
    other_outer = ((0, WIDE), (0, WIDE))
    assert os_precedes(outer_child, inner_child)
    assert os_concurrent(inner_child, other_outer)


def test_reflexive():
    label = ((0, WIDE), (2, WIDE))
    assert os_precedes(label, label)
    assert not os_concurrent(label, label)


# ---------------------------------------------------------------------- #
# Detector on fork-join programs                                         #
# ---------------------------------------------------------------------- #
def test_fork_join_race():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))

    det = run(prog)
    assert det.racy_locations == {("x", 0)}


def test_sequential_regions_ordered():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
        with rt.finish():
            rt.async_(lambda: mem.write(0, 2))
        mem.read(0)

    det = run(prog)
    assert not det.report.has_races


def test_fork_after_a_joined_nested_region_follows_it():
    # The outer region's first fork comes after the owner joined an inner
    # region, so its child is labelled from the bumped owner label: the
    # second inner child's read precedes the outer child's write.
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: None)
            rt.async_(lambda: mem.read(0))
        rt.async_(lambda: mem.write(0, 1))

    det = run(prog)
    assert not det.report.has_races


def test_nested_fork_join():
    def prog(rt, mem):
        def worker():
            with rt.finish():
                rt.async_(lambda: mem.write(1, 1))
                rt.async_(lambda: mem.write(2, 2))
            mem.read(1)

        with rt.finish():
            rt.async_(worker)
            rt.async_(lambda: mem.write(3, 3))

    det = run(prog)
    assert not det.report.has_races
    assert det.max_label_length >= 3


def test_agreement_with_reference_on_forkjoin_program():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.read(0))     # race
            rt.async_(lambda: mem.write(1, 1))
        mem.read(1)                            # ordered

    os_det = OffsetSpanDetector()
    ref = DeterminacyRaceDetector()
    rt = Runtime(observers=[os_det, ref])
    mem = SharedArray(rt, "x", 4)
    rt.run(lambda _rt: prog(rt, mem))
    assert os_det.racy_locations == ref.racy_locations == {("x", 0)}


# ---------------------------------------------------------------------- #
# Model restrictions                                                     #
# ---------------------------------------------------------------------- #
def test_owner_access_between_fork_and_join_rejected():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            mem.read(0)

    with pytest.raises(UnsupportedConstructError):
        run(prog)


def test_owner_nested_region_after_fork_rejected():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            with rt.finish():
                rt.async_(lambda: mem.write(1, 1))

    with pytest.raises(UnsupportedConstructError):
        run(prog)


def test_escaping_async_rejected():
    def prog(rt, mem):
        def parent():
            rt.async_(lambda: None)  # IEF is the outer finish, owner differs

        with rt.finish():
            rt.async_(parent)

    with pytest.raises(UnsupportedConstructError):
        run(prog)


def test_future_rejected():
    def prog(rt, mem):
        rt.future(lambda: 1)

    with pytest.raises(UnsupportedConstructError):
        run(prog)


def test_label_length_tracks_nesting_depth():
    def prog(rt, mem):
        def level(d):
            if d == 0:
                mem.write(0, 1)
                return
            with rt.finish():
                rt.async_(level, d - 1)

        level(4)

    det = run(prog)
    # root pair + one pair per nesting level
    assert det.max_label_length == 5
