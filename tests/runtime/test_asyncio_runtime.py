"""Unit tests for AsyncioRuntime — the cooperative asyncio executor."""

import asyncio

import pytest

from repro import (
    AsyncioRuntime,
    NullFutureError,
    ParallelRaceDetector,
    RuntimeStateError,
    SharedArray,
    SharedVar,
)
from repro.runtime.base import RuntimeBase


def test_satisfies_runtime_protocol():
    assert isinstance(AsyncioRuntime(), RuntimeBase)


def test_rejects_synchronous_program():
    rt = AsyncioRuntime()
    with pytest.raises(TypeError, match="async def program"):
        rt.run(lambda rt: None)


def test_future_value_propagation_with_await():
    rt = AsyncioRuntime()

    async def program(rt):
        f = rt.future(lambda: 21)
        g = rt.future(lambda: 2)
        return await f.get() * await g.get()

    assert rt.run(program) == 42
    assert rt.num_tasks == 3


def test_coroutine_bodies_supported():
    rt = AsyncioRuntime()

    async def producer():
        await asyncio.sleep(0)
        return 7

    async def program(rt):
        f = rt.future(producer)
        return await f.get()

    assert rt.run(program) == 7


def test_forall_is_awaited():
    seen = []

    async def program(rt):
        await rt.forall(range(3), seen.append)
        return sorted(seen)

    assert AsyncioRuntime().run(program) == [0, 1, 2]


def test_finish_scope_drains_transitive_spawns():
    rt = AsyncioRuntime()
    seen = []

    def leaf(i):
        seen.append(i)

    async def mid(rt, i):
        await asyncio.sleep(0)
        rt.async_(leaf, i)

    async def program(rt):
        async with rt.finish():
            for i in range(6):
                rt.async_(mid, rt, i)
        assert sorted(seen) == list(range(6))

    rt.run(program)


def test_child_exception_raised_at_finish_exit():
    rt = AsyncioRuntime()

    async def program(rt):
        async with rt.finish():
            rt.async_(lambda: 1 / 0)

    with pytest.raises(ZeroDivisionError):
        rt.run(program)


def test_future_exception_delivered_at_get_not_finish():
    rt = AsyncioRuntime()

    async def program(rt):
        f = rt.future(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            await f.get()
        return "survived"

    assert rt.run(program) == "survived"


def test_get_on_none_raises_null_future_error():
    rt = AsyncioRuntime()

    async def program(rt):
        with pytest.raises(NullFutureError):
            rt.get(None)

    rt.run(program)


def test_single_use():
    rt = AsyncioRuntime()

    async def program(rt):
        return 1

    rt.run(program)
    with pytest.raises(RuntimeStateError):
        rt.run(program)


def test_provenance_rejected():
    class _Prov:
        enabled = True

    with pytest.raises(ValueError, match="provenance"):
        AsyncioRuntime(provenance=_Prov())


def test_online_detection_racy_siblings():
    det = ParallelRaceDetector()
    rt = AsyncioRuntime(observers=[det])
    data = SharedArray(rt, "data", 1)

    async def program(rt):
        async with rt.finish():
            rt.async_(lambda: data.write(0, 1))
            rt.async_(lambda: data.write(0, 2))

    rt.run(program)
    assert set(det.racy_locations) == {("data", 0)}


def test_online_detection_race_free_chain():
    det = ParallelRaceDetector()
    rt = AsyncioRuntime(observers=[det])
    v = SharedVar(rt, "v")

    async def program(rt):
        f = rt.future(lambda: v.write(1))

        async def consumer():
            await f.get()
            return v.read()

        g = rt.future(consumer)
        assert await g.get() == 1
        v.write(2)

    rt.run(program)
    assert det.races == []


def test_siblings_genuinely_interleave():
    """The event order is not depth-first: a sleeping sibling yields."""
    rt = AsyncioRuntime()
    order = []

    async def a():
        order.append("a1")
        await asyncio.sleep(0)
        order.append("a2")

    async def b():
        order.append("b1")
        await asyncio.sleep(0)
        order.append("b2")

    async def program(rt):
        async with rt.finish():
            rt.async_(a)
            rt.async_(b)

    rt.run(program)
    assert order == ["a1", "b1", "a2", "b2"]
