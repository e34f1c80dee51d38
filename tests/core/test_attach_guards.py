"""Observability attachment must happen before execution.

ShadowMemory and DynamicTaskReachabilityGraph cache their obs sinks in
bound method attributes and per-call fast paths; rebinding them after
events have been processed is unsafe once hooks can run concurrently
(PR 8's ThreadRuntime), so late attachment now raises RuntimeStateError
instead of silently racing.
"""

import pytest

from repro import (
    DeterminacyRaceDetector,
    Observability,
    Runtime,
    RuntimeStateError,
    SharedVar,
)
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.core.shadow import ShadowMemory


def _run_one_access(det):
    rt = Runtime(observers=[det])
    v = SharedVar(rt, "v")
    rt.run(lambda r: v.write(1))


def test_shadow_attach_observability_after_access_raises():
    det = DeterminacyRaceDetector(engine="object")
    _run_one_access(det)
    obs = Observability()
    with pytest.raises(RuntimeStateError, match="attach"):
        det.shadow.attach_observability(obs)


def test_dtrg_attach_observability_after_registration_raises():
    det = DeterminacyRaceDetector(engine="object")
    _run_one_access(det)
    obs = Observability()
    with pytest.raises(RuntimeStateError, match="attach"):
        det.dtrg.attach_observability(obs)


def test_attach_before_execution_still_works():
    det = DeterminacyRaceDetector(engine="object")
    obs = Observability()
    det.shadow.attach_observability(obs)
    det.dtrg.attach_observability(obs)
    _run_one_access(det)
    assert det.shadow.num_accesses == 1


def test_fresh_shadow_attach_ok_and_disabled_obs_is_noop():
    shadow = ShadowMemory(
        precede=lambda a, b: True,
        is_future=lambda t: False,
        report=lambda kind, a, b, loc: None,
        epoch=lambda: 0,
    )
    from repro.obs.hooks import NULL_OBSERVABILITY

    shadow.attach_observability(NULL_OBSERVABILITY)  # disabled: no-op
    shadow.attach_observability(Observability())


def test_fresh_dtrg_attach_ok():
    g = DynamicTaskReachabilityGraph()
    g.attach_observability(Observability())


# ---------------------------------------------------------------------- #
# AsyncioRuntime: the same before-execution contract holds on the
# cooperative path (PR 9 — the live sampler attaches sources up front,
# never observers mid-run).
# ---------------------------------------------------------------------- #
class TestAsyncioRuntimeAttachOrdering:
    def _runtime(self):
        from repro.runtime.asyncio_runtime import AsyncioRuntime

        return AsyncioRuntime()

    def test_add_observer_mid_execution_raises(self):
        rt = self._runtime()
        det = DeterminacyRaceDetector()

        async def program(rt):
            rt.add_observer(det)

        with pytest.raises(RuntimeStateError, match="while running"):
            rt.run(program)

    def test_add_observer_from_spawned_task_raises(self):
        rt = self._runtime()
        failures = []

        async def child():
            try:
                rt.add_observer(DeterminacyRaceDetector())
            except RuntimeStateError:
                failures.append("guarded")

        async def program(rt):
            async with rt.finish():
                rt.async_(child)

        rt.run(program)
        assert failures == ["guarded"]

    def test_add_observer_before_run_still_works(self):
        from repro.core.parallel_detector import ParallelRaceDetector

        rt = self._runtime()
        det = ParallelRaceDetector()
        rt.add_observer(det)

        async def program(rt):
            v = SharedVar(rt, "v")
            v.write(1)

        rt.run(program)
        assert det.perf_stats["num_accesses"] == 1
        assert not det.races
