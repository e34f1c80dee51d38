"""Observability attachment must happen before execution.

An ``obs`` is wired when the detector is built: it selects the traced
flat-array graph (:class:`~repro.core.array_dtrg.TracedArrayDTRG`) and
the kernel's access hook, so every event of the run is observed.  There
is no way to attach later: the graph has no attach method, and its
``__slots__`` refuse rebinding a method on an instance, which a
concurrent runtime (PR 8's ThreadRuntime) could observe half-applied.
"""

import pytest

from repro import (
    DeterminacyRaceDetector,
    Observability,
    Runtime,
    RuntimeStateError,
    SharedVar,
)
from repro.core.array_dtrg import ArrayDTRG, TracedArrayDTRG


def _run_one_access(det, obs=None):
    rt = Runtime(observers=[det], obs=obs)
    v = SharedVar(rt, "v")
    rt.run(lambda r: v.write(1))


def test_dtrg_attach_observability_after_registration_raises():
    det = DeterminacyRaceDetector()
    _run_one_access(det)
    assert not hasattr(det.dtrg, "attach_observability")
    with pytest.raises(AttributeError):
        det.dtrg.precede_idx = lambda a, b: True


def test_attach_before_execution_still_works():
    obs = Observability()
    det = DeterminacyRaceDetector(obs=obs)
    _run_one_access(det, obs)
    assert det.num_accesses == 1
    assert obs.registry.counter("shadow_writes").value == 1
    assert obs.registry.counter("dtrg_terminate").value == 1


def test_fresh_dtrg_attach_ok():
    g = TracedArrayDTRG(Observability(), ["main"])
    assert isinstance(g, ArrayDTRG)
    assert g.add_root_idx() == 0


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
