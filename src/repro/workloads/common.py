"""Shared plumbing for the Table 2 benchmark workloads.

Every workload module exposes the same surface so the harness and the
pytest-benchmark suites can drive them uniformly:

* ``default_params(scale)`` — a params dataclass; ``scale`` is one of
  ``"tiny"`` (CI tests), ``"small"`` (default benchmarking, seconds per
  run) or ``"table2"`` (the largest configuration we let CPython attempt).
* ``serial(params)`` — the serial elision: pure Python/numpy, no runtime,
  no instrumentation.  This is the paper's ``Seq`` baseline.
* one or more parallel entry points (``run_af(rt, params)`` /
  ``run_future(rt, params)``) — instrumented versions executed on a
  :class:`~repro.runtime.runtime.Runtime`.
* ``verify(params, result)`` — raises ``AssertionError`` unless the result
  matches the serial elision (determinacy in action: a race-free program
  must equal its serial elision).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.detector import DeterminacyRaceDetector
from repro.harness.metrics import Metrics, MetricsCollector
from repro.runtime.runtime import Runtime

__all__ = ["Scale", "WorkloadRun", "run_instrumented", "time_callable"]

Scale = str  # "tiny" | "small" | "table2"


@dataclass
class WorkloadRun:
    """Everything one instrumented execution produced."""

    result: Any
    metrics: Metrics
    detector: Optional[DeterminacyRaceDetector]
    wall_seconds: float

    @property
    def avg_readers(self) -> float:
        if self.detector is None:
            return float("nan")
        return self.detector.avg_readers

    @property
    def races(self) -> list:
        return [] if self.detector is None else list(self.detector.races)

    @property
    def perf_stats(self) -> Dict[str, Any]:
        """The detector's fast-path counters ({} without one)."""
        return {} if self.detector is None else self.detector.perf_stats


def run_instrumented(
    entry: Callable[[Runtime], Any],
    *,
    detect: bool,
    extra_observers: Sequence = (),
    detector_options: Optional[Dict[str, Any]] = None,
    obs=None,
) -> WorkloadRun:
    """Run a workload entry point, with or without the race detector.

    ``detect=False`` measures instrumentation-only cost (runtime dispatch +
    metrics counters); ``detect=True`` adds the full detector — the paper's
    ``Racedet`` configuration.  ``detector_options`` are forwarded to
    :class:`DeterminacyRaceDetector` (engine, ablation switches).
    ``obs`` is an optional :class:`repro.obs.Observability` sink threaded
    into both the runtime (task/finish spans) and the detector (PRECEDE /
    shadow instrumentation); ``None`` costs nothing.
    """
    metrics = MetricsCollector()
    detector = (
        DeterminacyRaceDetector(obs=obs, **(detector_options or {}))
        if detect
        else None
    )
    observers: List = [metrics]
    if detector is not None:
        observers.append(detector)
    observers.extend(extra_observers)
    rt = Runtime(observers=observers, obs=obs)
    start = time.perf_counter()
    result = rt.run(entry)
    wall = time.perf_counter() - start
    return WorkloadRun(
        result=result,
        metrics=metrics.snapshot(),
        detector=detector,
        wall_seconds=wall,
    )


def time_callable(fn: Callable[[], Any], *, repeats: int = 1) -> tuple:
    """``(best_wall_seconds, last_result)`` over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result
