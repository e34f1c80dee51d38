"""Dynamic determinacy race detection for task parallelism with futures.

A complete Python reproduction of Surendran & Sarkar, *Dynamic Determinacy
Race Detection for Task Parallelism with Futures* (SPAA 2016 brief
announcement / full Rice TR): a serial depth-first async/finish/future
runtime, the dynamic task reachability graph detector (Algorithms 1-10),
baseline detectors (SP-bags, ESP-bags, vector clocks, brute force), the
Table 2 benchmark suite, and an experiment harness.

Quickstart::

    from repro import DeterminacyRaceDetector, Runtime, SharedArray

    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    data = SharedArray(rt, "data", [0, 0])

    def program(rt):
        with rt.finish():
            rt.async_(lambda: data.write(0, 1))
            rt.async_(lambda: data.write(0, 2))   # races with the first!

    rt.run(program)
    print(det.report.summary())
"""

from repro.core.detector import DeterminacyRaceDetector
from repro.core.exact import ExactDetector
from repro.core.events import ExecutionObserver, Trace
from repro.core.parallel_detector import ParallelRaceDetector
from repro.core.races import AccessKind, Race, RaceReport, ReportPolicy
from repro.obs import MetricsRegistry, Observability, RingTracer
from repro.memory.shared import (
    SharedArray,
    SharedFutureCell,
    SharedMatrix,
    SharedNDArray,
    SharedVar,
)
from repro.runtime.errors import (
    NullFutureError,
    RaceError,
    ReproError,
    RuntimeStateError,
    UnsupportedConstructError,
)
from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.runtime.base import RuntimeBase
from repro.runtime.executor import ThreadRuntime
from repro.runtime.future import FutureHandle
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task, TaskKind

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # runtime
    "Runtime",
    "RuntimeBase",
    "ThreadRuntime",
    "AsyncioRuntime",
    "Task",
    "TaskKind",
    "FutureHandle",
    # detector
    "DeterminacyRaceDetector",
    "ParallelRaceDetector",
    "ExactDetector",
    "ExecutionObserver",
    "Trace",
    "Race",
    "RaceReport",
    "ReportPolicy",
    "AccessKind",
    # shared memory
    "SharedVar",
    "SharedArray",
    "SharedNDArray",
    "SharedMatrix",
    "SharedFutureCell",
    # observability
    "Observability",
    "RingTracer",
    "MetricsRegistry",
    # errors
    "ReproError",
    "RuntimeStateError",
    "NullFutureError",
    "RaceError",
    "UnsupportedConstructError",
]
