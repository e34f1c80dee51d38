"""Execution substrates for async/finish/future programs: the serial
depth-first elision (Section 2 model), the work-stealing ThreadRuntime,
the cooperative AsyncioRuntime — all on the RuntimeBase model core —
plus the parallel-execution analyses built on recorded computation
graphs."""

from repro.runtime.accumulator import Accumulator
from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.runtime.base import RuntimeBase
from repro.runtime.depends import DependsTaskGroup
from repro.runtime.errors import (
    NullFutureError,
    RaceError,
    ReproError,
    RuntimeStateError,
    UnsupportedConstructError,
)
from repro.runtime.executor import ThreadRuntime
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task, TaskKind
from repro.runtime.workstealing import (
    ScheduleStats,
    WorkStealingSimulator,
    greedy_schedule,
    speedup_curve,
)

__all__ = [
    "Runtime",
    "RuntimeBase",
    "ThreadRuntime",
    "AsyncioRuntime",
    "Task",
    "TaskKind",
    "FinishScope",
    "FutureHandle",
    "DependsTaskGroup",
    "Accumulator",
    "ScheduleStats",
    "WorkStealingSimulator",
    "greedy_schedule",
    "speedup_curve",
    "ReproError",
    "RuntimeStateError",
    "NullFutureError",
    "RaceError",
    "UnsupportedConstructError",
]
