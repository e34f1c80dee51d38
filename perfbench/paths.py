"""The four checking paths ``repro-racecheck`` offers, driven through the
library's public functions.

Each path runs one workload unit and is timed from the start of the
program run to the finished ``report.summary()``, which is what a user of
``repro-racecheck`` waits for:

* ``serial``  — ``Runtime`` with a live ``DeterminacyRaceDetector`` (the
  default ``racecheck`` path);
* ``fast``    — record with ``TraceRecorder``, ``encode_trace``, then
  ``check_trace_fast`` (``racecheck --fast``);
* ``jobs``    — record, then ``check_trace_parallel(jobs=N)``
  (``racecheck --jobs N``);
* ``threads`` — ``ThreadRuntime(workers=N)`` with a live
  ``ParallelRaceDetector`` (``racecheck --runtime threads``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Dict, Optional

from repro import (
    DeterminacyRaceDetector,
    ExecutionObserver,
    ParallelRaceDetector,
)
from repro.core.events import encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.memory.tracer import TraceRecorder


class NameCapture(ExecutionObserver):
    """Record live task names so post-hoc reports print like live ones
    (what ``racecheck --fast``/``--jobs`` attach next to the recorder)."""

    def __init__(self) -> None:
        self.names: Dict[int, str] = {}

    def on_init(self, main) -> None:
        self.names[main.tid] = main.name

    def on_task_create(self, parent, child) -> None:
        self.names[child.tid] = child.name


@dataclass
class Outcome:
    """What one path run produced."""

    seconds: float       #: program start to finished summary()
    cpu_seconds: float   #: the same span in CPU time, all threads
    summary: str
    racy_locations: set
    result: Any          #: the program's return value, for verify()
    events: Optional[int] = None   #: recorded events (trace paths only)


def record(workload, unit):
    """Run ``unit`` with only a trace recorder and a name capture attached,
    as the two-phase paths do.  Returns ``(trace, names, result)``."""
    names = NameCapture()
    recorder = TraceRecorder()
    _rt, result = workload.run(unit, [names, recorder], None)
    return recorder.trace, names.names, result


def run_serial(workload, unit, n: int) -> Outcome:
    start, cpu = perf_counter(), process_time()
    detector = DeterminacyRaceDetector()
    _rt, result = workload.run(unit, [detector], None)
    summary = detector.report.summary()
    return Outcome(perf_counter() - start, process_time() - cpu, summary,
                   detector.report.racy_locations, result)


def run_fast(workload, unit, n: int) -> Outcome:
    start, cpu = perf_counter(), process_time()
    trace, names, result = record(workload, unit)
    checked = check_trace_fast(encode_trace(trace), names=names)
    summary = checked.summary()
    return Outcome(perf_counter() - start, process_time() - cpu, summary,
                   checked.racy_locations, result, len(trace))


def run_jobs(workload, unit, n: int) -> Outcome:
    start, cpu = perf_counter(), process_time()
    trace, names, result = record(workload, unit)
    checked = check_trace_parallel(trace, jobs=n, names=names)
    summary = checked.summary()
    return Outcome(perf_counter() - start, process_time() - cpu, summary,
                   checked.racy_locations, result, len(trace))


def run_threads(workload, unit, n: int) -> Outcome:
    start, cpu = perf_counter(), process_time()
    detector = ParallelRaceDetector()
    _rt, result = workload.run(unit, [detector], n)
    summary = detector.report.summary()
    return Outcome(perf_counter() - start, process_time() - cpu, summary,
                   detector.report.racy_locations, result)


RUNNERS = {
    "serial": run_serial,
    "fast": run_fast,
    "jobs": run_jobs,
    "threads": run_threads,
}
