"""Core race-detection machinery: the paper's primary contribution.

Exports the detector (Algorithms 1-10), the dynamic task reachability graph
(Section 4.1, :class:`ArrayDTRG`), the checking kernel's result
(:class:`CheckResult`), the sharded checker, and race records.
"""

from repro.core.array_dtrg import ArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.core.disjoint_set import DisjointSets
from repro.core.events import ExecutionObserver, Trace
from repro.core.fastcheck import CheckResult
from repro.core.parallel_check import check_trace_parallel
from repro.core.races import AccessKind, Race, RaceReport, ReportPolicy

__all__ = [
    "DeterminacyRaceDetector",
    "DisjointSets",
    "ExecutionObserver",
    "Trace",
    "AccessKind",
    "Race",
    "RaceReport",
    "ReportPolicy",
    "ArrayDTRG",
    "CheckResult",
    "check_trace_parallel",
]
