"""Core race-detection machinery: the paper's primary contribution.

Exports the detector (Algorithms 1-10), the dynamic task reachability graph
(Section 4.1), shadow memory (Section 4.2), and race records.
"""

from repro.core.detector import DeterminacyRaceDetector
from repro.core.disjoint_set import DisjointSets
from repro.core.events import ExecutionObserver, Trace
from repro.core.exact import ExactDetector, ExactTaskReachability
from repro.core.labels import IntervalLabel, LabelAllocator
from repro.core.fastcheck import CheckResult
from repro.core.parallel_check import check_trace_parallel
from repro.core.races import AccessKind, Race, RaceReport, ReportPolicy
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.core.shadow import ShadowCell, ShadowMemory

__all__ = [
    "DeterminacyRaceDetector",
    "ExactDetector",
    "ExactTaskReachability",
    "DisjointSets",
    "ExecutionObserver",
    "Trace",
    "IntervalLabel",
    "LabelAllocator",
    "AccessKind",
    "Race",
    "RaceReport",
    "ReportPolicy",
    "DynamicTaskReachabilityGraph",
    "CheckResult",
    "check_trace_parallel",
    "ShadowCell",
    "ShadowMemory",
]
