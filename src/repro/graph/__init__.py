"""Computation-graph substrate (Section 3) and analyses."""

from repro.graph.analysis import (
    RacePair,
    ReachabilityClosure,
    find_races,
    racy_locations,
    work_and_span,
)
from repro.graph.computation_graph import (
    Access,
    ComputationGraph,
    EdgeKind,
    GraphBuilder,
    Step,
)
from repro.graph.dot import to_dot

__all__ = [
    "Access",
    "ComputationGraph",
    "EdgeKind",
    "GraphBuilder",
    "Step",
    "ReachabilityClosure",
    "RacePair",
    "find_races",
    "racy_locations",
    "work_and_span",
    "to_dot",
]
