"""Computation-graph analyses: reachability, the race oracle, work/span.

The oracle here is the "brute force approach … building the transitive
closure of the happens-before relation" that Section 1 contrasts with the
DTRG.  It is exact by construction, so the property tests use it as ground
truth for Theorem 2 (the detector reports a race on a location iff the
closure finds logically-parallel conflicting accesses there).

Implementation: step ids are a topological order (see
:mod:`repro.graph.computation_graph`), so the closure is computed in one
reverse sweep with Python big-int bitsets — ``reach[i]`` has bit ``j`` set
iff step ``i`` strictly precedes step ``j``.  Big-int OR is vectorized C
machinery under the hood, which keeps the oracle usable on graphs with tens
of thousands of steps (the HPC guides' "optimize the algorithm, then let the
runtime's compiled paths do the work").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import FrozenSet, Hashable, Iterator, List, Sequence, Set, Tuple

from repro.graph.computation_graph import Access, ComputationGraph

__all__ = [
    "ReachabilityClosure",
    "RacePair",
    "parallel_conflicts",
    "find_races",
    "racy_locations",
    "work_and_span",
]


class ReachabilityClosure:
    """Transitive closure of a computation graph over step ids."""

    def __init__(self, graph: ComputationGraph) -> None:
        n = graph.num_steps
        reach: List[int] = [0] * n
        succs = graph.successors
        for i in range(n - 1, -1, -1):
            mask = 0
            for j in succs[i]:
                mask |= (1 << j) | reach[j]
            reach[i] = mask
        self._reach = reach
        self.graph = graph

    def precedes(self, u: int, v: int) -> bool:
        """True iff step ``u`` strictly precedes step ``v`` (``u ≺ v``)."""
        return bool((self._reach[u] >> v) & 1)

    def parallel(self, u: int, v: int) -> bool:
        """True iff ``u ∥ v`` — distinct, with no path either way."""
        return u != v and not self.precedes(u, v) and not self.precedes(v, u)

    def descendants(self, u: int) -> Set[int]:
        """All steps strictly reachable from ``u``."""
        mask = self._reach[u]
        out: Set[int] = set()
        v = 0
        while mask:
            low = mask & -mask
            out.add(low.bit_length() - 1)
            mask ^= low
        return out

    def task_precedes(self, a: int, b_step: int) -> bool:
        """The DTRG query in oracle form: does *every step of task* ``a``
        *that executed before* ``b_step`` precede ``b_step``?

        "Executed before" is step-id order (serial depth-first execution).
        Matches the on-the-fly semantics of the paper's ``PRECEDE(A, B)``
        evaluated while ``b_step`` is the current step.
        """
        g = self.graph
        for step in g.steps:
            if step.task == a and step.sid < b_step:
                if not self.precedes(step.sid, b_step):
                    return False
        return True


@dataclass(frozen=True)
class RacePair:
    """One conflicting logically-parallel access pair found by the oracle."""

    loc: Hashable
    first: Access
    second: Access

    @property
    def tasks(self) -> Tuple[int, int]:
        return self.first.task, self.second.task


def parallel_conflicts(
    accesses: Sequence[Access], closure: ReachabilityClosure
) -> Iterator[Tuple[Access, Access]]:
    """Each pair of one location's ``accesses`` that races: at least one
    write, on logically parallel steps.  Pairs come in log order (by the
    first access, then the second)."""
    if not any(a.is_write for a in accesses):
        return
    for i, a in enumerate(accesses):
        for b in accesses[i + 1 :]:
            if (a.is_write or b.is_write) and closure.parallel(a.step, b.step):
                yield a, b


def find_races(
    graph: ComputationGraph,
    closure: ReachabilityClosure | None = None,
    max_pairs_per_loc: int | None = None,
) -> List[RacePair]:
    """Exhaustive race enumeration per Definition 3.

    For every location, every pair of accesses with at least one write is
    tested for logical parallelism.  ``max_pairs_per_loc`` caps the output
    (not the search is still quadratic per location — acceptable for tests;
    the detector exists precisely because this does not scale).
    """
    closure = closure or ReachabilityClosure(graph)
    return [
        RacePair(loc=loc, first=a, second=b)
        for loc, accesses in graph.accesses_by_loc.items()
        for a, b in islice(
            parallel_conflicts(accesses, closure), max_pairs_per_loc or None
        )
    ]


def racy_locations(
    graph: ComputationGraph, closure: ReachabilityClosure | None = None
) -> FrozenSet[Hashable]:
    """Locations with at least one race — the Theorem 2 comparison set."""
    closure = closure or ReachabilityClosure(graph)
    return frozenset(
        loc for loc, accesses in graph.accesses_by_loc.items()
        if any(parallel_conflicts(accesses, closure))
    )


def _critical_path(graph: ComputationGraph, weights: Sequence[int]) -> int:
    """Weight of the heaviest path.  Step ids are a topological order, so
    one forward sweep finds, for every step, the heaviest path into it."""
    n = graph.num_steps
    dist = [0] * n
    for i in range(n):
        di = dist[i] + weights[i]
        for j in graph.successors[i]:
            if di > dist[j]:
                dist[j] = di
    return max((dist[i] + weights[i] for i in range(n)), default=0)


def work_and_span(graph: ComputationGraph) -> Tuple[int, int]:
    """Cilkview-style ``(work, span)`` with unit step weights.

    ``work`` is the step count; ``span`` the longest path length in steps.
    ``work/span`` bounds the program's available parallelism.
    """
    n = graph.num_steps
    return n, _critical_path(graph, [1] * n)
