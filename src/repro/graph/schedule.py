"""Schedules over a recorded computation graph.

CPython's GIL prevents truly concurrent bytecodes, so the paper's
parallel claims are checked the way Definition 3 quantifies them — over
*all possible executions for a given input*: every parallel execution
runs the steps of the computation graph in some linear extension of its
partial order.  This module schedules recorded graphs two ways.

**Memory outcomes (Appendix A.3).**  :func:`schedule_outcome` evaluates
what one schedule makes observable: the **final writer** of each location
(functional determinism of final state) and the **writer seen by every
read** (dag-consistency of intermediate values).  For race-free programs
every extension yields identical outcomes (the Determinism Property); for
a program with a race on location ``l``, :func:`demonstrate_nondeterminism`
constructs two concrete schedules whose outcomes differ on ``l`` — turning
each race report into an executable witness.

**Cost model (Section 5).**  The paper's testbed is a 16-core machine,
but its detector runs on a 1-processor depth-first execution; the
*parallel* behaviour of the analyzed programs lives in their graphs.
:func:`greedy_schedule` (level-synchronized greedy list scheduling,
which satisfies Brent's bound ``T_p <= T_1/p + T_inf``) and
:class:`WorkStealingSimulator` (per-worker LIFO deques and random-victim
steals, the Blumofe-Leiserson model the Habanero/Cilk runtimes implement)
execute the steps on ``p`` workers in virtual time, giving makespans and
steal counts: the §5 remark that Jacobi-style dependences "cannot be
represented using only async-finish constructs without loss of
parallelism" becomes a measurable speedup gap (``benchmarks/
bench_speedup.py``).  Step weights default to ``1 + number of recorded
shared accesses``; pass ``unit_weights=True`` for pure step counting.

Every schedule is one ready-set (Kahn) loop, :func:`_run`, under a pick
rule: a uniform choice among ready steps, the lowest id with one step
deferred, a replay of a given order, FIFO over ``p`` workers, or
work-stealing deques.  The loop owns the in-degrees, the release of
successors and the cycle check; a rule only holds the ready steps and
says which ones finish next.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.analysis import (
    ReachabilityClosure,
    _critical_path,
    parallel_conflicts,
)
from repro.graph.computation_graph import ComputationGraph

__all__ = [
    "MemoryOutcome",
    "schedule_outcome",
    "random_linear_extension",
    "extension_preferring",
    "sample_outcomes",
    "is_determinate",
    "demonstrate_nondeterminism",
    "ScheduleStats",
    "step_weights",
    "greedy_schedule",
    "WorkStealingSimulator",
]


def _run(graph: ComputationGraph, release, pick, named=()) -> None:
    """Kahn's algorithm over ``graph`` under one pick rule.

    ``release(step, worker)`` hands the rule a step whose predecessors
    have all finished: the roots in id order by worker 0, any other step
    by the worker that finished its last predecessor.  ``pick()`` returns
    the ``(step, worker)`` pairs that finish next, or ``None`` when no
    step is ready or running.  ``named`` are the step ids the rule refers
    to; each must be a step of ``graph``.
    """
    n = graph.num_steps
    for step in named:
        if step not in range(n):
            raise ValueError(f"step {step!r} is not in the graph ({n} steps)")
    indeg = [len(p) for p in graph.predecessors]
    successors = graph.successors
    for step, d in enumerate(indeg):
        if d == 0:
            release(step, 0)
    done = 0
    while done < n:
        finished = pick()
        if finished is None:
            raise ValueError("computation graph contains a cycle")
        for step, worker in finished:
            done += 1
            for succ in successors[step]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    release(succ, worker)


# ---------------------------------------------------------------------- #
# Memory outcomes                                                        #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MemoryOutcome:
    """Observable memory behaviour of one schedule.

    ``final_writer[loc]`` is the step id of the last write to ``loc`` (or
    ``None``); ``read_sees[i]`` is, for the ``i``-th read in the graph's
    per-location access logs (flattened in (loc, index) order), the step id
    of the write it observed (``None`` = initial value).
    """

    final_writer: Tuple[Tuple[Hashable, Optional[int]], ...]
    read_sees: Tuple[Tuple[Hashable, int, Optional[int]], ...]

    def differs_from(self, other: "MemoryOutcome") -> List[str]:
        """Human-readable list of observable differences.

        Entries are aligned by location key (and, for reads, the read's
        per-location index), never positionally: two outcomes built from
        different graphs may enumerate locations in different orders or
        cover different location sets, and a positional ``zip`` would both
        misreport aligned pairs and silently drop the longer tail.
        Locations or reads present in only one outcome are reported too.
        """
        diffs = []
        final_a = dict(self.final_writer)
        final_b = dict(other.final_writer)
        locs = list(final_a) + [l for l in final_b if l not in final_a]
        for loc in sorted(locs, key=repr):
            if loc not in final_a:
                diffs.append(f"location {loc!r} only in other outcome")
            elif loc not in final_b:
                diffs.append(f"location {loc!r} only in this outcome")
            elif final_a[loc] != final_b[loc]:
                diffs.append(
                    f"final value of {loc!r}: "
                    f"step {final_a[loc]} vs {final_b[loc]}"
                )
        reads_a = {(loc, i): s for loc, i, s in self.read_sees}
        reads_b = {(loc, i): s for loc, i, s in other.read_sees}
        keys = list(reads_a) + [k for k in reads_b if k not in reads_a]
        for key in sorted(keys, key=lambda k: (repr(k[0]), k[1])):
            loc, i = key
            if key not in reads_a:
                diffs.append(f"read #{i} of {loc!r} only in other outcome")
            elif key not in reads_b:
                diffs.append(f"read #{i} of {loc!r} only in this outcome")
            elif reads_a[key] != reads_b[key]:
                diffs.append(
                    f"read #{i} of {loc!r} sees write "
                    f"{reads_a[key]} vs {reads_b[key]}"
                )
        return diffs


def schedule_outcome(
    graph: ComputationGraph, order: Sequence[int], *, validate: bool = True
) -> MemoryOutcome:
    """Evaluate the memory outcome of executing steps in ``order``.

    Writes are modeled as unique tokens (their step ids): two schedules have
    observably identical behaviour iff every location's final token and
    every read's observed token match.  With ``validate``, raises
    ``ValueError`` unless ``order`` is a permutation of all steps that
    respects every edge.
    """
    pos = {sid: i for i, sid in enumerate(order)}
    if validate:
        if len(order) != graph.num_steps or len(pos) != len(order):
            raise ValueError("order must be a permutation of all steps")
        ready = set()
        steps = iter(order)

        def replay():
            step = next(steps)
            if step not in ready:
                src = next(p for p in graph.predecessors[step]
                           if pos[p] > pos[step])
                raise ValueError(f"order violates edge {src} -> {step}")
            return ((step, 0),)

        _run(graph, lambda step, _: ready.add(step), replay, named=order)
    final: List[Tuple[Hashable, Optional[int]]] = []
    sees: List[Tuple[Hashable, int, Optional[int]]] = []
    for loc in sorted(graph.accesses_by_loc, key=repr):
        accesses = graph.accesses_by_loc[loc]
        # Execution order of this location's accesses under the schedule.
        ordered = sorted(accesses, key=lambda a: pos[a.step])
        last_write: Optional[int] = None
        by_original = {id(a): i for i, a in enumerate(accesses)}
        for acc in ordered:
            if acc.is_write:
                last_write = acc.step
            else:
                sees.append((loc, by_original[id(acc)], last_write))
        final.append((loc, last_write))
    sees.sort(key=lambda t: (repr(t[0]), t[1]))
    return MemoryOutcome(final_writer=tuple(final), read_sees=tuple(sees))


def random_linear_extension(
    graph: ComputationGraph, rng: random.Random
) -> List[int]:
    """A uniformly-randomized (not uniformly-distributed) topological order:
    Kahn's algorithm choosing uniformly among currently-ready steps — the
    standard model of an adversarial parallel scheduler."""
    ready: List[int] = []
    order: List[int] = []

    def pick():
        if not ready:
            return None
        idx = rng.randrange(len(ready))
        ready[idx], ready[-1] = ready[-1], ready[idx]
        order.append(ready.pop())
        return ((order[-1], 0),)

    _run(graph, lambda step, _: ready.append(step), pick)
    return order


def extension_preferring(
    graph: ComputationGraph, first: int, then: int
) -> List[int]:
    """A linear extension scheduling step ``first`` before step ``then``.

    Requires ``first ∥ then`` (or ``first ≺ then``); realized with Kahn's
    algorithm that defers ``then`` while anything else is ready.
    """
    # Deferring `then` suffices: if `then` ever becomes the only ready step
    # before `first` ran, every unemitted step (including `first`) would be
    # a descendant of `then`, contradicting `first ∥ then`.
    # Priority: the deferred step sorts last; everything else by id.
    heap: List[Tuple[bool, int]] = []
    order: List[int] = []

    def pick():
        if not heap:
            return None
        order.append(heapq.heappop(heap)[1])
        return ((order[-1], 0),)

    _run(graph, lambda step, _: heapq.heappush(heap, (step == then, step)),
         pick, named=(first, then))
    if order.index(first) > order.index(then):
        raise ValueError(
            f"no linear extension puts {first} before {then}: {then} ≺ {first}"
        )
    return order


def sample_outcomes(
    graph: ComputationGraph,
    *,
    samples: int = 20,
    seed: int = 0,
) -> List[MemoryOutcome]:
    """Outcomes of ``samples`` randomly scheduled executions."""
    rng = random.Random(seed)
    return [
        schedule_outcome(graph, random_linear_extension(graph, rng), validate=False)
        for _ in range(samples)
    ]


def is_determinate(
    graph: ComputationGraph,
    *,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """True if every sampled schedule yields the same observable outcome.

    A ``True`` answer is evidence, not proof (sampling); ``False`` is a
    definite witness of nondeterminism.  Race-free programs are guaranteed
    ``True`` by the Determinism Property — the property tests check that.
    """
    outcomes = sample_outcomes(graph, samples=samples, seed=seed)
    return all(o == outcomes[0] for o in outcomes[1:])


def demonstrate_nondeterminism(
    graph: ComputationGraph,
    loc: Hashable,
    closure: Optional[ReachabilityClosure] = None,
) -> Optional[Tuple[MemoryOutcome, MemoryOutcome]]:
    """Construct two schedules with observably different behaviour on
    ``loc``, if a race on ``loc`` permits it.

    Finds each logically-parallel conflicting pair and schedules it both
    ways.  Returns ``None`` when no pair produces an observable difference —
    which can legitimately happen even for unique write tokens: racing
    writes may both be masked by a later, ordered write and never read.
    This is the paper's "racy, yet determinate" caveat (Section 3) made
    executable.
    """
    closure = closure or ReachabilityClosure(graph)

    def loc_view(outcome: MemoryOutcome):
        final = dict(outcome.final_writer).get(loc)
        reads = tuple(
            entry for entry in outcome.read_sees if entry[0] == loc
        )
        return final, reads

    accesses = graph.accesses_by_loc.get(loc, [])
    for a, b in parallel_conflicts(accesses, closure):
        order_ab = extension_preferring(graph, a.step, b.step)
        order_ba = extension_preferring(graph, b.step, a.step)
        out_ab = schedule_outcome(graph, order_ab, validate=False)
        out_ba = schedule_outcome(graph, order_ba, validate=False)
        # The two extensions may also reorder unrelated parallel
        # steps; only a difference *on loc* counts as a witness.
        if loc_view(out_ab) != loc_view(out_ba):
            return out_ab, out_ba
    return None


# ---------------------------------------------------------------------- #
# Cost model                                                             #
# ---------------------------------------------------------------------- #
def step_weights(
    graph: ComputationGraph, unit_weights: bool = False
) -> List[int]:
    """Per-step execution costs."""
    if unit_weights:
        return [1] * graph.num_steps
    return [1 + len(step.accesses) for step in graph.steps]


@dataclass
class ScheduleStats:
    """Outcome of one simulated parallel execution."""

    workers: int
    makespan: int            #: simulated time units
    work: int                #: sum of step weights (T_1)
    span: int                #: critical-path weight (T_inf)
    busy: int                #: worker-time units spent executing
    steals: int = 0          #: successful steals (work stealing only)
    failed_steals: int = 0

    @property
    def speedup(self) -> float:
        return self.work / self.makespan if self.makespan else 0.0

    @property
    def utilization(self) -> float:
        total = self.makespan * self.workers
        return self.busy / total if total else 0.0

    def satisfies_brent_bound(self) -> bool:
        """``T_p <= ceil(T_1/p) + T_inf`` (greedy-scheduler guarantee)."""
        return self.makespan <= math.ceil(self.work / self.workers) + self.span


def greedy_schedule(
    graph: ComputationGraph,
    workers: int,
    *,
    unit_weights: bool = False,
) -> ScheduleStats:
    """Level-synchronized greedy scheduling of the graph on ``workers``."""
    if workers < 1:
        raise ValueError("need at least one worker")
    weights = step_weights(graph, unit_weights)
    # deque: the same FIFO order as a list popped from the front, but each
    # popleft is O(1) — list.pop(0) made wide graphs O(n^2).
    ready: deque = deque()
    remaining: Dict[int, int] = {}  # running step -> time left
    time = busy = 0

    def pick():
        nonlocal time, busy
        # Fill idle workers from the ready pool (FIFO: oldest first).
        while ready and len(remaining) < workers:
            step = ready.popleft()
            remaining[step] = weights[step]
        if not remaining:
            return None
        # Advance time by the smallest remaining cost (event-driven).
        delta = min(remaining.values())
        time += delta
        busy += delta * len(remaining)
        finished = [(s, 0) for s, r in remaining.items() if r == delta]
        for step in list(remaining):
            remaining[step] -= delta
            if remaining[step] == 0:
                del remaining[step]
        return finished

    _run(graph, lambda step, _: ready.append(step), pick)
    return ScheduleStats(
        workers=workers,
        makespan=time,
        work=sum(weights),
        span=_critical_path(graph, weights),
        busy=busy,
    )


class WorkStealingSimulator:
    """Randomized work stealing over a computation graph.

    Each worker owns a LIFO deque.  When a step completes, its newly
    enabled successors are pushed onto the finishing worker's deque (the
    continuation-first discipline).  An idle worker picks a victim
    uniformly at random among the *other* workers and probes the *top*
    (oldest end) of its deque: a non-empty deque yields the stolen step, an
    empty one is a failed steal.  Either way the attempt costs the worker
    that time unit — a stolen step starts executing on the next cycle, and
    a failed attempt leaves the worker idle for the cycle.  With a single
    worker there is no victim to probe, so no attempt is counted.

    When an :class:`repro.obs.Observability` sink is passed, every executed
    step becomes a duration span on its worker's track and every steal
    attempt an instant, all stamped with the *virtual* cycle clock (one
    simulated cycle = 1us in the trace) so Perfetto renders the simulated
    schedule itself.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        workers: int,
        *,
        seed: int = 0,
        unit_weights: bool = False,
        obs=None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.graph = graph
        self.workers = workers
        self.rng = random.Random(seed)
        self.weights = step_weights(graph, unit_weights)
        self._obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )

    def run(self) -> ScheduleStats:
        workers, weights, rng, obs = (
            self.workers, self.weights, self.rng, self._obs)
        # Released steps go to the finishing worker's deque; the roots to
        # worker 0 (the "main" worker).
        deques: List[List[int]] = [[] for _ in range(workers)]
        current: List[Optional[int]] = [None] * workers
        left: List[int] = [0] * workers
        time = busy = steals = failed = 0

        def cycle():
            nonlocal time, busy, steals, failed
            if all(c is None for c in current) and not any(deques):
                return None
            # 1. assign work; steal attempts burn the coming time unit.
            stealing = [False] * workers
            for w in range(workers):
                if current[w] is None:
                    if deques[w]:
                        step = deques[w].pop()  # LIFO: own newest work
                        current[w] = step
                        left[w] = weights[step]
                    elif workers > 1:
                        # Uniform random victim among the other workers;
                        # probing an empty deque is the failed steal.
                        victim = rng.randrange(workers - 1)
                        if victim >= w:
                            victim += 1
                        depth = len(deques[victim])
                        if deques[victim]:
                            step = deques[victim].pop(0)  # steal oldest
                            current[w] = step
                            left[w] = weights[step]
                            stealing[w] = True
                            steals += 1
                        else:
                            failed += 1
                        if obs is not None:
                            obs.ws_steal(
                                w, victim, time,
                                hit=stealing[w], victim_depth=depth,
                            )
            # 2. advance one time unit
            time += 1
            finished = []
            for w in range(workers):
                step = current[w]
                if step is None or stealing[w]:
                    continue  # idle, or paying for the steal this cycle
                busy += 1
                left[w] -= 1
                if left[w] == 0:
                    current[w] = None
                    if obs is not None:
                        obs.ws_step(
                            w, step, time - weights[step], weights[step])
                    finished.append((step, w))
            return finished

        _run(self.graph, lambda step, w: deques[w].append(step), cycle)
        return ScheduleStats(
            workers=workers,
            makespan=time,
            work=sum(weights),
            span=_critical_path(self.graph, weights),
            busy=busy,
            steals=steals,
            failed_steals=failed,
        )
