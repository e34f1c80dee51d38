"""Computation graphs — Section 3 of the paper.

A computation graph of one dynamic execution has a node per *step* (maximal
statement sequence containing no async/finish boundary and no ``get``,
Definition 1) and three edge kinds:

* **continue** — sequencing of steps within one task;
* **spawn** — from the step ending with an ``async``/``future`` spawn in the
  parent to the first step of the child;
* **join** — from the last step of a future task to the step after a
  ``get()`` on it, and from the last step of every task to the step after its
  Immediately Enclosing Finish.  A join from task B to task A is a **tree
  join** when A is a spawn-tree ancestor of B, otherwise a **non-tree join**
  (the construct that makes future graphs non-strict).

:class:`GraphBuilder` is an :class:`~repro.core.events.ExecutionObserver`
that reconstructs the exact computation graph from the instrumentation event
stream, including the per-step shared-memory access log.  Step ids are
allocated lazily in execution order, so *step id order is both the serial
depth-first execution order and a topological order of the graph* — the
property the brute-force oracle and the schedule simulator rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.events import ExecutionObserver

__all__ = ["EdgeKind", "Step", "Access", "ComputationGraph", "GraphBuilder"]


class EdgeKind(enum.Enum):
    CONTINUE = "continue"
    SPAWN = "spawn"
    JOIN_TREE = "join"          #: join edge whose sink task is an ancestor
    JOIN_NON_TREE = "nt-join"   #: join edge between unrelated tasks

    @property
    def is_join(self) -> bool:
        return self in (EdgeKind.JOIN_TREE, EdgeKind.JOIN_NON_TREE)


@dataclass
class Step:
    """One computation-graph node.

    ``sid`` doubles as the step's position in the serial depth-first
    execution order and in a topological order of the graph.
    """

    sid: int
    task: int                     #: tid of the owning task
    label: str = ""               #: optional pretty label (figures/tests)
    accesses: List["Access"] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"<Step {self.label or self.sid} task={self.task}>"


@dataclass(frozen=True)
class Access:
    """One shared-memory access attributed to a step."""

    step: int
    task: int
    loc: Hashable
    is_write: bool


class ComputationGraph:
    """The assembled graph: steps, typed edges, and the access log."""

    def __init__(self) -> None:
        self.steps: List[Step] = []
        self.edges: List[Tuple[int, int, EdgeKind]] = []
        self.successors: List[List[int]] = []
        self.predecessors: List[List[int]] = []
        self.first_step: Dict[int, int] = {}   #: tid -> first step sid
        self.last_step: Dict[int, int] = {}    #: tid -> last step sid
        self.task_parent: Dict[int, Optional[int]] = {}
        self.task_is_future: Dict[int, bool] = {}
        self.task_names: Dict[int, str] = {}
        self.accesses_by_loc: Dict[Hashable, List[Access]] = {}

    # -- construction -------------------------------------------------- #
    def new_step(self, task: int, label: str = "") -> Step:
        step = Step(sid=len(self.steps), task=task, label=label)
        self.steps.append(step)
        self.successors.append([])
        self.predecessors.append([])
        if task not in self.first_step:
            self.first_step[task] = step.sid
        return step

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        if src == dst:
            raise ValueError("self edge in computation graph")
        self.edges.append((src, dst, kind))
        self.successors[src].append(dst)
        self.predecessors[dst].append(src)

    def add_access(self, step: Step, loc: Hashable, is_write: bool) -> None:
        acc = Access(step=step.sid, task=step.task, loc=loc, is_write=is_write)
        step.accesses.append(acc)
        self.accesses_by_loc.setdefault(loc, []).append(acc)

    # -- task relations ------------------------------------------------ #
    def is_ancestor_task(self, a: int, b: int) -> bool:
        """Spawn-tree proper-ancestor test on task ids (O(depth))."""
        node = self.task_parent.get(b)
        while node is not None:
            if node == a:
                return True
            node = self.task_parent.get(node)
        return False

    # -- stats --------------------------------------------------------- #
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_tasks(self) -> int:
        return len(self.task_parent)

    def edge_counts(self) -> Dict[EdgeKind, int]:
        counts = {kind: 0 for kind in EdgeKind}
        for _, _, kind in self.edges:
            counts[kind] += 1
        return counts

    def steps_of_task(self, tid: int) -> List[Step]:
        return [s for s in self.steps if s.task == tid]

    def step_by_label(self, label: str) -> Step:
        """Find the unique step with ``label`` (figure tests)."""
        matches = [s for s in self.steps if s.label == label]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} steps labeled {label!r}")
        return matches[0]


class GraphBuilder(ExecutionObserver):
    """Builds a :class:`ComputationGraph` from the event stream.

    A task's "current step" ends at every boundary event; the next step is
    allocated lazily at the task's next action so that step ids follow the
    serial depth-first execution order exactly.  Pending incoming edges
    (continue from the previous step, spawn from the parent, joins from
    producers/finish scopes) are buffered per task and attached when the
    next step materializes.
    """

    def __init__(self) -> None:
        self.graph = ComputationGraph()
        self._current: Dict[int, Optional[Step]] = {}
        self._pending: Dict[int, List[Tuple[int, EdgeKind]]] = {}

    # -- step management ------------------------------------------------ #
    def _step(self, tid: int) -> Step:
        """The task's current step, materializing it if a boundary closed
        the previous one."""
        step = self._current.get(tid)
        if step is None:
            step = self.graph.new_step(tid)
            for src, kind in self._pending.pop(tid, ()):
                self.graph.add_edge(src, step.sid, kind)
            self._current[tid] = step
        return step

    def _end_step(self, tid: int) -> Step:
        """Close the task's current step, scheduling a continue edge to the
        not-yet-materialized next step."""
        step = self._step(tid)
        self._current[tid] = None
        self._pending.setdefault(tid, []).append((step.sid, EdgeKind.CONTINUE))
        return step

    def _ended_step(self, tid: int, joiner: str) -> int:
        """The last step of the ended task ``tid``; ``joiner`` names the
        get or finish end that joins it, for the error a stream raises
        that joins a task still running (a run that raised leaves one)."""
        sid = self.graph.last_step.get(tid)
        if sid is None:
            raise ValueError(f"{joiner} joins task {tid}, which is still "
                             "running: a join needs the task's end first")
        return sid

    # -- observer hooks -------------------------------------------------- #
    def on_init(self, main) -> None:
        g = self.graph
        g.task_parent[main.tid] = None
        g.task_is_future[main.tid] = False
        g.task_names[main.tid] = main.name
        self._step(main.tid)

    def on_task_create(self, parent, child) -> None:
        g = self.graph
        g.task_parent[child.tid] = parent.tid
        g.task_is_future[child.tid] = child.is_future
        g.task_names[child.tid] = child.name
        # The parent step ending with the async is the spawn-edge source.
        parent_step = self._end_step(parent.tid)
        self._pending.setdefault(child.tid, []).append(
            (parent_step.sid, EdgeKind.SPAWN)
        )

    def on_task_end(self, task) -> None:
        step = self._step(task.tid)  # every task has >= 1 step
        self.graph.last_step[task.tid] = step.sid
        self._current[task.tid] = None

    def on_get(self, consumer, producer) -> None:
        g = self.graph
        self._end_step(consumer.tid)
        kind = (
            EdgeKind.JOIN_TREE
            if g.is_ancestor_task(consumer.tid, producer.tid)
            else EdgeKind.JOIN_NON_TREE
        )
        self._pending.setdefault(consumer.tid, []).append(
            (self._ended_step(producer.tid,
                              f"the get of task {consumer.tid}"), kind)
        )

    def on_finish_start(self, scope) -> None:
        # Entering a finish is a step boundary for the owner (Definition 1).
        if scope.enclosing is None:
            return  # root finish: main's first step already open
        self._end_step(scope.owner.tid)

    def on_finish_end(self, scope) -> None:
        self._end_step(scope.owner.tid)
        pend = self._pending.setdefault(scope.owner.tid, [])
        joiner = f"the end of finish {scope.fid} (owner task {scope.owner.tid})"
        for task in scope.joins:
            pend.append((self._ended_step(task.tid, joiner),
                         EdgeKind.JOIN_TREE))

    def on_read(self, task, loc) -> None:
        self.graph.add_access(self._step(task.tid), loc, is_write=False)

    def on_write(self, task, loc) -> None:
        self.graph.add_access(self._step(task.tid), loc, is_write=True)
