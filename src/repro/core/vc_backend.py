"""Future-aware vector clocks as an online PRECEDE engine.

:class:`repro.core.parallel_detector.ParallelRaceDetector` checks
accesses against vector clocks at access-stamp granularity with its own
shadow cells.  This module instead exposes task-granular clocks as a
:class:`repro.core.backend.PrecedeBackend`, so the one Algorithm 8/9
kernel (:mod:`repro.core.fastcheck`: shadow memory, Lemma 4 reader
policy, race reporting) runs unchanged on top of vector clocks and can
be raced head-to-head against the DTRG (``engine="vc"``).  Kumar,
Agrawal & Biswas ("Efficient Data Race Detection of Async-Finish
Programs Using Vector Clocks", arXiv:2112.04352) detect races in
async-finish programs with vector clocks; the clocks here add the
future ``get`` join to that fork/finish algebra, applied eagerly like
every other join.

Clock algebra
-------------
One sparse clock (``dict`` task→int) per task:

- **spawn** — the child inherits a copy of the parent's clock plus its
  own component at 1; the parent then ticks, so the child's clock never
  covers the parent's continuation (they are parallel).
- **terminate** — the task's clock is frozen (copied — the live dict
  keeps mutating only for tasks that can still execute, but freezing by
  copy makes the invariant local rather than global).
- **get / end-finish join** — the *destination* (consumer / IEF owner)
  joins the producer's frozen clock component-wise and ticks.  This is
  the rule the DTRG realizes with non-tree edges and set merges; with
  clocks it is one component-wise max, identical for tree and non-tree
  joins — futures cost nothing extra, which is the appeal.

``precede(a, b)`` with ``b`` the currently executing task (the calling
contract in ``repro.core.backend``):

- ``a`` terminated: every completed step of ``a`` is covered by ``a``'s
  final self-component, so the verdict is
  ``clock(b)[a] >= final(a)[a]``.
- ``a`` still running: ``a``'s clock keeps advancing, so no frozen
  component can witness it.  Under the serial depth-first execution the
  live tasks are exactly the current task's spawn-tree ancestor chain,
  and every completed step of an ancestor happened before control
  reached ``b`` — so the verdict is the ancestor test, computed on the
  spawn tree (this mirrors what the DTRG answers via interval
  containment for live ancestors).

Cost shape: a spawn copies the parent's clock — O(live components) per
spawn, O(T²) worst case over a T-task program — and a join is O(clock
size).  The comparison table from ``repro-bench --backends``
(``docs/BACKENDS.md``, ALGORITHM.md §14.2) measures exactly that
trade-off against the DTRG's near-constant-size per-task state.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

__all__ = ["VectorClockBackend"]


class VectorClockBackend:
    """Online vector-clock PRECEDE engine (protocol: ``PrecedeBackend``).

    Clocks are indexed by dense task index, like ``ArrayDTRG``'s columns:
    the ``*_idx`` methods are what the kernel drives, and the key-layer
    twins map keys through ``index``.  ``mutation_epoch`` bumps on every
    structural mutator, as the protocol asks.  ``num_visits``,
    ``num_non_tree_edges`` and ``num_tree_merges`` read 0: clocks search
    nothing and keep no edges or sets.
    """

    __slots__ = (
        "index",
        "keys",
        "_clocks",
        "_final",
        "_parent",
        "mutation_epoch",
        "num_precede_queries",
        "num_visits",
        "num_non_tree_edges",
        "num_tree_merges",
    )

    def __init__(self) -> None:
        self.index: Dict[Hashable, int] = {}
        self.keys: List[Hashable] = []
        #: Live clock per task (mutated in place while the task runs).
        self._clocks: List[Dict[int, int]] = []
        #: Frozen clock at termination; ``None`` while the task is live.
        self._final: List[Optional[Dict[int, int]]] = []
        #: Spawn-tree parent index (``-1`` for the root), for the
        #: live-ancestor test.
        self._parent: List[int] = []
        self.mutation_epoch = 0
        self.num_precede_queries = 0
        self.num_visits = 0
        self.num_non_tree_edges = 0
        self.num_tree_merges = 0

    def _new_slot(self, parent_idx: int, clock: Dict[int, int],
                  key) -> int:
        i = len(self.keys)
        if key is None:
            key = i
        self.index[key] = i
        self.keys.append(key)
        clock[i] = 1
        self._clocks.append(clock)
        self._final.append(None)
        self._parent.append(parent_idx)
        self.mutation_epoch += 1
        return i

    # ------------------------------------------------------------------ #
    # Structural mutators — index layer                                  #
    # ------------------------------------------------------------------ #
    def add_root_idx(self, key=None) -> int:
        return self._new_slot(-1, {}, key)

    def add_task_idx(self, parent_idx: int, is_future: bool,
                     key=None) -> int:
        pvc = self._clocks[parent_idx]
        i = self._new_slot(parent_idx, dict(pvc), key)
        pvc[parent_idx] += 1
        return i

    def on_terminate_idx(self, i: int) -> None:
        self._final[i] = dict(self._clocks[i])
        self.mutation_epoch += 1

    def record_join_idx(self, consumer_idx: int, producer_idx: int) -> None:
        self._join(consumer_idx, producer_idx)

    def merge_idx(self, ancestor_idx: int, descendant_idx: int) -> None:
        self._join(ancestor_idx, descendant_idx)

    def _join(self, dst: int, src: int) -> None:
        svc = self._final[src]
        if svc is None:
            raise ValueError(
                f"vector-clock join of task {self.keys[src]!r} before its "
                "task-end event: the event stream is not a serial "
                "depth-first execution order"
            )
        dvc = self._clocks[dst]
        for tid, stamp in svc.items():
            if stamp > dvc.get(tid, 0):
                dvc[tid] = stamp
        dvc[dst] += 1
        self.mutation_epoch += 1

    # ------------------------------------------------------------------ #
    # Structural mutators — key layer                                    #
    # ------------------------------------------------------------------ #
    def add_root(self, key: Hashable, *, name: str = "") -> None:
        self.add_root_idx(key)

    def add_task(
        self,
        parent_key: Hashable,
        child_key: Hashable,
        *,
        is_future: bool = False,
        name: str = "",
    ) -> None:
        self.add_task_idx(self.index[parent_key], is_future, child_key)

    def on_terminate(self, key: Hashable) -> None:
        self.on_terminate_idx(self.index[key])

    def record_join(
        self, consumer_key: Hashable, producer_key: Hashable
    ) -> None:
        self._join(self.index[consumer_key], self.index[producer_key])

    def merge(self, ancestor_key: Hashable, descendant_key: Hashable) -> None:
        self._join(self.index[ancestor_key], self.index[descendant_key])

    # ------------------------------------------------------------------ #
    # Query                                                              #
    # ------------------------------------------------------------------ #
    def precede(self, a_key: Hashable, b_key: Hashable) -> bool:
        return self.precede_idx(self.index[a_key], self.index[b_key])

    def precede_idx(self, ia: int, ib: int) -> bool:
        self.num_precede_queries += 1
        if ia == ib:
            return True
        final = self._final[ia]
        if final is None:
            # Live ancestor test on the spawn tree (see module docstring).
            parent = self._parent
            cursor = parent[ib]
            while cursor >= 0:
                if cursor == ia:
                    return True
                cursor = parent[cursor]
            return False
        return self._clocks[ib].get(ia, 0) >= final[ia]
