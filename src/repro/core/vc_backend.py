"""Future-aware vector clocks as an online PRECEDE engine.

:class:`repro.core.parallel_detector.ParallelRaceDetector` checks
accesses against vector clocks at access-stamp granularity with its own
shadow cells.  This module instead exposes task-granular clocks as a
:class:`repro.core.backend.PrecedeBackend`, so the paper's detector
(Algorithms 8–9 shadow memory, Lemma 4 reader policy, race reporting,
provenance-free) can run unchanged on top of vector clocks and be raced
head-to-head against the DTRG engines — cf. Kumar, Agrawal, Gilbert &
Utterback ("Optimal Parallel Race Detection for Fork-Join Programs with
Futures", arXiv:2112.04352), who show clock-style schemes remain
competitive when every join edge is applied eagerly.

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

from typing import Dict, Hashable

__all__ = ["VectorClockBackend"]


class VectorClockBackend:
    """Online vector-clock PRECEDE engine (protocol: ``PrecedeBackend``).

    ``mutation_epoch`` bumps on every structural mutator, as the
    protocol asks; it is reported in ``perf_stats`` only.
    """

    __slots__ = (
        "_clocks",
        "_final",
        "_parent",
        "_alive",
        "mutation_epoch",
        "num_precede_queries",
    )

    def __init__(self) -> None:
        #: key -> live clock (mutated in place while the task runs).
        self._clocks: Dict[Hashable, Dict[Hashable, int]] = {}
        #: key -> frozen clock at termination.
        self._final: Dict[Hashable, Dict[Hashable, int]] = {}
        #: key -> parent key (spawn tree, for the live-ancestor test).
        self._parent: Dict[Hashable, Hashable] = {}
        self._alive: Dict[Hashable, bool] = {}
        self.mutation_epoch = 0
        self.num_precede_queries = 0

    # ------------------------------------------------------------------ #
    # Structural mutators                                                #
    # ------------------------------------------------------------------ #
    def add_root(self, key: Hashable, *, name: str = "") -> None:
        self._clocks[key] = {key: 1}
        self._parent[key] = None
        self._alive[key] = True
        self.mutation_epoch += 1

    def add_task(
        self,
        parent_key: Hashable,
        child_key: Hashable,
        *,
        is_future: bool = False,
        name: str = "",
    ) -> None:
        pvc = self._clocks[parent_key]
        child = dict(pvc)
        child[child_key] = 1
        self._clocks[child_key] = child
        pvc[parent_key] = pvc.get(parent_key, 0) + 1
        self._parent[child_key] = parent_key
        self._alive[child_key] = True
        self.mutation_epoch += 1

    def on_terminate(self, key: Hashable) -> None:
        self._final[key] = dict(self._clocks[key])
        self._alive[key] = False
        self.mutation_epoch += 1

    def record_join(
        self, consumer_key: Hashable, producer_key: Hashable
    ) -> None:
        self._join(consumer_key, producer_key)

    def merge(self, ancestor_key: Hashable, descendant_key: Hashable) -> None:
        self._join(ancestor_key, descendant_key)

    def _join(self, dst: Hashable, src: Hashable) -> None:
        svc = self._final.get(src)
        if svc is None:
            raise ValueError(
                f"vector-clock join of task {src!r} before its task-end "
                "event: the event stream is not a serial depth-first "
                "execution order"
            )
        dvc = self._clocks[dst]
        for tid, stamp in svc.items():
            if stamp > dvc.get(tid, 0):
                dvc[tid] = stamp
        dvc[dst] = dvc.get(dst, 0) + 1
        self.mutation_epoch += 1

    # ------------------------------------------------------------------ #
    # Query                                                              #
    # ------------------------------------------------------------------ #
    def precede(self, a_key: Hashable, b_key: Hashable) -> bool:
        self.num_precede_queries += 1
        if a_key == b_key:
            return True
        if self._alive[a_key]:
            # Live ancestor test on the spawn tree (see module docstring).
            cursor = self._parent[b_key]
            while cursor is not None:
                if cursor == a_key:
                    return True
                cursor = self._parent[cursor]
            return False
        return self._clocks[b_key].get(a_key, 0) >= self._final[a_key][a_key]
