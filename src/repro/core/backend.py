"""The ``PrecedeBackend`` protocol — the surface the kernel drives.

The one Algorithm 8/9 kernel (:func:`repro.core.fastcheck._kernel`)
never looks inside the reachability structure: it forwards structural
events by dense task index and asks one question, ``precede_idx(a, b)``.
Everything else — disjoint sets, interval labels, non-tree edges, vector
clocks — is an implementation choice.  This module names that seam so
the DTRG can be raced against another engine behind
``DeterminacyRaceDetector(engine=...)``.

Engines
-------
``array`` (the default; alias ``dtrg``)
    :class:`repro.core.array_dtrg.ArrayDTRG` — the paper's Algorithms
    1-7 and 10 over flat ``array('q')`` columns (ALGORITHM.md §13).  An
    ablation switch set to off selects
    :class:`~repro.core.array_dtrg.AblatedArrayDTRG` under the same
    kernel.
``vc``
    :class:`repro.core.vc_backend.VectorClockBackend` — future-aware
    per-task vector clocks that join producer clocks on ``get``
    (ALGORITHM.md §14.1); the async-finish clock algebra of Kumar,
    Agrawal & Biswas (arXiv:2112.04352) plus the future join.

The calling contract
--------------------
``precede_idx(a, b)`` is only guaranteed meaningful while ``b`` is the
currently executing task of the serial depth-first run (that is how the
kernel calls it: the current access's task is always ``b``).
Post-mortem all-pairs queries are engine-specific — after the final
end-finish merges the DTRG's answer degenerates to "same set" — so the
equivalence sweeps (``tests/properties/test_backend_equivalence.py``)
query at event boundaries with ``b`` = the current task.

Protocol surface
----------------
Task indices are dense and allocated in spawn order (slot 0 is the
root), so they equal the indices :func:`repro.core.events.encode_trace`
assigns.  Structural mutators (each but ``add_root_idx`` must bump
``mutation_epoch``, so that *epoch unchanged ⇒ no mutation happened*;
the kernel's epoch-memoized read fast path and the graph's verdict memo
rest on it):

- ``add_root_idx(key) -> 0`` — Algorithm 1, the main task.
- ``add_task_idx(parent_idx, is_future, key) -> idx`` — Algorithm 2, a
  spawn; returns the next dense index.
- ``on_terminate_idx(idx)`` — Algorithm 3, the task's last step retired.
- ``record_join_idx(consumer_idx, producer_idx)`` — Algorithm 4, a
  future ``get``.
- ``merge_idx(ancestor_idx, descendant_idx)`` — Algorithm 6/7, an
  end-finish join of one task into its IEF owner's set.  This is the
  only finish-scope event an engine sees: entering or leaving a scope
  orders nothing by itself.

Query: ``precede_idx(a_idx, b_idx) -> bool``, counted in
``num_precede_queries``, and its key-layer twin ``precede(a_key,
b_key)`` (``DeterminacyRaceDetector.precede``).

Counters, ints, monotone: ``mutation_epoch``, ``num_precede_queries``,
``num_visits``, ``num_non_tree_edges``, ``num_tree_merges`` (the last
three read 0 for engines without a search, edges or sets).

Only the *verdict stream* is comparable across engines: given the same
event stream, every engine must answer every query identically, which
makes race lists bit-identical.  Counter values are per-engine
invariants — each engine is deterministic, but engines legitimately
differ from one another (VC ticks on every join).
"""

from __future__ import annotations

from typing import Hashable, Optional, Protocol, runtime_checkable

__all__ = ["PrecedeBackend", "ENGINE_ALIASES", "ENGINES", "resolve_engine"]


@runtime_checkable
class PrecedeBackend(Protocol):
    """Structural typing for reachability engines (see module docstring)."""

    mutation_epoch: int
    num_precede_queries: int
    num_visits: int
    num_non_tree_edges: int
    num_tree_merges: int

    def add_root_idx(self, key: Optional[Hashable] = None) -> int: ...

    def add_task_idx(self, parent_idx: int, is_future: bool,
                     key: Optional[Hashable] = None) -> int: ...

    def on_terminate_idx(self, i: int) -> None: ...

    def record_join_idx(self, consumer_idx: int,
                        producer_idx: int) -> None: ...

    def merge_idx(self, ancestor_idx: int, descendant_idx: int) -> None: ...

    def precede_idx(self, ia: int, ib: int) -> bool: ...

    def precede(self, a_key: Hashable, b_key: Hashable) -> bool: ...


#: Engine names accepted by ``DeterminacyRaceDetector(engine=...)``.
ENGINES = ("array", "vc")

#: ``dtrg`` is the user-facing name of the default engine (matches the
#: fuzzer/bench row names).
ENGINE_ALIASES = {"dtrg": "array"}


def resolve_engine(engine: str) -> str:
    """Normalize an engine name, raising ``ValueError`` on unknowns."""
    if engine == "object":
        raise ValueError(
            "the reference engine (engine='object') was removed: the "
            "kernel runs every configuration, and the ablation switches "
            "(use_lsa, memoize_visit, use_intervals) select "
            "AblatedArrayDTRG"
        )
    engine = ENGINE_ALIASES.get(engine, engine)
    if engine not in ENGINES:
        raise ValueError(
            f"unknown DTRG engine {engine!r}; choose from "
            f"{ENGINES + tuple(ENGINE_ALIASES)}"
        )
    return engine
