"""The ``PrecedeBackend`` protocol — pluggable reachability engines.

The detector (Algorithms 1–9) never looks inside the reachability
structure: it forwards structural events and asks one question,
``precede(a, b)``.  Everything else — disjoint sets, interval labels,
non-tree edges, vector clocks — is an implementation
choice.  This module names that seam so alternative engines can be
raced against the paper's DTRG behind ``DeterminacyRaceDetector
(engine=...)`` (ROADMAP open item 2).

Engines
-------
``array`` (the default)
    :class:`repro.core.array_dtrg.ArrayDTRG` — the same algorithms over
    flat ``array('q')`` columns (ALGORITHM.md §13), driven by the one
    Algorithm 8/9 kernel (:mod:`repro.core.fastcheck`) rather than
    through this protocol's per-access ``precede`` calls.
``object``  (alias ``dtrg``)
    :class:`repro.core.reachability.DynamicTaskReachabilityGraph` — the
    paper's Algorithms 1–10 behind the plain Algorithms 8–9.  The
    reference implementation the kernel is tested against, the only
    engine with ablation switches, and the graph
    :func:`repro.obs.provenance.explain_races` certifies witnesses on.
``vc``
    :class:`repro.core.vc_backend.VectorClockBackend` — future-aware
    per-task vector clocks (cf. Kumar et al., arXiv:2112.04352) that
    join producer clocks on ``get`` (ALGORITHM.md §14.1).

The calling contract
--------------------
``precede(a, b)`` is only guaranteed meaningful while ``b`` is the
currently executing task of the serial depth-first run (that is how the
shadow memory calls it: the current access's task is always ``b``).
Post-mortem all-pairs queries are engine-specific — after the final
end-finish merges the DTRG's answer degenerates to "same set" — so the
equivalence sweeps (``tests/properties/test_backend_equivalence.py``)
query at event boundaries with ``b`` = the current task.

Protocol surface
----------------
Structural mutators (each must bump ``mutation_epoch``, so that *epoch
unchanged ⇒ no mutation happened*; the graphs' verdict memos rest on
it):

- ``add_root(key, *, name="")`` — Algorithm 1, the main task.
- ``add_task(parent_key, child_key, *, is_future=False, name="")`` —
  Algorithm 2, a spawn.
- ``on_terminate(key)`` — Algorithm 3, the task's last step retired.
- ``record_join(consumer_key, producer_key)`` — Algorithm 4, a future
  ``get``.
- ``merge(ancestor_key, descendant_key)`` — Algorithm 6/7, an
  end-finish join of one task into its IEF owner's set.  This is the
  only finish-scope event an engine sees: entering or leaving a scope
  orders nothing by itself.

Query + invariant stats:

- ``precede(a_key, b_key) -> bool`` — must count in
  ``num_precede_queries``.
- ``mutation_epoch`` / ``num_precede_queries`` — ints, monotone.

Only the *verdict stream* is comparable across engines: given the same
event stream, every engine must answer every ``precede`` call
identically, which makes race lists bit-identical.  Counter values
(``mutation_epoch``, query counts) are per-engine invariants — each
engine is deterministic, but engines legitimately differ from one
another (VC ticks on every join).
"""

from __future__ import annotations

from typing import Hashable, Protocol, runtime_checkable

__all__ = ["PrecedeBackend", "ENGINE_ALIASES", "ENGINES", "resolve_engine"]


@runtime_checkable
class PrecedeBackend(Protocol):
    """Structural typing for reachability engines (see module docstring)."""

    mutation_epoch: int
    num_precede_queries: int

    def add_root(self, key: Hashable, *, name: str = "") -> None: ...

    def add_task(
        self,
        parent_key: Hashable,
        child_key: Hashable,
        *,
        is_future: bool = False,
        name: str = "",
    ) -> None: ...

    def on_terminate(self, key: Hashable) -> None: ...

    def record_join(
        self, consumer_key: Hashable, producer_key: Hashable
    ) -> None: ...

    def merge(
        self, ancestor_key: Hashable, descendant_key: Hashable
    ) -> None: ...

    def precede(self, a_key: Hashable, b_key: Hashable) -> bool: ...


#: Engine names accepted by ``DeterminacyRaceDetector(engine=...)``.
ENGINES = ("object", "array", "vc")

#: ``dtrg`` is the user-facing name for the reference object engine
#: (matches the fuzzer/bench row names).
ENGINE_ALIASES = {"dtrg": "object"}


def resolve_engine(engine: str) -> str:
    """Normalize an engine name, raising ``ValueError`` on unknowns."""
    engine = ENGINE_ALIASES.get(engine, engine)
    if engine not in ENGINES:
        raise ValueError(
            f"unknown DTRG engine {engine!r}; choose from "
            f"{ENGINES + tuple(ENGINE_ALIASES)}"
        )
    return engine
