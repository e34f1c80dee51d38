"""The determinacy race detector — Algorithms 1-10 assembled.

:class:`DeterminacyRaceDetector` is an
:class:`~repro.core.events.ExecutionObserver` that plugs into the serial
depth-first :class:`~repro.runtime.runtime.Runtime` (or into a replayed
:class:`~repro.core.events.Trace`) and implements the paper's Section 4.3
machinery:

======================  ==========================================
Paper                    Here
======================  ==========================================
Algorithm 1 (init)       :meth:`on_init`
Algorithm 2 (spawn)      :meth:`on_task_create`
Algorithm 3 (end)        :meth:`on_task_end`
Algorithm 4 (get)        :meth:`on_get`
Algorithm 5 (start fin)  :meth:`on_finish_start` (bookkeeping only)
Algorithm 6 (end fin)    :meth:`on_finish_end`
Algorithm 7 (merge)      :meth:`DynamicTaskReachabilityGraph.merge`
Algorithm 8 (write)      :meth:`on_write` → :meth:`ShadowMemory.write`
Algorithm 9 (read)       :meth:`on_read` → :meth:`ShadowMemory.read`
Algorithm 10 (precede)   :meth:`precede` → DTRG
======================  ==========================================

Theorem 2: run against a serial depth-first execution, the detector reports a
race on a location iff some pair of logically-parallel conflicting accesses
to that location exists in the computation graph — property-tested against
the brute-force graph oracle in ``tests/properties/``.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.backend import resolve_engine
from repro.core.events import ExecutionObserver
from repro.core.races import AccessKind, Race, RaceReport, ReportPolicy
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.core.shadow import ShadowMemory
from repro.runtime.errors import RaceError

__all__ = ["DeterminacyRaceDetector"]

_KIND = {
    "read-write": AccessKind.READ_WRITE,
    "write-write": AccessKind.WRITE_WRITE,
    "write-read": AccessKind.WRITE_READ,
}


class DeterminacyRaceDetector(ExecutionObserver):
    """On-the-fly determinacy race detector for async/finish/future programs.

    Parameters
    ----------
    policy:
        :attr:`ReportPolicy.COLLECT` (default) records every race and lets
        the program finish; :attr:`ReportPolicy.RAISE` raises
        :class:`~repro.runtime.errors.RaceError` at the first one.
    dedupe:
        Collapse repeated reports of the same (location, pair, kind).
    use_lsa / memoize_visit / use_intervals:
        Ablation switches forwarded to the DTRG (see
        :mod:`repro.core.reachability`).
    cache_precede:
        Enable the epoch-versioned PRECEDE cache
        (:mod:`repro.core.precede_cache`) and the shadow memory's
        epoch-memoized same-task read fast path.  Default on; switch off
        to measure the paper's plain algorithms (``bench_ablations.py``,
        ``bench_precede_cache.py``).
    engine:
        The PRECEDE backend (see :mod:`repro.core.backend`):
        ``"object"``/``"dtrg"`` (the paper's DTRG, default),
        ``"array"`` (flat-array DTRG, §13) or ``"vc"`` (future-aware
        vector clocks).  All engines produce bit-identical race lists.
    obs:
        Optional :class:`repro.obs.Observability` sink.  When enabled it
        is attached to the DTRG (PRECEDE latency/frontier/cache-outcome
        instrumentation, mutation instants) and the shadow memory
        (per-access reader-population instrumentation), and races are
        emitted as trace instants.  ``None`` (default) or a disabled
        object leaves every hot path on the uninstrumented code —
        structural counters and verdicts are bit-identical either way
        (pinned by ``tests/integration/test_obs_integration.py``).
    provenance:
        Optional :class:`repro.obs.provenance.RaceProvenance` (the same
        object attached to the runtime / replay).  When enabled, each
        reported race carries the two accesses' call-site labels and a
        machine-checkable :class:`~repro.obs.provenance.RaceWitness`
        (non-ordering certificate built by
        :meth:`DynamicTaskReachabilityGraph.explain_precede`) is appended
        to :attr:`witnesses`.  ``None`` (default) changes nothing: the
        certificate builder bumps no DTRG counters and touches no cache,
        so structural counters stay bit-identical.

    Attributes
    ----------
    report:
        The accumulated :class:`~repro.core.races.RaceReport`.
    dtrg:
        The underlying reachability structure (exposed for tests,
        Table 1-style dumps and the metrics harness).
    shadow:
        The :class:`~repro.core.shadow.ShadowMemory`.
    witnesses:
        :class:`~repro.obs.provenance.RaceWitness` list, parallel to the
        deduplicated races (empty unless ``provenance`` is attached).
    """

    def __init__(
        self,
        policy: ReportPolicy | str = ReportPolicy.COLLECT,
        *,
        dedupe: bool = True,
        use_lsa: bool = True,
        memoize_visit: bool = True,
        use_intervals: bool = True,
        cache_precede: bool = True,
        engine: str = "object",
        obs=None,
        provenance=None,
    ) -> None:
        if isinstance(policy, str):
            policy = ReportPolicy(policy)
        self.policy = policy
        engine = resolve_engine(engine)
        self.engine = engine
        self.report = RaceReport(dedupe=dedupe)
        self.obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )
        self.witnesses: list = []
        if provenance is not None and getattr(provenance, "enabled", False):
            # Local import: the provenance module is outside the detector's
            # hot-path dependency set and only needed when attached.
            from repro.obs.provenance import RaceWitness

            self.provenance = provenance
            self._witness_cls = RaceWitness
        else:
            self.provenance = None
            self._witness_cls = None
        if engine != "object":
            # Alternative PRECEDE backends (repro.core.backend): the flat
            # array DTRG and the future-aware vector clocks implement
            # only the paper's default query strategy (the Algorithm 10
            # ablation switches are object-graph concepts), and neither
            # carries the observability hooks or the explain_precede
            # witness builder.  cache_precede still gates the shadow
            # memory's epoch memo below; for engine='array' that keeps
            # shadow_fast_hits / precede_calls_saved bit-identical to the
            # default detector (vc has its own epoch schedule — see
            # docs/ALGORITHM.md §14).
            if not (use_lsa and memoize_visit and use_intervals):
                raise ValueError(
                    f"engine={engine!r} implements the default query "
                    "strategy only; ablation switches require "
                    "engine='object'"
                )
            if self.obs is not None or self.provenance is not None:
                raise ValueError(
                    f"engine={engine!r} does not support observability or "
                    "provenance attachments; use engine='object'"
                )
            if engine == "array":
                from repro.core.array_dtrg import ArrayDTRG

                self.dtrg = ArrayDTRG()
            else:
                from repro.core.vc_backend import VectorClockBackend

                self.dtrg = VectorClockBackend()
        else:
            self.dtrg = DynamicTaskReachabilityGraph(
                use_lsa=use_lsa,
                memoize_visit=memoize_visit,
                use_intervals=use_intervals,
                cache_precede=cache_precede,
            )
        dtrg = self.dtrg
        # Attach before binding dtrg.precede below, so the shadow memory
        # queries through the traced entry point when tracing is on.
        if self.obs is not None:
            dtrg.attach_observability(self.obs)
        self.shadow = ShadowMemory(
            precede=dtrg.precede,
            is_future=self._is_future_covered,
            report=self._report_race,
            # cache_precede gates the whole caching layer: with it off the
            # shadow memory runs the paper's plain Algorithms 8-9 (modulo
            # the unconditional structural identities).
            epoch=(lambda: dtrg.mutation_epoch) if cache_precede else None,
        )
        if self.obs is not None:
            self.shadow.attach_observability(self.obs)
        if self.provenance is not None:
            # After attach_observability so the provenance wrapper composes
            # around the traced twins when both layers are on.
            self.shadow.attach_provenance(self.provenance)
        self._names: dict[int, str] = {}
        #: tid -> "future-covered": the task is a future or has a future
        #: among its spawn-tree ancestors.  The shadow memory's reader-set
        #: policy needs this (not plain ``IsFuture``) to stay sound: a
        #: future-covered reader's end can be ordered with a later access
        #: through a ``get`` edge, which breaks the Lemma 4
        #: pseudo-transitivity the single-async-representative rests on
        #: (see ``ShadowMemory`` and DESIGN.md).
        self._future_covered: dict[int, bool] = {}

    # ------------------------------------------------------------------ #
    # Observer hooks                                                     #
    # ------------------------------------------------------------------ #
    def on_init(self, main) -> None:
        """Algorithm 1: register the main task with label [0, MAXINT]."""
        self._names[main.tid] = main.name
        self._future_covered[main.tid] = False
        self.dtrg.add_root(main.tid, name=main.name)

    def on_task_create(self, parent, child) -> None:
        """Algorithm 2: label the child, initialize its singleton set and
        lowest significant ancestor."""
        self._names[child.tid] = child.name
        self._future_covered[child.tid] = (
            child.is_future or self._future_covered[parent.tid]
        )
        self.dtrg.add_task(
            parent.tid, child.tid, is_future=child.is_future, name=child.name
        )

    def on_task_end(self, task) -> None:
        """Algorithm 3: finalize the task's postorder value."""
        self.dtrg.on_terminate(task.tid)

    def on_get(self, consumer, producer) -> None:
        """Algorithm 4: tree join (merge) or non-tree join (record edge)."""
        self.dtrg.record_join(consumer.tid, producer.tid)

    def on_finish_end(self, scope) -> None:
        """Algorithm 6: merge every task whose IEF is this scope into the
        owner task's set.  (Algorithm 5, finish start, is scope
        bookkeeping that lives in the runtime.)"""
        owner = scope.owner.tid
        for task in scope.joins:
            self.dtrg.merge(owner, task.tid)

    def on_read(self, task, loc: Hashable) -> None:
        """Algorithm 9 via the shadow memory."""
        self.shadow.read(task.tid, loc)

    def on_write(self, task, loc: Hashable) -> None:
        """Algorithm 8 via the shadow memory."""
        self.shadow.write(task.tid, loc)

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    def precede(self, a_tid: int, b_tid: int) -> bool:
        """Expose ``PRECEDE`` for tests and external tooling."""
        return self.dtrg.precede(a_tid, b_tid)

    @property
    def races(self):
        """Shortcut for ``report.races``."""
        return self.report.races

    @property
    def racy_locations(self):
        """Shortcut for ``report.racy_locations``."""
        return self.report.racy_locations

    @property
    def perf_stats(self) -> dict:
        """Caching/fast-path counters for the harness report and benchmarks.

        Keys are stable (the harness renders them next to ``#AvgReaders``):
        ``precede_queries``, ``mutation_epoch``, ``cache_hits``,
        ``cache_misses``, ``cache_invalidations``, ``cache_hit_rate``,
        ``shadow_fast_hits``, ``precede_calls_saved``.
        """
        cache = self.dtrg.cache
        return {
            "precede_queries": self.dtrg.num_precede_queries,
            "mutation_epoch": self.dtrg.mutation_epoch,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "cache_invalidations": cache.invalidations if cache else 0,
            "cache_hit_rate": cache.hit_rate if cache else 0.0,
            "shadow_fast_hits": self.shadow.num_fast_path_hits,
            "precede_calls_saved": self.shadow.num_precede_calls_saved,
        }

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _is_future_covered(self, tid: int) -> bool:
        return self._future_covered[tid]

    def _report_race(
        self, kind: str, prev: int, cur: int, loc: Hashable
    ) -> None:
        prov = self.provenance
        prev_site = current_site = witness_id = None
        if prov is not None:
            prev_site = prov.site_label(self.shadow.stored_site(kind, prev, loc))
            current_site = prov.site_label(prov.current_site)
            witness_id = f"w{len(self.witnesses)}"
        race = Race(
            loc=loc,
            kind=_KIND[kind],
            prev_task=prev,
            current_task=cur,
            prev_name=self._names.get(prev, ""),
            current_name=self._names.get(cur, ""),
            prev_site=prev_site,
            current_site=current_site,
            witness_id=witness_id,
        )
        added = self.report.add(race)
        if added and prov is not None:
            # Build the non-ordering certificate for PRECEDE(prev, cur) =
            # false.  explain_precede is read-only (no counters, no cache),
            # so witness construction never perturbs detection state.
            self.witnesses.append(self._witness_cls(
                witness_id=witness_id,
                loc=loc,
                kind=kind,
                prev_task=prev,
                current_task=cur,
                prev_name=self._names.get(prev, ""),
                current_name=self._names.get(cur, ""),
                prev_site=prev_site,
                current_site=current_site,
                certificate=self.dtrg.explain_precede(prev, cur),
            ))
        if added and self.obs is not None:
            self.obs.on_race(kind, prev, cur, loc)
        if added and self.policy is ReportPolicy.RAISE:
            raise RaceError(race)
