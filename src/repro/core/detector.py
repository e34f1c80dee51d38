"""The determinacy race detector — Algorithms 1-10 assembled.

:class:`DeterminacyRaceDetector` is an
:class:`~repro.core.events.ExecutionObserver` that plugs into the serial
depth-first :class:`~repro.runtime.runtime.Runtime` (or into a replayed
:class:`~repro.core.events.Trace`) and implements the paper's Section 4.3
machinery.  It runs one of two engines over the same algorithms:

* **the kernel** (``engine="array"``, the default): the hooks lower each
  event into integer columns (:class:`~repro.core.events.ColumnBuilder`,
  as :class:`~repro.memory.tracer.TraceRecorder` does), and a structure
  event that closes an access block resumes the one Algorithm 8/9
  kernel, :func:`repro.core.fastcheck._kernel`, over the flat-array
  DTRG.  Each access block is checked when the spawn, get, end or finish
  that closes it arrives — still one on-the-fly pass in serial-elision
  order — and the consumed rows are dropped, so the columns hold
  O(tasks + locations).  The Algorithm 8/9 fast paths live only here,
  and an attached ``obs`` observes this engine.
* **the reference engine** (``engine="object"``): the paper's structures
  one to one, per access, with the plain Algorithms 8/9 the tests
  compare the kernel against.

======================  ===========================================
Paper                    Reference engine
======================  ===========================================
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
======================  ===========================================

Theorem 2: run against a serial depth-first execution, the detector reports a
race on a location iff some pair of logically-parallel conflicting accesses
to that location exists in the computation graph — property-tested against
the brute-force graph oracle in ``tests/properties/``.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.array_dtrg import ArrayDTRG, TracedArrayDTRG
from repro.core.backend import resolve_engine
from repro.core.events import (
    ColumnBuilder, EncodedTrace, ExecutionObserver, observer_hooks,
)
from repro.core.fastcheck import CheckResult, _kernel
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
        :class:`~repro.runtime.errors.RaceError` at the first one.  The
        reference engine raises at the racing access; the kernel when the
        access's block closes, i.e. at the next spawn, get, task end or
        finish boundary, or at main's end.  Either way the error carries
        the same :class:`~repro.core.races.Race`, and the kernel checks
        nothing after it.
    dedupe:
        Collapse repeated reports of the same (location, pair, kind).
    use_lsa / memoize_visit / use_intervals:
        Ablation switches forwarded to the DTRG (see
        :mod:`repro.core.reachability`); switching one off selects the
        reference engine.
    engine:
        ``"array"`` (default): the kernel over the flat-array DTRG.
        ``"object"``/``"dtrg"``: the reference engine, the object DTRG
        plus the plain :class:`~repro.core.shadow.ShadowMemory`; it is
        selected automatically when an ablation switch is off.
        ``"vc"``: future-aware vector clocks behind ``ShadowMemory``
        (:mod:`repro.core.backend`).  All engines produce bit-identical
        race lists.
    obs:
        Optional :class:`repro.obs.Observability` sink, observed on the
        kernel: the DTRG is a
        :class:`~repro.core.array_dtrg.TracedArrayDTRG` (PRECEDE
        latency/frontier/outcome, mutation instants), the kernel reports
        each access's stored reader population when its block closes,
        and races are emitted as trace instants.  ``None`` (default) or
        a disabled object runs the uninstrumented graph; structural
        counters and verdicts are bit-identical either way (pinned by
        ``tests/integration/test_obs_integration.py``).  An enabled
        ``obs`` with a reference engine raises ``ValueError``: those
        carry no hooks.

    Attributes
    ----------
    report:
        The accumulated :class:`~repro.core.races.RaceReport`.
    engine:
        The engine actually running (``"array"``, ``"object"`` or
        ``"vc"``).
    dtrg:
        The underlying reachability structure (exposed for tests,
        Table 1-style dumps and the metrics harness).  On the kernel it
        is current as of the last checked block.
    shadow:
        The :class:`~repro.core.shadow.ShadowMemory` (not on the kernel,
        whose shadow state is columns inside the kernel).
    race_rows:
        ``race_rows[i]`` is the access-row ordinal (the count of reads and
        writes before it) of the access that reported ``races[i]``; with a
        recorded trace of the run,
        :func:`repro.obs.provenance.explain_races` turns the races into
        sited races and witnesses.
    """

    def __init__(
        self,
        policy: ReportPolicy | str = ReportPolicy.COLLECT,
        *,
        dedupe: bool = True,
        use_lsa: bool = True,
        memoize_visit: bool = True,
        use_intervals: bool = True,
        engine: str = "array",
        obs=None,
    ) -> None:
        if isinstance(policy, str):
            policy = ReportPolicy(policy)
        self.policy = policy
        engine = resolve_engine(engine)
        self.obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )
        plain = use_lsa and memoize_visit and use_intervals
        if engine == "array" and not plain:
            engine = "object"
        if self.obs is not None and engine != "array":
            raise ValueError(
                f"engine={engine!r} (or an ablation switch off) supports "
                "no observability attachment: obs observes the kernel, "
                "engine='array' with every ablation switch on"
            )
        self.engine = engine
        if engine == "array":
            self._init_kernel(dedupe)
            return
        self.report = RaceReport(dedupe=dedupe)
        self.race_rows: list = []
        if engine == "vc":
            if not plain:
                raise ValueError(
                    "engine='vc' implements the default query strategy "
                    "only; use engine='object' for the ablations"
                )
            from repro.core.vc_backend import VectorClockBackend

            self.dtrg = VectorClockBackend()
        else:
            self.dtrg = DynamicTaskReachabilityGraph(
                use_lsa=use_lsa,
                memoize_visit=memoize_visit,
                use_intervals=use_intervals,
            )
        self.shadow = ShadowMemory(
            precede=self.dtrg.precede,
            is_future=self._is_future_covered,
            report=self._report_race,
        )
        self._counts = self.shadow
        self._names: dict[int, str] = {}
        #: tid -> "future-covered": the task is a future or has a future
        #: among its spawn-tree ancestors.  The shadow memory's reader-set
        #: policy needs this (not plain ``IsFuture``) to stay sound: a
        #: future-covered reader's end can be ordered with a later access
        #: through a ``get`` edge, which breaks the Lemma 4
        #: pseudo-transitivity the single-async-representative rests on
        #: (see ``ShadowMemory`` and DESIGN.md).
        self._future_covered: dict[int, bool] = {}

    def _init_kernel(self, dedupe: bool) -> None:
        """Wire the kernel engine: hooks that lower into private columns,
        and structure hooks that then advance the kernel when they close
        an access block.  The access hooks are the builder's own lowering
        closures, bound as instance attributes (the runtime snapshots
        them before ``on_init``)."""
        result = CheckResult(dedupe)
        self.report = result.report
        self.race_rows = result.race_rows
        self._counts = result
        enc = EncodedTrace()
        builder = ColumnBuilder(enc)
        #: Display name per dense task index, fed by the live tasks.
        names: list = []
        obs = self.obs
        raises = self.policy is ReportPolicy.RAISE
        on_race = on_access = None
        if obs is not None:
            self.dtrg = TracedArrayDTRG(obs, names)
            task_keys, locs = enc.task_keys, enc.locs

            def on_access(is_write, task, lid, readers) -> None:
                obs.on_shadow_access("write" if is_write else "read",
                                     task_keys[task], locs[lid], readers)

            def on_race(race: Race) -> None:
                obs.on_race(race.kind.value, race.prev_task,
                            race.current_task, race.loc)
                if raises:
                    raise RaceError(race)
        else:
            self.dtrg = ArrayDTRG()
            if raises:
                def on_race(race: Race) -> None:
                    raise RaceError(race)
        result.dtrg = self.dtrg

        hooks = observer_hooks(builder)
        runs = enc.runs

        def step() -> None:
            try:
                self._step()
            except BaseException:
                # RaceError under RAISE ends the kernel: turn inert,
                # lowering and dropping events unchecked.
                self._step = builder.drop
                raise

        def stepped(lower):
            def hook(*args) -> None:
                lower(*args)
                # Resume only when this event closed an access block: it
                # opened a new structure run behind an unconsumed one.
                # Structure-only stretches are applied with the next block.
                if len(runs) > 2 and runs[-1] == 1:
                    step()
            return hook

        def flush() -> None:
            builder.flush()
            if runs:
                step()

        def on_init(main) -> None:
            names.append(main.name)
            self._kernel = _kernel(enc, self.dtrg, names, result,
                                   on_race=on_race, on_access=on_access,
                                   drop=builder.drop)
            next(self._kernel)
            self._step = self._kernel.__next__

        create = stepped(hooks["on_task_create"])
        end = stepped(hooks["on_task_end"])

        def on_task_create(parent, child) -> None:
            names.append(child.name)
            create(parent, child)

        def on_task_end(task) -> None:
            if task.parent is not None:
                end(task)
                return
            # Main's end closes the root bracket; nothing is checked after.
            builder.flush()
            self._step = builder.drop
            try:
                self._kernel.send(True)
            except StopIteration:
                pass
            finally:
                builder.drop()

        self._columns = enc
        self.flush = flush
        self.on_init = on_init
        self.on_task_create = on_task_create
        self.on_task_end = on_task_end
        self.on_get = stepped(hooks["on_get"])
        self.on_finish_start = stepped(hooks["on_finish_start"])
        self.on_finish_end = stepped(hooks["on_finish_end"])
        self.on_read = hooks["on_read"]
        self.on_write = hooks["on_write"]

    # ------------------------------------------------------------------ #
    # Observer hooks of the reference engines (the kernel binds its own  #
    # as instance attributes in _init_kernel)                            #
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

    def flush(self) -> None:
        """Check every access seen so far.

        The kernel checks an access block when the structure event that
        closes it arrives, so a run that aborts (the program raised)
        leaves its last block unchecked; ``flush`` checks it, with the
        graph at the current epoch.  A no-op on the reference engines,
        which check each access as it arrives, and once main has ended.
        """

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
        """Fast-path counters for the harness report and benchmarks.

        Keys are stable (the harness renders them next to ``#AvgReaders``):
        ``precede_queries``, ``mutation_epoch``, ``cache_hits``,
        ``cache_misses``, ``cache_invalidations``, ``cache_hit_rate``,
        ``shadow_fast_hits``, ``precede_calls_saved``.  The ``cache_*``
        columns are 0: no engine keeps a public PRECEDE cache, and the
        two fast-path columns are 0 on the reference engines, which have
        no fast paths.  On the kernel they are written when main ends
        (and stay 0 after a ``RaceError``).
        """
        if self.engine == "array":
            return self._counts.perf_stats
        return {
            "precede_queries": self.dtrg.num_precede_queries,
            "mutation_epoch": self.dtrg.mutation_epoch,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
            "cache_hit_rate": 0.0,
            "shadow_fast_hits": 0,
            "precede_calls_saved": 0,
        }

    @property
    def avg_readers(self) -> float:
        """Paper's ``#AvgReaders`` (Table 2); on the kernel, once main
        ends."""
        return self._counts.avg_readers

    @property
    def num_accesses(self) -> int:
        """Accesses checked so far (on the kernel: up to the last closed
        block; the live sampler reads it)."""
        return self._counts.num_accesses

    @property
    def num_locations(self) -> int:
        """Distinct shared locations seen so far."""
        return self._counts.num_locations

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _is_future_covered(self, tid: int) -> bool:
        return self._future_covered[tid]

    def _report_race(
        self, kind: str, prev: int, cur: int, loc: Hashable
    ) -> None:
        race = Race(
            loc=loc,
            kind=_KIND[kind],
            prev_task=prev,
            current_task=cur,
            prev_name=self._names.get(prev, ""),
            current_name=self._names.get(cur, ""),
        )
        if not self.report.add(race):
            return
        # The racing access is the one the shadow memory just counted.
        self.race_rows.append(self.shadow.num_accesses - 1)
        if self.policy is ReportPolicy.RAISE:
            raise RaceError(race)
