"""The determinacy race detector — Algorithms 1-10 assembled.

:class:`DeterminacyRaceDetector` is an
:class:`~repro.core.events.ExecutionObserver` that plugs into the serial
depth-first :class:`~repro.runtime.runtime.Runtime` (or into a replayed
:class:`~repro.core.events.Trace`) and implements the paper's Section 4.3
machinery on the one kernel.  The hooks lower each event into integer
columns (:class:`~repro.core.events.ColumnBuilder`, as
:class:`~repro.memory.tracer.TraceRecorder` does), and a structure event
that closes an access block resumes the one Algorithm 8/9 kernel,
:func:`repro.core.fastcheck._kernel`, over the reachability engine.  Each
access block is checked when the spawn, get, end or finish that closes it
arrives — still one on-the-fly pass in serial-elision order — and the
consumed rows are dropped, so the columns hold O(tasks + locations).

======================  ===========================================
Paper                    Implementation
======================  ===========================================
Algorithm 1 (init)       :meth:`ArrayDTRG.add_root_idx`
Algorithm 2 (spawn)      :meth:`ArrayDTRG.add_task_idx`
Algorithm 3 (end)        :meth:`ArrayDTRG.on_terminate_idx`
Algorithm 4 (get)        :meth:`ArrayDTRG.record_join_idx`
Algorithm 5 (start fin)  the kernel's scope table (bookkeeping only)
Algorithm 6 (end fin)    the kernel's scope table → ``merge_idx``
Algorithm 7 (merge)      :meth:`ArrayDTRG.merge_idx`
Algorithm 8 (write)      the kernel's write branch
Algorithm 9 (read)       the kernel's read branch
Algorithm 10 (precede)   :meth:`ArrayDTRG.precede_idx`
======================  ===========================================

Theorem 2: run against a serial depth-first execution, the detector reports a
race on a location iff some pair of logically-parallel conflicting accesses
to that location exists in the computation graph — property-tested against
the brute-force graph oracle in ``tests/properties/``.
"""

from __future__ import annotations

from repro.core.array_dtrg import AblatedArrayDTRG, ArrayDTRG, TracedArrayDTRG
from repro.core.backend import resolve_engine
from repro.core.events import (
    ColumnBuilder, EncodedTrace, ExecutionObserver, observer_hooks,
)
from repro.core.fastcheck import CheckResult, _kernel
from repro.core.races import Race, ReportPolicy
from repro.runtime.errors import RaceError

__all__ = ["DeterminacyRaceDetector"]

class DeterminacyRaceDetector(ExecutionObserver):
    """On-the-fly determinacy race detector for async/finish/future programs.

    Parameters
    ----------
    policy:
        :attr:`ReportPolicy.COLLECT` (default) records every race and lets
        the program finish; :attr:`ReportPolicy.RAISE` raises
        :class:`~repro.runtime.errors.RaceError` at the first one, when
        the racing access's block closes, i.e. at the next spawn, get,
        task end or finish boundary, or at main's end.  The error carries
        the :class:`~repro.core.races.Race`, and the kernel checks nothing
        after it.
    dedupe:
        Collapse repeated reports of the same (location, pair, kind).
    use_lsa / memoize_visit / use_intervals:
        Ablation switches of Algorithm 10; switching one off runs the
        kernel over :class:`~repro.core.array_dtrg.AblatedArrayDTRG`.
    engine:
        ``"array"`` (default, alias ``"dtrg"``): the flat-array DTRG.
        ``"vc"``: future-aware vector clocks
        (:mod:`repro.core.vc_backend`), default strategy only.  Both
        produce bit-identical race lists.
    obs:
        Optional :class:`repro.obs.Observability` sink: the DTRG is a
        :class:`~repro.core.array_dtrg.TracedArrayDTRG` (PRECEDE
        latency/frontier/outcome, mutation instants), the kernel reports
        each access's stored reader population when its block closes,
        and races are emitted as trace instants.  ``None`` (default) or
        a disabled object runs the uninstrumented graph; structural
        counters and verdicts are bit-identical either way (pinned by
        ``tests/integration/test_obs_integration.py``).  An enabled
        ``obs`` needs the default graph: with ``engine="vc"`` or an
        ablation switch off it raises ``ValueError``.

    Attributes
    ----------
    report:
        The accumulated :class:`~repro.core.races.RaceReport`.
    engine:
        The engine running (``"array"`` or ``"vc"``).
    dtrg:
        The underlying reachability structure (exposed for tests,
        Table 1-style dumps and the metrics harness), current as of the
        last checked block.
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
        if obs is not None and not getattr(obs, "enabled", False):
            obs = None
        plain = use_lsa and memoize_visit and use_intervals
        if engine == "vc" and not plain:
            raise ValueError(
                "engine='vc' implements the default query strategy "
                "only; the ablation switches select AblatedArrayDTRG "
                "under engine='array'"
            )
        if obs is not None and (engine != "array" or not plain):
            raise ValueError(
                f"engine={engine!r} (or an ablation switch off) supports "
                "no observability attachment: obs observes the kernel "
                "over the default graph, engine='array' with every "
                "ablation switch on"
            )
        self.engine = engine
        self.obs = obs
        #: Display name per dense task index, fed by the live tasks.
        names: list = []
        if obs is not None:
            self.dtrg = TracedArrayDTRG(obs, names)
        elif engine == "vc":
            from repro.core.vc_backend import VectorClockBackend

            self.dtrg = VectorClockBackend()
        elif not plain:
            self.dtrg = AblatedArrayDTRG(use_lsa=use_lsa,
                                         memoize_visit=memoize_visit,
                                         use_intervals=use_intervals)
        else:
            self.dtrg = ArrayDTRG()
        result = CheckResult(dedupe)
        result.dtrg = self.dtrg
        self.report = result.report
        self.race_rows = result.race_rows
        self._result = result
        enc = EncodedTrace()
        builder = ColumnBuilder(enc)
        raises = self.policy is ReportPolicy.RAISE
        on_race = on_access = None
        if obs is not None:
            task_keys, locs = enc.task_keys, enc.locs

            def on_access(is_write, task, lid, readers) -> None:
                obs.on_shadow_access("write" if is_write else "read",
                                     task_keys[task], locs[lid], readers)

            def on_race(race: Race) -> None:
                obs.on_race(race.kind.value, race.prev_task,
                            race.current_task, race.loc)
                if raises:
                    raise RaceError(race)
        elif raises:
            def on_race(race: Race) -> None:
                raise RaceError(race)

        hooks = observer_hooks(builder)
        runs = enc.runs
        inert = False

        def step() -> None:
            nonlocal inert
            try:
                self._step()
            except BaseException:
                # RaceError under RAISE ends the kernel: turn inert.  The
                # structure hooks then lower nothing (the spawn that raised
                # never runs its child, so the stream no longer follows
                # the running task) and drop the rows the access hooks
                # append.
                inert = True
                self._step = builder.drop
                raise

        def stepped(lower):
            def hook(*args) -> None:
                if inert:
                    builder.flush()
                    builder.drop()
                    return
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

        # The hooks are instance attributes: the runtime snapshots them
        # before on_init, and the access hooks are the builder's own
        # lowering closures.
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

    def flush(self) -> None:
        """Check every access seen so far (bound per instance).

        The kernel checks an access block when the structure event that
        closes it arrives, so a run that aborts (the program raised)
        leaves its last block unchecked; ``flush`` checks it, with the
        graph at the current epoch.  A mid-run flush changes no result;
        after main's end it is a no-op.
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
        columns are 0: no engine keeps a public PRECEDE cache.  They are
        written when main ends (and stay 0 after a ``RaceError``).
        """
        return self._result.perf_stats

    @property
    def avg_readers(self) -> float:
        """Paper's ``#AvgReaders`` (Table 2), once main ends."""
        return self._result.avg_readers

    @property
    def num_accesses(self) -> int:
        """Accesses checked up to the last closed block (the live
        sampler reads it)."""
        return self._result.num_accesses

    @property
    def num_locations(self) -> int:
        """Distinct shared locations seen so far."""
        return self._result.num_locations
