"""The :class:`Observability` bundle the instrumented hook points call.

One object carries both sinks — an optional :class:`~repro.obs.trace.RingTracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` — plus the callbacks the
hook points in the core/runtime layers invoke:

===========================  ===========================================
Hook point                   Callback
===========================  ===========================================
``Runtime`` (spawn/end)      :meth:`task_begin` / :meth:`task_end`
``Runtime`` (finish)         :meth:`finish_begin` / :meth:`finish_end`
``Runtime`` (``get()``)      :meth:`on_get`
DTRG ``precede``             :meth:`on_precede`
DTRG mutators                :meth:`on_mutation`
Kernel access checks         :meth:`on_shadow_access`
Kernel race sink             :meth:`on_race`
``WorkStealingSimulator``    :meth:`ws_step` / :meth:`ws_steal`
===========================  ===========================================

**Null-object protocol.**  Every hook point guards with a single attribute
test and only ever *installs* instrumentation for an observability object
whose :attr:`enabled` is true: components default to the exact
pre-observability code path, and attaching :data:`NULL_OBSERVABILITY` (or
``None``) is a no-op.  The DTRG and access hooks are those of the one
checking kernel the detector runs
(:class:`~repro.core.array_dtrg.TracedArrayDTRG` and the kernel's
``on_access``/``on_race``), so an observed run checks exactly what an
unobserved one does.  ``benchmarks/bench_obs_overhead.py`` asserts the
disabled path costs nothing measurable on the Jacobi event stream.

Histograms recorded (see :mod:`repro.obs.metrics` for the bucket ladders):

* ``precede_latency_ns`` — wall time per PRECEDE query;
* ``explore_frontier`` — VISIT expansions per query (0 = level-0/memo);
* ``cell_readers`` — stored reader population at each shadow access.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from repro.obs.metrics import (
    FRONTIER_BUCKETS,
    MetricsRegistry,
    PARALLEL_STAGE_BUCKETS_NS,
    PRECEDE_LATENCY_BUCKETS_NS,
    READER_BUCKETS,
    SHARD_EVENT_BUCKETS,
)
from repro.obs.trace import DTRG_TRACK, PARALLEL_TRACK, RingTracer

__all__ = ["Observability", "NULL_OBSERVABILITY"]


class Observability:
    """Live tracing + metrics sink for one instrumented run.

    Parameters
    ----------
    tracer:
        Optional :class:`RingTracer`; ``None`` records metrics only.
    registry:
        Metrics sink; a fresh :class:`MetricsRegistry` by default.
    """

    enabled = True

    def __init__(
        self,
        tracer: Optional[RingTracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        # Hot-path references, resolved once.
        self._h_precede_ns = reg.histogram(
            "precede_latency_ns", PRECEDE_LATENCY_BUCKETS_NS
        )
        self._h_frontier = reg.histogram("explore_frontier", FRONTIER_BUCKETS)
        self._h_readers = reg.histogram("cell_readers", READER_BUCKETS)
        self._c_precede = {
            outcome: reg.counter(f"precede_{outcome}")
            for outcome in ("level0", "memo", "search")
        }
        self._c_reads = reg.counter("shadow_reads")
        self._c_writes = reg.counter("shadow_writes")
        self._c_races = reg.counter("races_reported")
        self._c_tasks = reg.counter("tasks_spawned")
        self._c_finishes = reg.counter("finish_scopes")
        self._c_gets = reg.counter("get_joins")
        # Open spans: key -> (start ts_us, name, cat, extra args).
        self._open: Dict[Any, tuple] = {}
        # The exec_* hook points below are the only ones invoked from
        # concurrently running threads (ThreadRuntime workers) without an
        # external serializing lock; they guard themselves with this.
        import threading

        self._exec_lock = threading.Lock()
        if tracer is not None:
            tracer.set_track_name(DTRG_TRACK, "DTRG mutations")

    # ------------------------------------------------------------------ #
    # Runtime hook points (task / finish / get)                          #
    # ------------------------------------------------------------------ #
    def task_begin(self, tid: int, name: str, is_future: bool) -> None:
        self._c_tasks.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.set_track_name(tid, f"task {name}")
            self._open[("task", tid)] = (
                tracer.now_us(), name, is_future,
            )

    def task_end(self, tid: int) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        opened = self._open.pop(("task", tid), None)
        if opened is None:
            return
        start, name, is_future = opened
        tracer.complete(
            name, "task", tid, start, tracer.now_us() - start,
            args={"tid": tid, "future": is_future},
        )

    def finish_begin(self, fid: int, owner_tid: int) -> None:
        self._c_finishes.inc()
        tracer = self.tracer
        if tracer is not None:
            self._open[("finish", fid)] = (tracer.now_us(), owner_tid)

    def finish_end(self, fid: int) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        opened = self._open.pop(("finish", fid), None)
        if opened is None:
            return
        start, owner_tid = opened
        tracer.complete(
            f"finish#{fid}", "finish", owner_tid, start,
            tracer.now_us() - start, args={"fid": fid},
        )

    def on_get(self, consumer_tid: int, producer_tid: int) -> None:
        self._c_gets.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "get", "join", consumer_tid,
                args={"producer": producer_tid},
            )

    # ------------------------------------------------------------------ #
    # DTRG hook points                                                   #
    # ------------------------------------------------------------------ #
    def on_precede(
        self,
        a_key: Hashable,
        b_key: Hashable,
        verdict: bool,
        dur_ns: int,
        expansions: int,
        outcome: str,
        epoch: int,
    ) -> None:
        """One completed PRECEDE query.

        ``expansions`` is the query's VISIT-expansion count (the
        ``num_visits`` delta — 0 for level-0 or memoized answers);
        ``outcome`` is ``level0``, ``memo`` (answered by the graph's
        epoch memo) or ``search``.
        """
        self._h_precede_ns.observe(dur_ns)
        self._h_frontier.observe(expansions)
        self._c_precede[outcome].inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "precede", "dtrg", b_key,
                args={
                    "a": str(a_key), "b": str(b_key), "verdict": verdict,
                    "outcome": outcome, "visited": expansions,
                    "ns": dur_ns,
                },
            )

    def on_mutation(self, kind: str, epoch: int, detail: str = "") -> None:
        """One DTRG structural mutation (``add_task`` / ``record_join`` /
        ``merge`` / ``on_terminate``)."""
        self.registry.counter(f"dtrg_{kind}").inc()
        tracer = self.tracer
        if tracer is not None:
            args = {"epoch": epoch}
            if detail:
                args["detail"] = detail
            tracer.instant(f"dtrg.{kind}", "dtrg", DTRG_TRACK, args=args)

    # ------------------------------------------------------------------ #
    # Shadow-memory hook points                                          #
    # ------------------------------------------------------------------ #
    def on_shadow_access(
        self, kind: str, task: int, loc: Hashable, readers: int
    ) -> None:
        """One shadow-memory check; ``readers`` is the stored reader
        population the check saw.  The kernel reports the accesses of a
        block when the block closes, so the instants carry no per-access
        wall time."""
        (self._c_reads if kind == "read" else self._c_writes).inc()
        self._h_readers.observe(readers)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"shadow.{kind}", "shadow", task,
                args={"loc": str(loc), "readers": readers},
            )

    def on_race(
        self, kind: str, prev: int, cur: int, loc: Hashable
    ) -> None:
        self._c_races.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "race", "race", cur,
                args={"kind": kind, "prev": prev, "loc": str(loc)},
            )

    # ------------------------------------------------------------------ #
    # Parallel-checker hook points (repro.core.parallel_check)           #
    # ------------------------------------------------------------------ #
    def on_parallel_plan(
        self, jobs: int, backend: str, shard_events: list
    ) -> None:
        """Shard plan of one parallel check: ``shard_events[k]`` is the
        access-event count bin-packed into shard ``k`` (the shard-balance
        histogram makes a failed hash/packing visible)."""
        self.registry.counter("parallel_checks").inc()
        h = self.registry.histogram("parallel_shard_events",
                                    SHARD_EVENT_BUCKETS)
        for n in shard_events:
            h.observe(n)
        tracer = self.tracer
        if tracer is not None:
            tracer.set_track_name(PARALLEL_TRACK, "parallel check")
            tracer.instant(
                "parallel.plan", "parallel", PARALLEL_TRACK,
                args={"jobs": jobs, "backend": backend,
                      "shard_events": list(shard_events)},
            )

    def on_parallel_stages(self, timings: dict, shards: list) -> None:
        """Stage timings + per-shard outcomes of one completed parallel
        check.  ``timings`` holds ``build/freeze/check/merge/total``
        seconds (:class:`~repro.core.fastcheck.CheckResult`
        layout); ``shards`` holds per-shard event/race counts and wall
        times.  Stages land in the ``parallel_stage_ns`` histograms and,
        with a tracer, as back-dated spans on the parallel track (shard
        spans on ``parallel-shard-<k>`` tracks, drawn concurrent)."""
        reg = self.registry
        for stage in ("build", "freeze", "check", "merge"):
            seconds = timings.get(f"{stage}_seconds", 0.0)
            reg.histogram(
                f"parallel_{stage}_ns", PARALLEL_STAGE_BUCKETS_NS
            ).observe(seconds * 1e9)
        tracer = self.tracer
        if tracer is None:
            return
        tracer.set_track_name(PARALLEL_TRACK, "parallel check")
        end = tracer.now_us()
        start = end - timings.get("total_seconds", 0.0) * 1e6
        ts = start
        for stage in ("build", "freeze", "check", "merge"):
            dur = timings.get(f"{stage}_seconds", 0.0) * 1e6
            tracer.complete(
                f"parallel.{stage}", "parallel", PARALLEL_TRACK, ts, dur,
            )
            if stage == "check":
                for shard in shards:
                    track = f"{PARALLEL_TRACK}-shard-{shard['shard']}"
                    tracer.set_track_name(track, f"shard {shard['shard']}")
                    tracer.complete(
                        f"shard{shard['shard']}", "parallel", track,
                        ts, shard["seconds"] * 1e6,
                        args={"events": shard["events"],
                              "races": shard["races"]},
                    )
            ts += dur

    # ------------------------------------------------------------------ #
    # Work-stealing simulator hook points (virtual clock: cycles as us)  #
    # ------------------------------------------------------------------ #
    def ws_step(
        self, worker: int, step: int, start_cycle: int, weight: int
    ) -> None:
        self.registry.counter("ws_steps").inc()
        tracer = self.tracer
        if tracer is not None:
            track = f"ws-worker-{worker}"
            tracer.set_track_name(track, f"worker {worker}")
            tracer.complete(
                f"step{step}", "ws", track, float(start_cycle),
                float(weight), args={"step": step},
            )

    def ws_steal(
        self, worker: int, victim: int, cycle: int, *,
        hit: bool, victim_depth: int,
    ) -> None:
        name = "ws_steals" if hit else "ws_failed_steals"
        self.registry.counter(name).inc()
        self.registry.histogram(
            "ws_victim_depth", (0, 1, 2, 4, 8, 16, 32, 64)
        ).observe(victim_depth)
        tracer = self.tracer
        if tracer is not None:
            track = f"ws-worker-{worker}"
            tracer.set_track_name(track, f"worker {worker}")
            tracer.instant(
                "steal" if hit else "steal.miss", "ws", track,
                ts_us=float(cycle), args={"victim": victim},
            )

    # ------------------------------------------------------------------ #
    # Concurrent-executor hook points (ThreadRuntime: real threads,      #
    # wall-clock time — unlike the ws_* simulator hooks' virtual cycles) #
    # ------------------------------------------------------------------ #
    def exec_worker_begin(self, worker: int) -> None:
        """A ThreadRuntime worker thread entered its scheduling loop."""
        with self._exec_lock:
            self.registry.counter("exec_workers").inc()
            tracer = self.tracer
            if tracer is not None:
                track = f"exec-worker-{worker}"
                tracer.set_track_name(track, f"exec worker {worker}")
                self._open[("exec-worker", worker)] = (tracer.now_us(),)

    def exec_worker_end(self, worker: int) -> None:
        """The worker's scheduling loop exited (shutdown)."""
        with self._exec_lock:
            tracer = self.tracer
            if tracer is None:
                return
            opened = self._open.pop(("exec-worker", worker), None)
            if opened is None:
                return
            (start,) = opened
            tracer.complete(
                f"worker{worker}", "exec", f"exec-worker-{worker}",
                start, tracer.now_us() - start, args={"worker": worker},
            )

    def exec_task_run(
        self, worker: Optional[int], tid: int, start_us: float, dur_us: float
    ) -> None:
        """One task body executed (back-dated span) on a worker thread,
        or inline on the caller thread running ``main`` (``worker`` None).
        A task run inline nests inside the span of the task it ran under."""
        with self._exec_lock:
            self.registry.counter("exec_tasks_run").inc()
            tracer = self.tracer
            if tracer is not None:
                if worker is None:
                    track = "exec-caller"
                    tracer.set_track_name(track, "exec caller (main)")
                else:
                    track = f"exec-worker-{worker}"
                tracer.complete(
                    f"run t{tid}", "exec", track,
                    start_us, dur_us, args={"tid": tid},
                )

    def exec_steal(self, worker: int, victim: int, *, hit: bool) -> None:
        """One steal probe by a real worker thread (instant event)."""
        with self._exec_lock:
            name = "exec_steals" if hit else "exec_failed_steals"
            self.registry.counter(name).inc()
            tracer = self.tracer
            if tracer is not None:
                track = f"exec-worker-{worker}"
                tracer.set_track_name(track, f"exec worker {worker}")
                tracer.instant(
                    "steal" if hit else "steal.miss", "exec", track,
                    args={"victim": victim},
                )

    def exec_block(self, worker: int, kind: str) -> None:
        """A worker is about to block (``get`` or finish wait); a
        compensation thread may be spawned to preserve parallelism."""
        with self._exec_lock:
            self.registry.counter("exec_blocks").inc()
            tracer = self.tracer
            if tracer is not None:
                track = f"exec-worker-{worker}"
                tracer.set_track_name(track, f"exec worker {worker}")
                tracer.instant("block", "exec", track, args={"kind": kind})

    # ------------------------------------------------------------------ #
    def write_trace(self, path) -> None:
        """Write the Perfetto/Chrome trace JSON (requires a tracer)."""
        if self.tracer is None:
            raise ValueError("this Observability has no tracer attached")
        self.tracer.write(path)

    def write_metrics(self, path) -> None:
        """Write the metrics registry as JSON."""
        self.registry.write_json(path)


class _NullObservability:
    """Inert stand-in: hook points refuse to install instrumentation for
    it, so attaching it is indistinguishable from attaching nothing."""

    enabled = False
    tracer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_OBSERVABILITY"


#: The shared null object.  ``Component(obs=NULL_OBSERVABILITY)`` and
#: ``Component()`` run identical code paths.
NULL_OBSERVABILITY = _NullObservability()
