"""Benchmark registry and single-benchmark execution for the harness.

Maps the seven Table 2 rows to workload entry points and runs one row in
the paper's three configurations:

* ``Seq``          — serial elision, uninstrumented (paper's Seq column);
* ``Instrumented`` — runtime + shared wrappers + metrics, *no* detector.
  The paper's bytecode instrumentation is nearly free on the JVM; in
  CPython the wrapper calls dominate, so we report this middle bar to keep
  the ``Racedet/Instrumented`` ratio comparable to the paper's
  ``Racedet/Seq`` (see EXPERIMENTS.md for the discussion);
* ``Racedet``      — instrumentation + the determinacy race detector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.harness.metrics import DetectorPerf, Metrics
from repro.workloads import (
    crypt_idea,
    jacobi,
    lufact,
    nqueens,
    reduce_tree,
    series,
    smith_waterman,
    sor,
    strassen,
)
from repro.workloads.common import run_instrumented

__all__ = [
    "BenchmarkDef",
    "BenchmarkResult",
    "BackendBenchResult",
    "ParallelBenchResult",
    "ThroughputBenchResult",
    "BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "BACKEND_ENGINES",
    "ExecutorBenchResult",
    "run_benchmark",
    "run_backend_benchmark",
    "run_executor_benchmark",
    "run_parallel_benchmark",
    "run_throughput_benchmark",
    "TelemetryBenchResult",
    "run_telemetry_benchmark",
]


@dataclass(frozen=True)
class BenchmarkDef:
    """One Table 2 row: names, entry points, verification."""

    name: str
    module: Any
    parallel_entry: str  #: attribute name: "run_af" or "run_future"

    def params(self, scale: str):
        return self.module.default_params(scale)

    def serial(self, params) -> Any:
        return self.module.serial(params)

    def parallel(self, rt, params) -> Any:
        return getattr(self.module, self.parallel_entry)(rt, params)

    def verify(self, params, result) -> None:
        self.module.verify(params, result)


#: The seven Table 2 rows, in the paper's order.
BENCHMARKS: Dict[str, BenchmarkDef] = {
    b.name: b
    for b in [
        BenchmarkDef("Series-af", series, "run_af"),
        BenchmarkDef("Series-future", series, "run_future"),
        BenchmarkDef("Crypt-af", crypt_idea, "run_af"),
        BenchmarkDef("Crypt-future", crypt_idea, "run_future"),
        BenchmarkDef("Jacobi", jacobi, "run_future"),
        BenchmarkDef("Smith-Waterman", smith_waterman, "run_future"),
        BenchmarkDef("Strassen", strassen, "run_future"),
    ]
}

#: Extension rows (not part of the paper's Table 2): broaden the overhead
#: picture — a second stencil, a fully strict search, a blocked LU, and
#: the zero-shared-access functional extreme.
EXTENDED_BENCHMARKS: Dict[str, BenchmarkDef] = {
    b.name: b
    for b in [
        BenchmarkDef("SOR-af", sor, "run_af"),
        BenchmarkDef("SOR-future", sor, "run_future"),
        BenchmarkDef("NQueens", nqueens, "run_af"),
        BenchmarkDef("LUFact", lufact, "run_future"),
        BenchmarkDef("ReduceTree", reduce_tree, "run_future"),
    ]
}


@dataclass
class BenchmarkResult:
    """Everything the Table 2 row reports, plus the extra middle bar."""

    name: str
    scale: str
    metrics: Metrics
    avg_readers: float
    seq_seconds: float
    instrumented_seconds: float
    racedet_seconds: float
    races: int
    perf: DetectorPerf = field(default_factory=DetectorPerf)

    @property
    def slowdown_vs_seq(self) -> float:
        """The paper's Slowdown column (Racedet / Seq)."""
        return self.racedet_seconds / self.seq_seconds if self.seq_seconds else 0.0

    @property
    def slowdown_vs_instrumented(self) -> float:
        """Detector-only slowdown (Racedet / Instrumented) — the CPython
        analogue of the paper's ratio, with interpreter dispatch factored
        out of the baseline."""
        if not self.instrumented_seconds:
            return 0.0
        return self.racedet_seconds / self.instrumented_seconds

    @property
    def events_per_second(self) -> float:
        """Detected-run throughput: all instrumented events (accesses +
        structure) over the Racedet wall time.  Includes workload compute,
        so it *under*-states pure checking throughput — the trace-replay
        numbers in ``repro-bench --throughput`` isolate that."""
        if not self.racedet_seconds:
            return 0.0
        return self.metrics.num_events / self.racedet_seconds

    def row(self) -> Dict[str, Any]:
        row = {
            "Benchmark": self.name,
            "#Tasks": self.metrics.num_tasks,
            "#NTJoins": self.metrics.num_nt_joins,
            "#SharedMem": self.metrics.num_shared_accesses,
            "#AvgReaders": round(self.avg_readers, 2),
        }
        # Fast-path observability sits next to #AvgReaders: both
        # describe the per-access work the detector actually did.
        row.update(self.perf.as_row())
        row.update({
            "Seq (ms)": round(self.seq_seconds * 1e3, 1),
            "Instr (ms)": round(self.instrumented_seconds * 1e3, 1),
            "Racedet (ms)": round(self.racedet_seconds * 1e3, 1),
            "Slowdown": round(self.slowdown_vs_seq, 2),
            "Slowdown/Instr": round(self.slowdown_vs_instrumented, 2),
            "Events/s": round(self.events_per_second),
        })
        return row


@dataclass
class ParallelBenchResult:
    """One workload checked by the sharded checker at several job counts
    (``docs/ALGORITHM.md`` §12).

    ``per_jobs`` maps each job count to its best-of-``repeats`` wall
    times: ``seconds`` is the full check (encode + shard plan + fan-out +
    merge), ``check_seconds`` the fan-out stage alone, ``speedup`` is
    relative to the jobs=1 ``seconds``; ``backend`` and ``shards`` say how
    the check was dispatched (the auto backend checks a trace below the
    split break-even as one ``inline`` shard).  ``identical`` records
    whether every job count reproduced the jobs=1 ``summary()`` text and
    ``perf_stats`` byte-for-byte — the determinism contract, asserted by
    the caller, not here, so a violation still lands in the artifact.
    """

    name: str
    scale: str
    num_events: int
    num_access_events: int
    num_tasks: int
    num_locations: int
    races: int
    freeze_seconds: float
    identical: bool
    per_jobs: Dict[int, Dict[str, Any]]

    def speedup(self, jobs: int) -> float:
        base = self.per_jobs.get(1, {}).get("seconds", 0.0)
        ours = self.per_jobs.get(jobs, {}).get("seconds", 0.0)
        return base / ours if ours else 0.0


def run_parallel_benchmark(
    name: str,
    scale: str = "small",
    *,
    jobs: tuple = (1, 2, 4),
    repeats: int = 1,
    verify: bool = True,
    backend: Optional[str] = None,
) -> ParallelBenchResult:
    """Record one workload's trace, then check it at each job count.

    The workload runs **once** with only a trace recorder attached
    (phase 1); every job count then re-checks the same recorded stream
    (phase 2), so the comparison isolates checker throughput from
    workload execution.  Wall times are best-of-``repeats`` per job
    count, like :func:`run_benchmark`.
    """
    from repro.core.parallel_check import check_trace_parallel
    from repro.memory.tracer import TraceRecorder

    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)

    recorder = TraceRecorder()
    run = run_instrumented(
        lambda rt: bench.parallel(rt, params),
        detect=False,
        extra_observers=(recorder,),
    )
    if verify:
        bench.verify(params, run.result)
    trace = recorder.trace

    golden_summary: Optional[str] = None
    golden_perf: Optional[Dict[str, Any]] = None
    identical = True
    per_jobs: Dict[int, Dict[str, Any]] = {}
    result = None
    for n in jobs:
        best_total = float("inf")
        best_check = float("inf")
        best_freeze = float("inf")
        best_build = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = check_trace_parallel(trace, jobs=n, backend=backend)
            wall = time.perf_counter() - start
            best_total = min(best_total, wall)
            best_check = min(
                best_check, result.timings["check_seconds"]
            )
            best_freeze = min(
                best_freeze, result.timings["freeze_seconds"]
            )
            best_build = min(
                best_build, result.timings["build_seconds"]
            )
        assert result is not None
        if golden_summary is None:
            golden_summary = result.summary()
            golden_perf = result.perf_stats
        elif (result.summary() != golden_summary
              or result.perf_stats != golden_perf):
            identical = False
        per_jobs[n] = {
            "seconds": best_total,
            "check_seconds": best_check,
            "freeze_seconds": best_freeze,
            "build_seconds": best_build,
            "backend": result.backend,
            "shards": len(result.shards),
        }
    assert result is not None
    base = per_jobs.get(jobs[0], {}).get("seconds", 0.0)
    num_events = result.num_events
    num_access = result.num_access_events
    for n in jobs:
        row = per_jobs[n]
        row["speedup"] = base / row["seconds"] if row["seconds"] else 0.0
        # build_seconds is the encoding pass, check_seconds the shard
        # fan-out (each shard replays the structure, then checks its
        # accesses).
        row["events_per_second"] = (
            num_events / row["seconds"] if row["seconds"] else 0.0
        )
        row["access_events_per_second"] = (
            num_access / row["check_seconds"] if row["check_seconds"] else 0.0
        )
    return ParallelBenchResult(
        name=name,
        scale=scale,
        num_events=result.num_events,
        num_access_events=result.num_access_events,
        num_tasks=result.num_tasks,
        num_locations=result.num_locations,
        races=len(result.races),
        freeze_seconds=per_jobs[jobs[0]]["freeze_seconds"],
        identical=identical,
        per_jobs=per_jobs,
    )


@dataclass
class ThroughputBenchResult:
    """One workload's trace checked by two single-thread engines
    back-to-back in the same process (box speed varies across runs, so
    only same-process ratios are meaningful):

    * ``replay`` — the default :class:`~repro.core.detector.
      DeterminacyRaceDetector` (the kernel, resumed in batches as the
      events arrive) re-driven over the recorded events by
      :func:`~repro.memory.tracer.replay_trace` (the events are decoded
      from the trace once, before timing);
    * ``fast`` — :func:`repro.core.fastcheck.check_trace_fast` over the
      recorded trace's :class:`~repro.core.events.EncodedTrace` columns:
      one pass over the flat-array live DTRG (what ``racecheck --fast``
      and every ``--jobs`` shard run).  The columns are written while the
      program is recorded, which neither leg times, so this leg has no
      encode pass.

    ``identical`` records the bit-equivalence contract: both legs
    produced the same ``RaceReport.summary()`` text, the same ordered race
    pair list and the same value of every invariant perf counter
    (``precede_queries``, ``mutation_epoch``, ``shadow_fast_hits``,
    ``precede_calls_saved``): they run the same kernel.
    """

    name: str
    scale: str
    num_events: int
    num_access_events: int
    num_structure_events: int
    num_tasks: int
    num_locations: int
    races: int
    replay_seconds: float
    fast_timings: Dict[str, float]  #: encode/structure/access/total seconds
    identical: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def replay_events_per_second(self) -> float:
        s = self.replay_seconds
        return self.num_events / s if s else 0.0

    @property
    def fast_events_per_second(self) -> float:
        s = self.fast_timings.get("total_seconds", 0.0)
        return self.num_events / s if s else 0.0

    @property
    def fast_access_events_per_second(self) -> float:
        s = self.fast_timings.get("access_seconds", 0.0)
        return self.num_access_events / s if s else 0.0

    @property
    def speedup_total_vs_replay(self) -> float:
        """The gated ratio: replay wall time over the fast path's total,
        same trace, same process.  Neither side includes recording, which
        is where the trace is lowered to columns."""
        s = self.fast_timings.get("total_seconds", 0.0)
        return self.replay_seconds / s if s else 0.0


_INVARIANT_PERF = (
    "precede_queries", "mutation_epoch",
    "shadow_fast_hits", "precede_calls_saved",
)


def run_throughput_benchmark(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 2,
    verify: bool = True,
) -> ThroughputBenchResult:
    """Record one workload's trace, then race the two single-thread
    checking legs over it (see :class:`ThroughputBenchResult`).

    Both legs run back-to-back in this process on the *same* recorded
    stream; wall times are best-of-``repeats`` per engine (per timing key
    for the fast path).  Equivalence is asserted into
    ``identical``/``mismatches`` rather than raised so a violation still
    lands in the artifact (and the CLI exits non-zero)."""
    from repro.core.detector import DeterminacyRaceDetector
    from repro.core.fastcheck import check_trace_fast
    from repro.memory.tracer import TraceRecorder, replay_trace

    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)
    recorder = TraceRecorder()
    run = run_instrumented(
        lambda rt: bench.parallel(rt, params),
        detect=False,
        extra_observers=(recorder,),
    )
    if verify:
        bench.verify(params, run.result)
    trace = recorder.trace
    events = list(trace)  # decode once, outside the timed replays

    replay_best = float("inf")
    detector = None
    for _ in range(repeats):
        detector = DeterminacyRaceDetector()
        start = time.perf_counter()
        replay_trace(events, [detector])
        replay_best = min(replay_best, time.perf_counter() - start)

    fast = None
    fast_timings: Dict[str, float] = {}
    for _ in range(repeats):
        fast = check_trace_fast(trace)
        for key, value in fast.timings.items():
            fast_timings[key] = min(fast_timings.get(key, value), value)

    assert detector is not None and fast is not None
    mismatches: List[str] = []
    if fast.summary() != detector.report.summary():
        mismatches.append("fast: summary differs from replay")
    if [r.pair_key for r in fast.races] != [
        r.pair_key for r in detector.races
    ]:
        mismatches.append("fast: race list differs from replay")
    stats = fast.perf_stats
    golden_stats = detector.perf_stats
    for key in _INVARIANT_PERF:
        if stats[key] != golden_stats[key]:
            mismatches.append(
                f"fast: {key} {stats[key]} != {golden_stats[key]}"
            )

    return ThroughputBenchResult(
        name=name,
        scale=scale,
        num_events=fast.num_events,
        num_access_events=fast.num_access_events,
        num_structure_events=fast.num_structure_events,
        num_tasks=fast.num_tasks,
        num_locations=fast.num_locations,
        races=len(fast.races),
        replay_seconds=replay_best,
        fast_timings=fast_timings,
        identical=not mismatches,
        mismatches=mismatches,
    )


@dataclass
class TelemetryBenchResult:
    """One workload's trace checked twice by the fast-path engine:

    * ``detached`` — plain ``check_trace_fast(encoded)``, no telemetry
      object anywhere (the PR 3 null-object contract: this leg must be
      byte-identical to a build without ``repro.obs.live`` imported);
    * ``served`` — the same call with a :class:`~repro.obs.live.
      LiveTelemetry` progress counter attached, the 250 ms runtime
      sampler running, the HTTP exporter bound to an ephemeral port and
      an in-process scraper hitting ``/metrics`` every 250 ms — the
      worst realistic observation load a long run sees.

    ``identical`` records the equivalence gate: both legs produced the
    same ``RaceReport.summary()`` text, the same ordered race pair list
    and the same invariant perf counters.  ``telemetry_overhead_pct`` is
    the served/detached wall-time slowdown the ≤5 % acceptance gate
    applies to (best-of-``repeats`` per leg, same process, so box-speed
    noise mostly cancels).
    """

    name: str
    scale: str
    num_events: int
    num_access_events: int
    races: int
    detached_seconds: float
    served_seconds: float
    scrapes: int               #: successful /metrics fetches in the served leg
    samples: int               #: sampler ticks observed in the served leg
    identical: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def telemetry_overhead_pct(self) -> float:
        d = self.detached_seconds
        return (self.served_seconds - d) / d * 100.0 if d else 0.0

    @property
    def detached_events_per_second(self) -> float:
        s = self.detached_seconds
        return self.num_events / s if s else 0.0

    @property
    def served_events_per_second(self) -> float:
        s = self.served_seconds
        return self.num_events / s if s else 0.0


def run_telemetry_benchmark(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 3,
    verify: bool = True,
    interval: float = 0.25,
) -> TelemetryBenchResult:
    """Measure the live-telemetry plane's checking overhead on one
    workload (see :class:`TelemetryBenchResult`).

    Records the trace once, then runs a detached leg and a served leg
    back-to-back in this process; each leg is best-of-``repeats``.  The
    served leg keeps one LiveTelemetry (sampler + HTTP exporter) running
    across its repeats and scrapes its own ``/metrics`` endpoint every
    ``interval`` seconds from a background thread, so the number includes
    exposition rendering and sampler contention, not just the progress
    counter bumps."""
    import threading
    import urllib.request

    from repro.core.events import encode_trace
    from repro.core.fastcheck import check_trace_fast
    from repro.memory.tracer import TraceRecorder
    from repro.obs.live import LiveTelemetry

    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)
    recorder = TraceRecorder()
    run = run_instrumented(
        lambda rt: bench.parallel(rt, params),
        detect=False,
        extra_observers=(recorder,),
    )
    if verify:
        bench.verify(params, run.result)
    encoded = encode_trace(recorder.trace)

    detached_best = float("inf")
    detached = None
    for _ in range(repeats):
        start = time.perf_counter()
        detached = check_trace_fast(encoded)
        detached_best = min(detached_best, time.perf_counter() - start)

    served_best = float("inf")
    served = None
    scrapes = 0
    telemetry = LiveTelemetry(port=0, interval=interval)
    telemetry.start()
    stop = threading.Event()

    def _scrape_loop() -> None:
        # Scrape-then-wait, so even a leg shorter than one interval sees
        # at least one concurrent exposition render.
        nonlocal scrapes
        url = f"{telemetry.url}/metrics"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=2.0) as resp:
                    resp.read()
                scrapes += 1
            except OSError:
                pass
            if stop.wait(interval):
                return

    scraper = threading.Thread(target=_scrape_loop, daemon=True)
    scraper.start()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            served = check_trace_fast(encoded, progress=telemetry.progress)
            served_best = min(served_best, time.perf_counter() - start)
        samples = int(telemetry.sampler.gauges.get("sampler_samples_total", 0))
    finally:
        stop.set()
        scraper.join(timeout=2.0)
        telemetry.stop()

    assert detached is not None and served is not None
    mismatches: List[str] = []
    if served.summary() != detached.summary():
        mismatches.append("served: summary differs from detached")
    if (
        [r.pair_key for r in served.races]
        != [r.pair_key for r in detached.races]
    ):
        mismatches.append("served: race list differs from detached")
    for key in _INVARIANT_PERF:
        if served.perf_stats[key] != detached.perf_stats[key]:
            mismatches.append(
                f"served: {key} {served.perf_stats[key]} "
                f"!= {detached.perf_stats[key]}"
            )

    return TelemetryBenchResult(
        name=name,
        scale=scale,
        num_events=detached.num_events,
        num_access_events=detached.num_access_events,
        races=len(detached.races),
        detached_seconds=detached_best,
        served_seconds=served_best,
        scrapes=scrapes,
        samples=samples,
        identical=not mismatches,
        mismatches=mismatches,
    )


#: Engine rows of the ``--backends`` head-to-head, in report order.  The
#: first row is the golden engine the others are gated against.
BACKEND_ENGINES = ("dtrg", "vc")


@dataclass
class BackendBenchResult:
    """One workload's recorded trace replayed through every PRECEDE
    backend (``DeterminacyRaceDetector(engine=…)``) back-to-back in the
    same process — the head-to-head table of docs/ALGORITHM.md §14.2.

    ``per_engine`` maps each engine to its row: ``status`` is ``"ok"``
    or ``"error"``; completed rows carry best-of-``repeats`` replay wall
    seconds, the events/s they imply, the race count and the engine's
    own perf counters.

    The equivalence gate is the *verdict stream* only: every completed
    engine must reproduce the golden (first) engine's
    ``RaceReport.summary()`` text and ordered race pair list
    bit-for-bit.  Perf counters are per-engine invariants — vector
    clocks count no VISIT and tick on every join — so they are reported,
    not gated (the kernel's counter bit-match across its live, replayed
    and fast legs has its own gate in ``--throughput``).
    """

    name: str
    scale: str
    num_events: int
    num_access_events: int
    num_tasks: int
    num_gets: int
    races: int
    per_engine: Dict[str, Dict[str, Any]]
    identical: bool
    mismatches: List[str] = field(default_factory=list)


def run_backend_benchmark(
    name: str,
    scale: str = "small",
    *,
    engines: tuple = BACKEND_ENGINES,
    repeats: int = 2,
    verify: bool = True,
) -> BackendBenchResult:
    """Record one workload's trace, then replay it through each PRECEDE
    backend (see :class:`BackendBenchResult`).

    The workload runs **once** with only a trace recorder attached; every
    engine then re-checks the same recorded stream through the full
    detector (the one kernel, shadow state included), so the rows differ
    only in the PRECEDE data structure behind them.  The events are decoded from the
    trace once, before any engine is timed.  Wall times are
    best-of-``repeats`` per engine.  Mismatches are recorded, not
    raised, so a violation still lands in the artifact."""
    from repro.core.detector import DeterminacyRaceDetector
    from repro.memory.tracer import TraceRecorder, replay_trace

    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)
    recorder = TraceRecorder()
    run = run_instrumented(
        lambda rt: bench.parallel(rt, params),
        detect=False,
        extra_observers=(recorder,),
    )
    if verify:
        bench.verify(params, run.result)
    events = list(recorder.trace)  # decode once, outside the timed replays
    metrics = run.metrics

    per_engine: Dict[str, Dict[str, Any]] = {}
    mismatches: List[str] = []
    golden_summary: Optional[str] = None
    golden_pairs: Optional[List] = None
    golden_races = 0
    for engine in engines:
        best = float("inf")
        detector = None
        status = "ok"
        detail = ""
        for _ in range(repeats):
            detector = DeterminacyRaceDetector(engine=engine)
            start = time.perf_counter()
            try:
                replay_trace(events, [detector])
            except Exception as exc:
                status = "error"
                detail = f"{type(exc).__name__}: {exc}"
                detector = None
                break
            best = min(best, time.perf_counter() - start)
        row: Dict[str, Any] = {"status": status}
        if detail:
            row["detail"] = detail
        if detector is not None:
            row["seconds"] = best
            row["events_per_second"] = (
                round(len(events) / best, 1) if best else 0.0
            )
            row["races"] = len(detector.races)
            row["perf"] = detector.perf_stats
            summary = detector.report.summary()
            pairs = [r.pair_key for r in detector.races]
            if golden_summary is None:
                golden_summary = summary
                golden_pairs = pairs
                golden_races = len(pairs)
            else:
                if summary != golden_summary:
                    mismatches.append(
                        f"{engine}: summary differs from {engines[0]}"
                    )
                if pairs != golden_pairs:
                    mismatches.append(
                        f"{engine}: race list differs from {engines[0]}"
                    )
        elif status == "error":
            mismatches.append(f"{engine}: {detail}")
        per_engine[engine] = row

    return BackendBenchResult(
        name=name,
        scale=scale,
        num_events=len(events),
        num_access_events=metrics.num_shared_accesses,
        num_tasks=metrics.num_tasks,
        num_gets=metrics.num_gets,
        races=golden_races,
        per_engine=per_engine,
        identical=not mismatches,
        mismatches=mismatches,
    )


@dataclass
class ExecutorBenchResult:
    """One workload *executed for real* on every runtime substrate with
    a fresh online :class:`~repro.core.parallel_detector.ParallelRaceDetector`
    attached (PR 8).

    ``per_runtime`` maps ``"serial"`` / ``"threads-N"`` to its row:
    best-of-``repeats`` wall seconds, tasks/s and shadow-checked
    accesses/s implied by that wall time, the speedup over the serial
    elision, and (threads rows) the peak pool size — workers plus any
    compensation threads spawned for blocking waits — with the
    ``compensation_threads`` started and the tasks ``inlined`` by a
    blocked ``get`` or finish exit.

    The equivalence gate is the *racy-location set*: every runtime must
    report exactly the serial elision's set (race pair order is
    schedule-dependent; DESIGN.md "Race order under parallel runtimes").
    The AsyncioRuntime is exercised by the fuzz/property parity sweeps,
    not here: workload kernels use the synchronous blocking ``get()``
    style, which the cooperative runtime by design rejects.

    On a single-core box thread-row "speedups" measure scheduling
    overhead, never parallelism — the artifact records ``cpu_count`` so
    a reader can judge (same caveat as the sharded-checker benchmark).
    """

    name: str
    scale: str
    races: int
    num_tasks: int
    num_accesses: int
    identical: bool
    per_runtime: Dict[str, Dict[str, Any]]
    mismatches: List[str] = field(default_factory=list)


def run_executor_benchmark(
    name: str,
    scale: str = "small",
    *,
    workers: tuple = (1, 2, 4),
    repeats: int = 1,
    verify: bool = True,
) -> ExecutorBenchResult:
    """Run one workload on the serial elision and on a work-stealing
    ThreadRuntime at each pool size in ``workers``, detecting online
    during execution (see :class:`ExecutorBenchResult`).

    Unlike the trace-replay benchmarks, nothing is recorded and nothing
    is replayed: every leg is a live run, so thread rows measure the
    whole contract at once — scheduler, per-task access buffers, and
    the verified workload result.  Mismatches are recorded, not raised,
    so a violation still lands in the artifact."""
    from repro.core.parallel_detector import ParallelRaceDetector
    from repro.runtime.executor import ThreadRuntime
    from repro.runtime.runtime import Runtime

    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)

    def one_leg(make_runtime):
        best = float("inf")
        det = stats = rt = None
        for _ in range(repeats):
            det = ParallelRaceDetector()
            rt = make_runtime(det)
            start = time.perf_counter()
            result = rt.run(lambda r: bench.parallel(r, params))
            best = min(best, time.perf_counter() - start)
            stats = det.perf_stats
            if verify:
                bench.verify(params, result)
        return det, stats, best, rt

    per_runtime: Dict[str, Dict[str, Any]] = {}
    mismatches: List[str] = []

    det, stats, serial_best, _ = one_leg(
        lambda d: Runtime(observers=[d])
    )
    golden = frozenset(det.racy_locations)
    races = len(det.races)
    num_tasks = stats["num_tasks"]
    num_accesses = stats["num_accesses"]
    per_runtime["serial"] = {
        "seconds": serial_best,
        "tasks_per_second": round(num_tasks / serial_best, 1)
        if serial_best else 0.0,
        "accesses_per_second": round(num_accesses / serial_best, 1)
        if serial_best else 0.0,
        "speedup_vs_serial": 1.0,
        "races": races,
    }

    for w in workers:
        det, stats, best, rt = one_leg(
            lambda d, w=w: ThreadRuntime(observers=[d], workers=w)
        )
        row: Dict[str, Any] = {
            "workers": w,
            "pool_size": rt.pool_size,
            "compensation_threads": rt.compensation_threads,
            "inlined": rt.inlined,
            "seconds": best,
            "tasks_per_second": round(stats["num_tasks"] / best, 1)
            if best else 0.0,
            "accesses_per_second": round(stats["num_accesses"] / best, 1)
            if best else 0.0,
            "speedup_vs_serial": round(serial_best / best, 4)
            if best else 0.0,
            "races": len(det.races),
        }
        got = frozenset(det.racy_locations)
        if got != golden:
            mismatches.append(
                f"threads-{w}: racy locations {sorted(got)} != "
                f"serial {sorted(golden)}"
            )
        if stats["num_tasks"] != num_tasks:
            mismatches.append(
                f"threads-{w}: task count {stats['num_tasks']} != "
                f"serial {num_tasks}"
            )
        per_runtime[f"threads-{w}"] = row

    return ExecutorBenchResult(
        name=name,
        scale=scale,
        races=races,
        num_tasks=num_tasks,
        num_accesses=num_accesses,
        identical=not mismatches,
        per_runtime=per_runtime,
        mismatches=mismatches,
    )


def run_benchmark(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 1,
    verify: bool = True,
    obs=None,
) -> BenchmarkResult:
    """Run one Table 2 row in all three configurations.

    ``repeats`` keeps the best wall time per configuration (the paper uses
    the mean of 10 in-JVM runs to dodge JIT warmup; CPython has no warmup,
    so min-of-N suffices and is the conventional choice for interpreted
    code).

    ``obs`` (an :class:`repro.obs.Observability`) instruments the *Racedet*
    configuration only — the Seq and Instrumented bars stay untouched so
    the reported slowdowns keep their meaning.  The structural Table-2
    columns are identical with and without it (pinned by
    ``tests/integration/test_obs_integration.py``).
    """
    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)

    seq_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        bench.serial(params)
        seq_best = min(seq_best, time.perf_counter() - start)

    instr_best = float("inf")
    metrics: Optional[Metrics] = None
    for _ in range(repeats):
        run = run_instrumented(
            lambda rt: bench.parallel(rt, params), detect=False
        )
        instr_best = min(instr_best, run.wall_seconds)
        metrics = run.metrics
        if verify:
            bench.verify(params, run.result)

    det_best = float("inf")
    avg_readers = 0.0
    races = 0
    perf = DetectorPerf()
    for _ in range(repeats):
        run = run_instrumented(
            lambda rt: bench.parallel(rt, params), detect=True, obs=obs
        )
        det_best = min(det_best, run.wall_seconds)
        avg_readers = run.avg_readers
        races = len(run.races)
        perf = DetectorPerf.from_detector(run.detector)
        if verify:
            bench.verify(params, run.result)

    assert metrics is not None
    return BenchmarkResult(
        name=name,
        scale=scale,
        metrics=metrics,
        avg_readers=avg_readers,
        seq_seconds=seq_best,
        instrumented_seconds=instr_best,
        racedet_seconds=det_best,
        races=races,
        perf=perf,
    )
