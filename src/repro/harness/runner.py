"""Benchmark registry and single-benchmark execution for the harness.

Maps the seven Table 2 rows to workload entry points and runs one row in
the paper's three configurations (:func:`run_benchmark`):

* ``Seq``          — serial elision, uninstrumented (paper's Seq column);
* ``Instrumented`` — runtime + shared wrappers + metrics, *no* detector.
  The paper's bytecode instrumentation is nearly free on the JVM; in
  CPython the wrapper calls dominate, so we report this middle bar to keep
  the ``Racedet/Instrumented`` ratio comparable to the paper's
  ``Racedet/Seq`` (see EXPERIMENTS.md for the discussion);
* ``Racedet``      — instrumentation + the determinacy race detector.

:data:`MODES` is ``repro-bench``'s table of comparison modes and
:func:`run_legs` runs any of them: each mode names its legs (``jobs-N``;
``replay``/``fast``; one per engine; ``serial``/``threads-N``;
``detached``/``served``), the verdict every leg must match against the
first, and the extra fields each leg records.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.core.parallel_detector import ParallelRaceDetector
from repro.harness.metrics import DetectorPerf, Metrics
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.obs.live import LiveTelemetry
from repro.runtime.executor import ThreadRuntime
from repro.runtime.runtime import Runtime
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
    "BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "Leg",
    "MAX_OVERHEAD_PCT",
    "MODES",
    "Mode",
    "run_benchmark",
    "run_legs",
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


#: The telemetry mode's bound: a served leg may be at most this many
#: percent slower than its detached leg.
MAX_OVERHEAD_PCT = 5.0

#: Perf counters every run of the one kernel reproduces exactly.
_INVARIANT_PERF = (
    "precede_queries", "mutation_epoch",
    "shadow_fast_hits", "precede_calls_saved",
)

#: Engine legs of the ``backends`` mode, in report order.
_ENGINES = ("dtrg", "vc")

#: Cadence of the served leg's sampler and scraper, in seconds.
_SCRAPE_INTERVAL = 0.25


@dataclass(frozen=True)
class Leg:
    """One timed configuration of a comparison mode.

    ``run`` is the timed call; it returns what was checked (a detector
    or a check result).  ``fields`` runs untimed after every sample: it
    verifies what the leg must verify, raising on a fault, and returns
    the leg's extra per-leg fields.  ``around`` is an untimed set-up and
    tear-down wrapped round every sample."""

    name: str
    run: Callable[[], Any]
    fields: Callable[[Any], Dict[str, Any]] = lambda checked: {}
    around: Callable[[], ContextManager] = contextlib.nullcontext


@dataclass(frozen=True)
class Mode:
    """One ``repro-bench`` comparison (see :func:`run_legs`)."""

    #: ``(bench, params, trace, verify, **options) -> [Leg, ...]``.
    legs: Callable[..., List[Leg]]
    #: The named parts of a leg's verdict; every leg must match the first.
    verdict: Callable[[Any], Dict[str, Any]]
    output: str                        #: default artifact path
    min_repeats: int = 1
    #: Bound on how much slower than the first leg any later leg may be.
    max_overhead_pct: Optional[float] = None
    #: Its speedups need more than one core to mean anything.
    multicore: bool = False


def _report_verdict(checked) -> Dict[str, Any]:
    return {
        "summary": checked.report.summary(),
        "races": [r.pair_key for r in checked.races],
    }


def _kernel_verdict(checked) -> Dict[str, Any]:
    verdict = _report_verdict(checked)
    stats = checked.perf_stats
    verdict.update((key, stats[key]) for key in _INVARIANT_PERF)
    return verdict


def _parallel_verdict(result) -> Dict[str, Any]:
    return {"summary": result.summary(), "perf_stats": result.perf_stats}


def _executor_verdict(detector) -> Dict[str, Any]:
    # Race pair order is schedule-dependent (DESIGN.md "Race order under
    # parallel runtimes"); the racy-location set is not.
    return {
        "racy_locations": frozenset(detector.racy_locations),
        "num_tasks": detector.perf_stats["num_tasks"],
    }


def _fast_fields(result) -> Dict[str, Any]:
    fields = dict(result.timings)
    fields["access_events_per_second"] = round(
        result.access_events_per_second, 1
    )
    return fields


def _replay_leg(name: str, events, engine: str = "array") -> Leg:
    def run():
        detector = DeterminacyRaceDetector(engine=engine)
        replay_trace(events, [detector])
        return detector

    return Leg(name, run, lambda detector: {"perf": detector.perf_stats})


def _parallel_legs(bench, params, trace, verify, *, jobs=(1, 2, 4),
                   backend=None, **_) -> List[Leg]:
    def fields(result) -> Dict[str, Any]:
        t = result.timings
        return {
            "check_seconds": t["check_seconds"],
            "freeze_seconds": t["freeze_seconds"],
            "build_seconds": t["build_seconds"],
            "backend": result.backend,
            "shards": len(result.shards),
            "access_events_per_second": round(
                result.num_access_events / t["check_seconds"], 1
            ) if t["check_seconds"] else 0.0,
        }

    return [
        Leg(f"jobs-{n}",
            lambda n=n: check_trace_parallel(trace, jobs=n, backend=backend),
            fields)
        for n in jobs
    ]


def _throughput_legs(bench, params, trace, verify, **_) -> List[Leg]:
    events = list(trace)  # decode once, outside the timed replays
    return [
        _replay_leg("replay", events),
        Leg("fast", lambda: check_trace_fast(trace), _fast_fields),
    ]


def _backend_legs(bench, params, trace, verify, **_) -> List[Leg]:
    events = list(trace)
    return [_replay_leg(engine, events, engine) for engine in _ENGINES]


def _executor_legs(bench, params, trace, verify, *, workers=(1, 2, 4),
                   **_) -> List[Leg]:
    def leg(name, make_runtime, fields) -> Leg:
        state: Dict[str, Any] = {}

        def run():
            detector = ParallelRaceDetector()
            state["runtime"] = runtime = make_runtime(detector)
            state["result"] = runtime.run(
                lambda rt: bench.parallel(rt, params)
            )
            return detector

        def check(detector) -> Dict[str, Any]:
            if verify:
                bench.verify(params, state["result"])
            return fields(state["runtime"])

        return Leg(name, run, check)

    def threads(w: int) -> Leg:
        return leg(
            f"threads-{w}",
            lambda d: ThreadRuntime(observers=[d], workers=w),
            lambda rt: {"workers": w, "pool_size": rt.pool_size,
                        "compensation_threads": rt.compensation_threads,
                        "inlined": rt.inlined},
        )

    serial = leg("serial", lambda d: Runtime(observers=[d]), lambda rt: {})
    return [serial] + [threads(w) for w in workers]


def _telemetry_legs(bench, params, trace, verify, **_) -> List[Leg]:
    encoded = encode_trace(trace)
    state: Dict[str, Any] = {}

    @contextlib.contextmanager
    def serving():
        # The plane runs as a long check sees it: sampler ticking, the
        # exporter listening, a client scraping /metrics every interval.
        # Its start-up and first scrape finish before the timer starts.
        telemetry = LiveTelemetry(port=0, interval=_SCRAPE_INTERVAL)
        state.update(telemetry=telemetry, scrapes=0)
        stop, scraped = threading.Event(), threading.Event()

        def scrape_loop() -> None:
            url = f"{telemetry.url}/metrics"
            while True:
                try:
                    with urllib.request.urlopen(url, timeout=2.0) as resp:
                        resp.read()
                    state["scrapes"] += 1
                except OSError:
                    pass
                scraped.set()
                if stop.wait(_SCRAPE_INTERVAL):
                    return

        telemetry.start()
        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
        try:
            scraped.wait(5.0)
            yield
        finally:
            stop.set()
            scraper.join(timeout=2.0)
            state["samples"] = telemetry.sampler.samples_total
            telemetry.stop()

    def served_fields(result) -> Dict[str, Any]:
        return {**_fast_fields(result), "scrapes": state["scrapes"],
                "samples": state["samples"]}

    return [
        Leg("detached", lambda: check_trace_fast(encoded), _fast_fields),
        Leg("served",
            lambda: check_trace_fast(
                encoded, progress=state["telemetry"].progress),
            served_fields, serving),
    ]


#: ``repro-bench``'s comparison modes, by flag name.
MODES: Dict[str, Mode] = {
    "parallel": Mode(_parallel_legs, _parallel_verdict, "BENCH_PR5.json",
                     multicore=True),
    "throughput": Mode(_throughput_legs, _kernel_verdict, "BENCH_PR6.json",
                       min_repeats=2),
    "backends": Mode(_backend_legs, _report_verdict, "BENCH_PR7.json",
                     min_repeats=2),
    "executors": Mode(_executor_legs, _executor_verdict, "BENCH_PR8.json",
                      multicore=True),
    "telemetry": Mode(_telemetry_legs, _kernel_verdict, "BENCH_PR9.json",
                      min_repeats=3, max_overhead_pct=MAX_OVERHEAD_PCT),
}


def run_legs(
    mode: str,
    name: str,
    scale: str = "small",
    *,
    repeats: int = 1,
    verify: bool = True,
    **options,
) -> Dict[str, Any]:
    """Run one workload through one comparison mode; return its row.

    The workload runs **once** with a trace recorder attached (the
    counts come from that run); the mode builds its legs from the
    recorded trace and ``options`` (``jobs``/``backend`` for
    ``parallel``, ``workers`` for ``executors``).  Then ``repeats``
    rounds, at least the mode's ``min_repeats``, each time every leg
    once, in an order that rotates from round to round, after a garbage
    collection, so no leg always runs first or collects another's
    garbage.  Each leg keeps its fastest sample.

    A leg that raises is an ``error`` leg and a mismatch.  Every other
    leg must reproduce the first completed leg's verdict, part by part;
    a mismatch is recorded, not raised, so it still lands in the
    artifact (and the CLI exits non-zero).  Per leg the row records
    ``seconds``, ``events_per_second``, ``speedup`` over the first leg,
    ``races``, the mode's extra fields and, in a mode with an overhead
    bound, ``overhead_pct``.
    """
    spec = MODES[mode]
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
    legs = spec.legs(bench, params, recorder.trace, verify, **options)

    best: Dict[str, tuple] = {}
    errors: Dict[str, str] = {}
    for rnd in range(max(repeats, spec.min_repeats)):
        k = rnd % len(legs)
        for leg in legs[k:] + legs[:k]:
            if leg.name in errors:
                continue
            try:
                with leg.around():
                    gc.collect()
                    start = time.perf_counter()
                    checked = leg.run()
                    wall = time.perf_counter() - start
                fields = leg.fields(checked)
            except Exception as exc:
                errors[leg.name] = f"{type(exc).__name__}: {exc}"
                continue
            if leg.name not in best or wall < best[leg.name][0]:
                best[leg.name] = (wall, checked, fields)

    num_events = run.metrics.num_events
    rows: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    golden = None
    for leg in legs:
        if leg.name in errors:
            rows.append({"leg": leg.name, "status": "error",
                         "detail": errors[leg.name]})
            mismatches.append(f"{leg.name}: {errors[leg.name]}")
            continue
        wall, checked, fields = best[leg.name]
        verdict = spec.verdict(checked)
        if golden is None:
            golden = (leg.name, verdict, wall, len(checked.races))
        first, want, base, _ = golden
        mismatches += [
            f"{leg.name}: {key} differs from {first}"
            for key in want if verdict[key] != want[key]
        ]
        row = {
            "leg": leg.name,
            "status": "ok",
            "seconds": wall,
            "events_per_second": round(num_events / wall, 1) if wall else 0.0,
            "speedup": round(base / wall, 4) if wall else 0.0,
            "races": len(checked.races),
            **fields,
        }
        if spec.max_overhead_pct is not None:
            row["overhead_pct"] = (
                round((wall - base) / base * 100.0, 2) if base else 0.0
            )
        rows.append(row)
    return {
        "name": name,
        "scale": scale,
        "num_events": num_events,
        "num_access_events": run.metrics.num_shared_accesses,
        "num_tasks": run.metrics.num_tasks,
        "num_gets": run.metrics.num_gets,
        "races": golden[3] if golden else 0,
        "identical": not mismatches,
        "mismatches": mismatches,
        "legs": rows,
    }


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
    the mean of 10 in-JVM runs to dodge JIT warmup; min-of-N is the
    conventional choice for interpreted code).  CPython warms up too: a
    workload's first call in a process pays for imports, allocator growth
    and cold caches (``jacobi.serial`` at ``tiny`` scale took about 9 ms
    cold and 0.05 ms warm), so one untimed ``Seq`` call precedes the
    timed ones.

    ``obs`` (an :class:`repro.obs.Observability`) instruments the *Racedet*
    configuration only — the Seq and Instrumented bars stay untouched so
    the reported slowdowns keep their meaning.  The structural Table-2
    columns are identical with and without it (pinned by
    ``tests/integration/test_obs_integration.py``).
    """
    bench = BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]
    params = bench.params(scale)

    bench.serial(params)  # untimed warm-up, see above
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
