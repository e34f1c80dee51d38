"""``repro-bench`` — machine-readable benchmark runs for CI artifacts.

``repro-table2`` renders the paper's Table 2 for humans; this entry point
runs the same registry (:data:`~repro.harness.runner.BENCHMARKS`, plus
``--extended`` for the extension rows) and writes one JSON document —
``BENCH_PR4.json`` by default — that CI uploads as an artifact so perf and
structural counters can be diffed across commits without screen-scraping
the rendered table::

    repro-bench --scale tiny --repeats 1 --output BENCH_PR4.json

Per workload the document records the three wall times (Seq /
Instrumented / Racedet, min-of-``--repeats``), both slowdown ratios, the
structural counters the paper reports (#Tasks, #NTJoins, #SharedMem,
#AvgReaders) and the detector's fast-path counters (PRECEDE queries,
calls saved by the shadow fast paths).

Schema (``repro.bench/1``)::

    {"schema": "repro.bench/1", "scale": ..., "repeats": ...,
     "tag": ..., "workloads": [{"name": ..., "seq_seconds": ...,
       "instrumented_seconds": ..., "racedet_seconds": ...,
       "slowdown_vs_seq": ..., "slowdown_vs_instrumented": ...,
       "races": ..., "structural": {...}, "detector_perf": {...}}, ...]}

``--parallel`` switches to the sharded checker benchmark
(``docs/ALGORITHM.md`` §12) and writes ``BENCH_PR5.json`` by default:
each workload's trace is recorded once, then checked at every ``--jobs``
count, recording per-count wall times, speedup over jobs=1, the
shard-plan time (``freeze_seconds``), and whether every count reproduced
the jobs=1 summary and counters byte-for-byte (``identical_across_jobs``
— the determinism contract)::

    repro-bench --parallel --scale small --jobs 1,2,4 --output BENCH_PR5.json

Schema (``repro.bench.parallel/2``)::

    {"schema": "repro.bench.parallel/2", "scale": ..., "repeats": ...,
     "cpu_count": ..., "tag": ..., "workloads": [{"name": ...,
       "num_events": ..., "num_access_events": ..., "num_tasks": ...,
       "races": ..., "freeze_seconds": ..., "identical_across_jobs": ...,
       "jobs": [{"jobs": 1, "seconds": ..., "check_seconds": ...,
                 "freeze_seconds": ..., "speedup": ...,
                 "backend": ..., "shards": ...}, ...]}, ...]}

``backend`` and ``shards`` record how each job count was dispatched: the
auto backend checks a trace below the split break-even
(``parallel_check.MIN_SPLIT_ROWS``) as one ``inline`` shard, and such a
row times no split at all.

On a single-core box (``os.cpu_count() == 1``) the parallel document is
additionally tagged ``"speedup_valid": false`` and a loud warning is
printed: multi-job wall times there measure sharding *overhead*, never
speedup, and must not be read as regressions.

``--throughput`` races the two single-thread checking legs back-to-back
over each workload's recorded trace — the default detector replaying the
events (the kernel resumed in batches) and the fast path
(:func:`repro.core.fastcheck.check_trace_fast` over the columns the
recorder wrote; neither leg includes recording) — and writes
``BENCH_PR6.json`` by default::

    repro-bench --throughput --scale large --only Jacobi

Schema (``repro.bench.throughput/2``)::

    {"schema": "repro.bench.throughput/2", "scale": ..., "repeats": ...,
     "cpu_count": ..., "tag": ..., "workloads": [{"name": ...,
       "num_events": ..., "num_access_events": ..., "races": ...,
       "sequential_replay": {"seconds": ..., "events_per_second": ...},
       "fast": {"encode_seconds": ..., "structure_seconds": ...,
                "access_seconds": ..., "total_seconds": ...,
                "events_per_second": ...,
                "access_events_per_second": ...},
       "speedup_total_vs_replay": ...,
       "identical": ..., "mismatches": [...]}, ...]}

``--backends`` races every pluggable PRECEDE backend
(``DeterminacyRaceDetector(engine=…)`` — the flat-array dtrg and
future-aware vector clocks, both under the one kernel; see
docs/ALGORITHM.md §14)
head-to-head over each workload's recorded trace and writes
``BENCH_PR7.json`` by default.  ``--scales`` takes a comma list so one
artifact can cover several scales::

    repro-bench --backends --scales table2,large --markdown docs/BACKENDS.md

Per workload × scale the document records each engine's replay wall
time, events/s, race count and perf counters, plus a status: ``ok``
or ``error``.  Completed engines are gated on reproducing the dtrg
engine's summary text and ordered race pair list bit-for-bit
(``identical``); perf counters are per-engine invariants and are
reported, not gated.  ``--markdown FILE`` additionally renders the
comparison table as markdown.

Schema (``repro.bench.backends/1``)::

    {"schema": "repro.bench.backends/1", "scales": [...], "repeats": ...,
     "cpu_count": ..., "tag": ..., "workloads": [{"name": ...,
       "scale": ..., "num_events": ..., "num_access_events": ...,
       "num_tasks": ..., "num_gets": ..., "races": ...,
       "identical": ..., "mismatches": [...], "engines": {
         "dtrg": {"status": "ok", "seconds": ...,
                  "events_per_second": ..., "races": ..., "perf": {...}},
         "vc": {"status": "error", "detail": ...}, ...}}, ...]}

``--executors`` runs each workload *live* on the serial elision and on
the work-stealing ThreadRuntime at each ``--workers`` pool size, a fresh
online :class:`~repro.core.parallel_detector.ParallelRaceDetector`
checking during execution, and writes ``BENCH_PR8.json`` by default::

    repro-bench --executors --scale table2 --workers 1,2,4

Per workload the document records each runtime's wall seconds, tasks/s
and shadow-checked accesses/s, the speedup over the serial elision, the
thread rows' peak pool size (workers + compensation threads), their
compensation threads and the tasks run inline by a blocked ``get`` or
finish exit, and the parity gate: every runtime must report exactly the
serial elision's racy-location set and task count (``identical``).  The AsyncioRuntime
has no row — workload kernels use the synchronous blocking ``get()``
style the cooperative runtime rejects by design; its parity coverage
lives in ``repro-fuzz --runtimes`` and the property sweep.  As with
``--parallel``, a 1-core box tags the artifact
``"speedup_valid": false`` — thread rows there measure scheduling
overhead, not parallelism.

Schema (``repro.bench.executors/1``)::

    {"schema": "repro.bench.executors/1", "scale": ..., "repeats": ...,
     "cpu_count": ..., "speedup_valid": ..., "tag": ...,
     "workloads": [{"name": ..., "scale": ..., "races": ...,
       "num_tasks": ..., "num_accesses": ..., "identical": ...,
       "mismatches": [...], "runtimes": {
         "serial": {"seconds": ..., "tasks_per_second": ...,
                    "accesses_per_second": ..., "speedup_vs_serial": 1.0,
                    "races": ...},
         "threads-2": {"workers": 2, "pool_size": ...,
                       "compensation_threads": ..., "inlined": ..., ...},
         ...}}, ...]}

``--telemetry`` measures the live-telemetry plane's checking overhead
(``docs/ALGORITHM.md`` §16) and writes ``BENCH_PR9.json`` by default:
each workload's trace is checked detached (no telemetry object
anywhere) and served (progress counter attached, 250 ms sampler
running, HTTP exporter scraped every 250 ms by an in-process client),
best-of-``--repeats`` per leg in the same process.  Rows record both
wall times and ``telemetry_overhead_pct``, gated at ``--max-overhead``
(default 5%); the served leg must also reproduce the detached leg's
race summary, ordered pair list and invariant perf counters
byte-for-byte (``identical``)::

    repro-bench --telemetry --scale table2 --only Jacobi

Schema (``repro.bench.telemetry/1``)::

    {"schema": "repro.bench.telemetry/1", "scale": ..., "repeats": ...,
     "cpu_count": ..., "max_overhead_pct": 5.0, "tag": ...,
     "workloads": [{"name": ..., "num_events": ...,
       "num_access_events": ..., "races": ..., "detached_seconds": ...,
       "served_seconds": ..., "detached_events_per_second": ...,
       "served_events_per_second": ..., "telemetry_overhead_pct": ...,
       "overhead_ok": ..., "scrapes": ..., "samples": ...,
       "identical": ..., "mismatches": [...]}, ...]}

``--serve-metrics PORT`` / ``--heartbeat SECS`` watch the *bench run
itself*: any mode gains a live ``/metrics`` + ``/snapshot`` endpoint
(PORT 0 picks an ephemeral port, printed to stderr) and a periodic
stderr progress line; the progress counter ticks once per completed
workload row.

``--baseline FILE`` (throughput mode) gates against a checked-in
baseline (``benchmarks/throughput_baseline.json``): the run fails if any
workload's fast-path ``access_events_per_second`` drops more than 10%
below the baseline value, or if its whole-check speedup over the
same-process detector replay falls below the recorded floor.  Baseline
absolute numbers are deliberately conservative — shared-CI wall clocks vary
severalfold — while the speedup floor is box-speed-independent.  With
``--backends`` the same flag gates the **dtrg rows only** against
``benchmarks/backends_baseline.json`` (conservative
``dtrg_events_per_second`` floors at the baseline's scale); the other
engines are compared for verdict identity, never for speed.

Exit status: 0 on success, 1 if any workload failed verification or
raised (or, with ``--parallel``, broke the determinism contract; or,
with ``--throughput``, broke bit-equivalence or the ``--baseline``
gate), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

from repro.harness.runner import (
    BACKEND_ENGINES,
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    run_backend_benchmark,
    run_benchmark,
    run_executor_benchmark,
    run_parallel_benchmark,
    run_telemetry_benchmark,
    run_throughput_benchmark,
)

__all__ = [
    "bench_data",
    "backend_bench_data",
    "backends_markdown",
    "executor_bench_data",
    "parallel_bench_data",
    "telemetry_bench_data",
    "throughput_bench_data",
    "check_backends_baseline",
    "check_throughput_baseline",
    "main",
]

BENCH_SCHEMA = "repro.bench/1"
BACKEND_BENCH_SCHEMA = "repro.bench.backends/1"
EXECUTOR_BENCH_SCHEMA = "repro.bench.executors/1"
PARALLEL_BENCH_SCHEMA = "repro.bench.parallel/2"
TELEMETRY_BENCH_SCHEMA = "repro.bench.telemetry/1"
THROUGHPUT_BENCH_SCHEMA = "repro.bench.throughput/2"


def _tick(progress) -> None:
    """Bump a :class:`repro.obs.live.ProgressCounter` by one workload
    row (``--serve-metrics``/``--heartbeat`` watch the bench run itself;
    ``None`` — the default — keeps every mode telemetry-free)."""
    if progress is not None:
        progress.add(1)


def _workload_data(result) -> dict:
    return {
        "name": result.name,
        "scale": result.scale,
        "seq_seconds": result.seq_seconds,
        "instrumented_seconds": result.instrumented_seconds,
        "racedet_seconds": result.racedet_seconds,
        "slowdown_vs_seq": round(result.slowdown_vs_seq, 4),
        "slowdown_vs_instrumented": round(
            result.slowdown_vs_instrumented, 4
        ),
        "races": result.races,
        "events_per_second": round(result.events_per_second, 1),
        "structural": {
            "num_tasks": result.metrics.num_tasks,
            "num_future_tasks": result.metrics.num_future_tasks,
            "num_gets": result.metrics.num_gets,
            "num_nt_joins": result.metrics.num_nt_joins,
            "num_shared_accesses": result.metrics.num_shared_accesses,
            "avg_readers": round(result.avg_readers, 4),
        },
        "detector_perf": asdict(result.perf),
    }


def bench_data(
    names: List[str],
    *,
    scale: str = "tiny",
    repeats: int = 1,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` and assemble the ``repro.bench/1`` document.

    Failures don't abort the sweep: a workload that raises contributes an
    ``{"name": ..., "error": ...}`` row so the artifact still records
    which rows succeeded.
    """
    workloads: List[dict] = []
    for name in names:
        try:
            result = run_benchmark(
                name, scale, repeats=repeats, verify=verify
            )
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            workloads.append({
                "name": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            _tick(progress)
            continue
        row = _workload_data(result)
        workloads.append(row)
        _tick(progress)
        print(
            f"bench {name}: racedet {result.racedet_seconds * 1e3:.1f} ms "
            f"(x{result.slowdown_vs_seq:.2f} vs seq), "
            f"{result.metrics.num_tasks} tasks, "
            f"{result.metrics.num_nt_joins} nt-joins, "
            f"{result.perf.precede_queries} PRECEDE queries",
            file=out,
        )
    data = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "workloads": workloads,
    }
    if tag is not None:
        data["tag"] = tag
    return data


def parallel_bench_data(
    names: List[str],
    *,
    scale: str = "tiny",
    jobs: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    verify: bool = True,
    backend: Optional[str] = None,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` through the sharded checker and assemble the
    ``repro.bench.parallel/1`` document.  ``cpu_count`` is recorded so a
    reader can judge the speedup numbers honestly — on a 1-core box the
    fan-out cannot beat jobs=1 and the artifact says so."""
    workloads: List[dict] = []
    for name in names:
        try:
            result = run_parallel_benchmark(
                name, scale, jobs=tuple(jobs), repeats=repeats,
                verify=verify, backend=backend,
            )
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            workloads.append({
                "name": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            _tick(progress)
            continue
        workloads.append({
            "name": name,
            "scale": result.scale,
            "num_events": result.num_events,
            "num_access_events": result.num_access_events,
            "num_tasks": result.num_tasks,
            "num_locations": result.num_locations,
            "races": result.races,
            "freeze_seconds": result.freeze_seconds,
            "identical_across_jobs": result.identical,
            "jobs": [
                {
                    "jobs": n,
                    "seconds": result.per_jobs[n]["seconds"],
                    "check_seconds": result.per_jobs[n]["check_seconds"],
                    "freeze_seconds": result.per_jobs[n]["freeze_seconds"],
                    "build_seconds": result.per_jobs[n]["build_seconds"],
                    "speedup": round(result.per_jobs[n]["speedup"], 4),
                    "backend": result.per_jobs[n]["backend"],
                    "shards": result.per_jobs[n]["shards"],
                    "events_per_second": round(
                        result.per_jobs[n]["events_per_second"], 1
                    ),
                    "access_events_per_second": round(
                        result.per_jobs[n]["access_events_per_second"], 1
                    ),
                }
                for n in jobs
            ],
        })
        _tick(progress)
        fastest = max(jobs, key=lambda n: result.per_jobs[n]["speedup"])
        print(
            f"bench {name}: {result.num_access_events} accesses, "
            f"jobs=1 {result.per_jobs[jobs[0]]['seconds'] * 1e3:.1f} ms, "
            f"best x{result.per_jobs[fastest]['speedup']:.2f} at "
            f"jobs={fastest}, shard plan "
            f"{result.freeze_seconds * 1e3:.2f} ms, "
            f"identical={result.identical}",
            file=out,
        )
    cpu_count = os.cpu_count() or 1
    data = {
        "schema": PARALLEL_BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "cpu_count": cpu_count,
        "speedup_valid": cpu_count > 1,
        "workloads": workloads,
    }
    if cpu_count <= 1:
        print(
            "=" * 72 + "\n"
            "WARNING: cpu_count == 1 — multi-job wall times on this box\n"
            "measure sharding OVERHEAD, not speedup.  The artifact is\n"
            'tagged "speedup_valid": false; do not read sub-1.0 speedups\n'
            "here as regressions.\n" + "=" * 72,
            file=out or sys.stderr,
        )
    if tag is not None:
        data["tag"] = tag
    return data


def throughput_bench_data(
    names: List[str],
    *,
    scale: str = "small",
    repeats: int = 2,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` through the single-thread engine race and assemble
    the ``repro.bench.throughput/2`` document (see module docstring)."""
    workloads: List[dict] = []
    for name in names:
        try:
            result = run_throughput_benchmark(
                name, scale, repeats=repeats, verify=verify
            )
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            workloads.append({
                "name": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            _tick(progress)
            continue
        ft = result.fast_timings
        workloads.append({
            "name": name,
            "scale": result.scale,
            "num_events": result.num_events,
            "num_access_events": result.num_access_events,
            "num_structure_events": result.num_structure_events,
            "num_tasks": result.num_tasks,
            "num_locations": result.num_locations,
            "races": result.races,
            "sequential_replay": {
                "seconds": result.replay_seconds,
                "events_per_second": round(
                    result.replay_events_per_second, 1
                ),
            },
            "fast": {
                "encode_seconds": ft.get("encode_seconds", 0.0),
                "structure_seconds": ft.get("structure_seconds", 0.0),
                "access_seconds": ft.get("access_seconds", 0.0),
                "total_seconds": ft.get("total_seconds", 0.0),
                "events_per_second": round(
                    result.fast_events_per_second, 1
                ),
                "access_events_per_second": round(
                    result.fast_access_events_per_second, 1
                ),
            },
            "speedup_total_vs_replay": round(
                result.speedup_total_vs_replay, 4
            ),
            "identical": result.identical,
            "mismatches": result.mismatches,
        })
        _tick(progress)
        print(
            f"bench {name}: {result.num_access_events} accesses — "
            f"replay {result.replay_events_per_second / 1e3:.0f}k ev/s, "
            f"fast {result.fast_access_events_per_second / 1e3:.0f}k acc/s "
            f"(x{result.speedup_total_vs_replay:.2f} whole check), "
            f"identical={result.identical}",
            file=out,
        )
    data = {
        "schema": THROUGHPUT_BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    if tag is not None:
        data["tag"] = tag
    return data


def backend_bench_data(
    names: List[str],
    *,
    scales: Sequence[str] = ("table2",),
    repeats: int = 2,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` at each scale through the PRECEDE backend
    head-to-head and assemble the ``repro.bench.backends/1`` document
    (see module docstring).  An ``error`` row or a verdict mismatch
    fails the run."""
    workloads: List[dict] = []
    for scale in scales:
        for name in names:
            try:
                result = run_backend_benchmark(
                    name, scale, repeats=repeats, verify=verify
                )
            except Exception as exc:
                print(f"bench {name}@{scale}: FAILED — "
                      f"{type(exc).__name__}: {exc}",
                      file=out or sys.stderr)
                workloads.append({
                    "name": name,
                    "scale": scale,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                _tick(progress)
                continue
            workloads.append({
                "name": name,
                "scale": result.scale,
                "num_events": result.num_events,
                "num_access_events": result.num_access_events,
                "num_tasks": result.num_tasks,
                "num_gets": result.num_gets,
                "races": result.races,
                "identical": result.identical,
                "mismatches": result.mismatches,
                "engines": result.per_engine,
            })
            _tick(progress)
            cells = []
            for engine in BACKEND_ENGINES:
                row = result.per_engine.get(engine, {})
                if row.get("status") == "ok":
                    cells.append(f"{engine} "
                                 f"{row['seconds'] * 1e3:.1f} ms")
                else:
                    cells.append(f"{engine} {row.get('status', '—')}")
            print(
                f"bench {name}@{scale}: {result.num_events} events, "
                f"{result.races} race(s) — " + ", ".join(cells)
                + f", identical={result.identical}",
                file=out,
            )
    data = {
        "schema": BACKEND_BENCH_SCHEMA,
        "scales": list(scales),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    if tag is not None:
        data["tag"] = tag
    return data


def executor_bench_data(
    names: List[str],
    *,
    scale: str = "small",
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` live on every runtime substrate and assemble the
    ``repro.bench.executors/1`` document (see module docstring).  A
    racy-set or task-count mismatch is recorded per workload
    (``identical``/``mismatches``) and fails the run via the caller's
    gate, the same contract as the other multi-engine modes."""
    workloads: List[dict] = []
    for name in names:
        try:
            result = run_executor_benchmark(
                name, scale, workers=tuple(workers), repeats=repeats,
                verify=verify,
            )
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            workloads.append({
                "name": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            _tick(progress)
            continue
        workloads.append({
            "name": name,
            "scale": result.scale,
            "races": result.races,
            "num_tasks": result.num_tasks,
            "num_accesses": result.num_accesses,
            "identical": result.identical,
            "mismatches": result.mismatches,
            "runtimes": result.per_runtime,
        })
        _tick(progress)
        serial_ms = result.per_runtime["serial"]["seconds"] * 1e3
        cells = [
            f"threads-{w} x"
            f"{result.per_runtime[f'threads-{w}']['speedup_vs_serial']:.2f}"
            for w in workers
        ]
        print(
            f"bench {name}: {result.num_tasks} tasks, "
            f"{result.num_accesses} accesses, serial {serial_ms:.1f} ms — "
            + ", ".join(cells)
            + f", identical={result.identical}",
            file=out,
        )
    cpu_count = os.cpu_count() or 1
    data = {
        "schema": EXECUTOR_BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "cpu_count": cpu_count,
        "speedup_valid": cpu_count > 1,
        "workloads": workloads,
    }
    if cpu_count <= 1:
        print(
            "=" * 72 + "\n"
            "WARNING: cpu_count == 1 — thread-row wall times on this box\n"
            "measure scheduling OVERHEAD, not parallelism.  The artifact\n"
            'is tagged "speedup_valid": false.\n' + "=" * 72,
            file=out or sys.stderr,
        )
    if tag is not None:
        data["tag"] = tag
    return data


def telemetry_bench_data(
    names: List[str],
    *,
    scale: str = "small",
    repeats: int = 3,
    verify: bool = True,
    max_overhead_pct: float = 5.0,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` through the detached-vs-served fast-path comparison
    and assemble the ``repro.bench.telemetry/1`` document (see module
    docstring).  Each row carries its own ``overhead_ok`` verdict against
    ``max_overhead_pct`` so the artifact is self-describing; the caller's
    gate turns a false verdict (or an equivalence mismatch) into a
    non-zero exit."""
    workloads: List[dict] = []
    for name in names:
        try:
            result = run_telemetry_benchmark(
                name, scale, repeats=repeats, verify=verify
            )
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            workloads.append({
                "name": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            _tick(progress)
            continue
        overhead = round(result.telemetry_overhead_pct, 2)
        workloads.append({
            "name": name,
            "scale": result.scale,
            "num_events": result.num_events,
            "num_access_events": result.num_access_events,
            "races": result.races,
            "detached_seconds": result.detached_seconds,
            "served_seconds": result.served_seconds,
            "detached_events_per_second": round(
                result.detached_events_per_second, 1
            ),
            "served_events_per_second": round(
                result.served_events_per_second, 1
            ),
            "telemetry_overhead_pct": overhead,
            "overhead_ok": overhead <= max_overhead_pct,
            "scrapes": result.scrapes,
            "samples": result.samples,
            "identical": result.identical,
            "mismatches": result.mismatches,
        })
        _tick(progress)
        print(
            f"bench {name}: {result.num_events} events — detached "
            f"{result.detached_seconds * 1e3:.1f} ms, served "
            f"{result.served_seconds * 1e3:.1f} ms "
            f"({overhead:+.2f}% overhead, {result.scrapes} scrape(s), "
            f"{result.samples} sample(s)), identical={result.identical}",
            file=out,
        )
    data = {
        "schema": TELEMETRY_BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "max_overhead_pct": max_overhead_pct,
        "workloads": workloads,
    }
    if tag is not None:
        data["tag"] = tag
    return data


def backends_markdown(data: dict) -> str:
    """Render a ``repro.bench.backends/1`` document as a markdown
    comparison table, one row per workload × scale.  Cells show replay
    wall milliseconds (``error`` for incomplete rows); a trailing
    column records the verdict-stream bit-identity gate."""
    lines = [
        "| Workload | Scale | #Events | #Gets | "
        + " | ".join(f"{e} (ms)" for e in BACKEND_ENGINES)
        + " | Races | Identical |",
        "|---|---|---:|---:|" + "---:|" * len(BACKEND_ENGINES) + "---:|---|",
    ]
    for w in data.get("workloads", []):
        if "error" in w:
            lines.append(
                f"| {w['name']} | {w.get('scale', '?')} | — | — |"
                + " error |" * len(BACKEND_ENGINES) + " — | — |")
            continue
        cells = []
        for engine in BACKEND_ENGINES:
            row = w["engines"].get(engine, {})
            if row.get("status") == "ok":
                cells.append(f"{row['seconds'] * 1e3:.1f}")
            else:
                cells.append(row.get("status", "—"))
        lines.append(
            f"| {w['name']} | {w['scale']} | {w['num_events']:,} | "
            f"{w['num_gets']:,} | " + " | ".join(cells)
            + f" | {w['races']} | {'yes' if w['identical'] else 'NO'} |")
    return "\n".join(lines) + "\n"


def check_backends_baseline(data: dict, baseline: dict, out=None) -> List[str]:
    """Compare a ``repro.bench.backends/1`` document against a
    checked-in baseline; return violation strings (empty = ok).

    The gate covers the **dtrg rows only**: the default engine's replay
    throughput must not drop more than 10% below the (deliberately
    conservative) ``dtrg_events_per_second`` floor at the baseline's
    scale.  The other engines are compared, not gated — ``vc``'s cost
    profile is the experiment, not a regression."""
    want_scale = baseline.get("scale")
    rows = {
        w.get("name"): w for w in data.get("workloads", [])
        if want_scale is None or w.get("scale") == want_scale
    }
    violations: List[str] = []
    for name, gate in baseline.get("workloads", {}).items():
        row = rows.get(name)
        if row is None or "error" in row:
            violations.append(f"{name}: missing from the run")
            continue
        dtrg = row.get("engines", {}).get("dtrg", {})
        if dtrg.get("status") != "ok":
            violations.append(f"{name}: dtrg row did not complete")
            continue
        floor = gate.get("dtrg_events_per_second")
        if floor is not None:
            measured = dtrg["events_per_second"]
            if measured < 0.9 * floor:
                violations.append(
                    f"{name}: dtrg replay throughput {measured:.0f} ev/s "
                    f"regressed >10% below baseline {floor:.0f} ev/s"
                )
    for violation in violations:
        print(f"baseline: {violation}", file=out or sys.stderr)
    return violations


def check_throughput_baseline(data: dict, baseline: dict, out=None) -> List[str]:
    """Compare a ``repro.bench.throughput/2`` document against a
    checked-in baseline; return a list of violation strings (empty = ok).

    Two gates per workload named in the baseline:

    * ``access_events_per_second`` — absolute floor with 10% tolerance.
      Baseline values are recorded conservatively (well below a healthy
      run) because shared-CI wall clocks vary severalfold.
    * ``min_speedup_vs_replay`` — the fast path's whole-check ratio
      (``speedup_total_vs_replay``; no encode pass, since recording
      writes the columns) over the same-process detector replay.
      Box speed cancels out of the ratio, so this is the sharper gate.
    """
    rows = {w.get("name"): w for w in data.get("workloads", [])}
    violations: List[str] = []
    for name, gate in baseline.get("workloads", {}).items():
        row = rows.get(name)
        if row is None or "error" in row:
            violations.append(f"{name}: missing from the run")
            continue
        floor = gate.get("access_events_per_second")
        if floor is not None:
            measured = row["fast"]["access_events_per_second"]
            if measured < 0.9 * floor:
                violations.append(
                    f"{name}: fast access throughput {measured:.0f} ev/s "
                    f"regressed >10% below baseline {floor:.0f} ev/s"
                )
        min_speedup = gate.get("min_speedup_vs_replay")
        if min_speedup is not None:
            measured = row["speedup_total_vs_replay"]
            if measured < min_speedup:
                violations.append(
                    f"{name}: speedup vs replay {measured:.2f} "
                    f"below floor {min_speedup:.2f}"
                )
    for violation in violations:
        print(f"baseline: {violation}", file=out or sys.stderr)
    return violations


_SCALES = ("tiny", "small", "table2", "large")


def _parse_scales_list(text: str) -> List[str]:
    scales = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [s for s in scales if s not in _SCALES]
    if not scales or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated scales from {', '.join(_SCALES)}, "
            f"got {text!r}")
    return scales


def _parse_jobs_list(text: str) -> List[int]:
    try:
        jobs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated job counts, got {text!r}")
    if not jobs or any(n < 1 for n in jobs):
        raise argparse.ArgumentTypeError(
            f"job counts must be positive, got {text!r}")
    return jobs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "table2", "large"))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="artifact path (default BENCH_PR4.json, "
                             "BENCH_PR5.json with --parallel, or "
                             "BENCH_PR6.json with --throughput)")
    parser.add_argument("--parallel", action="store_true",
                        help="benchmark the sharded checker "
                             "instead of the live detector")
    parser.add_argument("--throughput", action="store_true",
                        help="race the single-thread checking engines "
                             "(live replay / flat-array fast path) over "
                             "each recorded trace")
    parser.add_argument("--backends", action="store_true",
                        help="race every PRECEDE backend (dtrg / vc) "
                             "over each recorded trace")
    parser.add_argument("--executors", action="store_true",
                        help="run each workload live on the serial elision "
                             "and the work-stealing ThreadRuntime at each "
                             "--workers pool size, detecting online")
    parser.add_argument("--telemetry", action="store_true",
                        help="measure the live-telemetry plane's checking "
                             "overhead (detached vs served fast-path legs, "
                             "gated at --max-overhead)")
    parser.add_argument("--max-overhead", dest="max_overhead", type=float,
                        default=5.0, metavar="PCT",
                        help="with --telemetry: fail if any workload's "
                             "served leg is more than PCT%% slower than "
                             "its detached leg (default 5)")
    parser.add_argument("--serve-metrics", dest="serve_metrics", type=int,
                        default=None, metavar="PORT",
                        help="serve live /metrics + /snapshot for the "
                             "bench run itself (0 picks an ephemeral "
                             "port, printed to stderr)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECS",
                        help="print a stderr progress line every SECS "
                             "seconds while the sweep runs (0 disables)")
    parser.add_argument("--workers", type=_parse_jobs_list,
                        default=[1, 2, 4], metavar="N,N,...",
                        help="pool sizes for --executors (default 1,2,4)")
    parser.add_argument("--scales", type=_parse_scales_list, default=None,
                        metavar="S,S,...",
                        help="with --backends: comma list of scales to "
                             "cover in one artifact (default: --scale)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="with --backends: also render the comparison "
                             "table as markdown to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="with --throughput (or --backends): fail if "
                             "fast-path (or dtrg-row) throughput "
                             "regresses >10%% below this checked-in "
                             "baseline")
    parser.add_argument("--jobs", type=_parse_jobs_list, default=[1, 2, 4],
                        metavar="N,N,...",
                        help="job counts for --parallel (default 1,2,4)")
    parser.add_argument("--parallel-backend", dest="parallel_backend",
                        default=None,
                        choices=("auto", "fork", "spawn", "inline"),
                        help="worker dispatch for --parallel")
    parser.add_argument("--tag", default=None,
                        help="free-form label recorded in the document "
                             "(e.g. a commit hash)")
    parser.add_argument("--extended", action="store_true",
                        help="include the extension rows beyond Table 2")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip output verification (timing only)")
    parser.add_argument("--only", metavar="NAME", action="append",
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)

    names = list(BENCHMARKS)
    if args.extended:
        names += list(EXTENDED_BENCHMARKS)
    if args.only:
        unknown = [n for n in args.only if n not in set(names)]
        if unknown:
            print(f"error: unknown workload(s): {', '.join(unknown)} "
                  f"(choose from {', '.join(names)})", file=sys.stderr)
            return 2
        names = args.only

    if sum((args.parallel, args.throughput, args.backends,
            args.executors, args.telemetry)) > 1:
        print("error: --parallel, --throughput, --backends, --executors "
              "and --telemetry are mutually exclusive", file=sys.stderr)
        return 2
    if args.heartbeat < 0:
        print("error: --heartbeat must be >= 0", file=sys.stderr)
        return 2
    if args.max_overhead <= 0:
        print("error: --max-overhead must be positive", file=sys.stderr)
        return 2
    if args.baseline and not (args.throughput or args.backends):
        print("error: --baseline requires --throughput or --backends",
              file=sys.stderr)
        return 2
    if (args.scales or args.markdown) and not args.backends:
        print("error: --scales/--markdown require --backends",
              file=sys.stderr)
        return 2

    telemetry = None
    if args.serve_metrics is not None or args.heartbeat > 0:
        from repro.obs.live import LiveTelemetry

        telemetry = LiveTelemetry(
            port=args.serve_metrics, heartbeat=args.heartbeat,
        )
        telemetry.start()
        if telemetry.url:
            print(f"serving live metrics at {telemetry.url}/metrics "
                  f"(snapshot: {telemetry.url}/snapshot)", file=sys.stderr)
        rows = len(names) * (
            len(args.scales or [args.scale]) if args.backends else 1
        )
        telemetry.progress.set_total(rows)
        telemetry.progress.set_phase("bench")
    progress = telemetry.progress if telemetry is not None else None

    try:
        if args.backends:
            output = args.output or "BENCH_PR7.json"
            data = backend_bench_data(
                names, scales=args.scales or [args.scale],
                repeats=max(args.repeats, 2), verify=not args.no_verify,
                tag=args.tag, progress=progress,
            )
            if args.markdown:
                with open(args.markdown, "w") as fh:
                    fh.write(backends_markdown(data))
                print(f"markdown table written to {args.markdown}")
        elif args.executors:
            output = args.output or "BENCH_PR8.json"
            data = executor_bench_data(
                names, scale=args.scale, workers=args.workers,
                repeats=args.repeats, verify=not args.no_verify,
                tag=args.tag, progress=progress,
            )
        elif args.parallel:
            output = args.output or "BENCH_PR5.json"
            data = parallel_bench_data(
                names, scale=args.scale, jobs=args.jobs,
                repeats=args.repeats, verify=not args.no_verify,
                backend=args.parallel_backend, tag=args.tag,
                progress=progress,
            )
        elif args.throughput:
            output = args.output or "BENCH_PR6.json"
            data = throughput_bench_data(
                names, scale=args.scale, repeats=max(args.repeats, 2),
                verify=not args.no_verify, tag=args.tag, progress=progress,
            )
        elif args.telemetry:
            output = args.output or "BENCH_PR9.json"
            data = telemetry_bench_data(
                names, scale=args.scale, repeats=max(args.repeats, 3),
                verify=not args.no_verify,
                max_overhead_pct=args.max_overhead, tag=args.tag,
                progress=progress,
            )
        else:
            output = args.output or "BENCH_PR4.json"
            data = bench_data(
                names, scale=args.scale, repeats=args.repeats,
                verify=not args.no_verify, tag=args.tag, progress=progress,
            )
    finally:
        if telemetry is not None:
            telemetry.stop()
    with open(output, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [w["name"] for w in data["workloads"] if "error" in w]
    nondeterministic = [
        w["name"] for w in data["workloads"]
        if not (w.get("identical_across_jobs", True)
                and w.get("identical", True))
    ]
    violations: List[str] = []
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        if args.backends:
            violations = check_backends_baseline(data, baseline)
        else:
            violations = check_throughput_baseline(data, baseline)
    if args.telemetry:
        for w in data["workloads"]:
            if "error" in w or w["overhead_ok"]:
                continue
            violation = (
                f"{w['name']}: telemetry overhead "
                f"{w['telemetry_overhead_pct']:+.2f}% exceeds the "
                f"{args.max_overhead:.1f}% budget"
            )
            violations.append(violation)
            print(f"gate: {violation}", file=sys.stderr)
    print(f"{len(data['workloads'])} workload(s) written to {output}")
    if nondeterministic:
        print(f"error: non-identical results across engines/job counts: "
              f"{', '.join(nondeterministic)}", file=sys.stderr)
    if failed:
        print(f"error: {len(failed)} workload(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
    if violations:
        print(f"error: {len(violations)} gate/baseline violation(s)",
              file=sys.stderr)
    return 1 if failed or nondeterministic or violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
