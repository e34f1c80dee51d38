"""Regenerate the paper's Table 2 ("Runtime overhead for determinacy race
detection").

Usage::

    python -m repro.harness.table2 [--scale tiny|small|table2]
                                   [--repeats N] [--bench NAME ...]
                                   [--jobs N]
                                   [--metrics-json FILE] [--perfetto FILE]

Prints the measured table followed by the paper's values and the
qualitative checks DESIGN.md promises (NT-join zeros, the future-variant
#SharedMem delta, #AvgReaders ranges).  EXPERIMENTS.md archives one run.

``--jobs N`` (N > 1) appends a parallel-checking section: each row's
trace is re-checked by the two-phase sharded checker at jobs 1 and N
(``docs/ALGORITHM.md`` §12), reporting check wall times, the speedup,
and an ``identical`` qualitative check — the sharded checker must
reproduce the sequential summary and counters byte-for-byte, so the
Table 2 columns are job-count-invariant by construction.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.harness.report import render_table
from repro.harness.runner import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    BenchmarkResult,
    ParallelBenchResult,
    run_benchmark,
    run_parallel_benchmark,
)

__all__ = ["main", "PAPER_TABLE2"]

#: The paper's Table 2 (milliseconds; #AvgReaders was unreadable in the
#: source scan and is reported qualitatively in the text).
PAPER_TABLE2 = [
    {"Benchmark": "Series-af", "#Tasks": 999_999, "#NTJoins": 0,
     "#SharedMem": 4_000_059, "Seq (ms)": 483_224, "Racedet (ms)": 484_746,
     "Slowdown": 1.00},
    {"Benchmark": "Series-future", "#Tasks": 999_999, "#NTJoins": 0,
     "#SharedMem": 6_000_059, "Seq (ms)": 487_134, "Racedet (ms)": 487_985,
     "Slowdown": 1.00},
    {"Benchmark": "Crypt-af", "#Tasks": 12_500_000, "#NTJoins": 0,
     "#SharedMem": 1_150_000_682, "Seq (ms)": 15_375, "Racedet (ms)": 119_504,
     "Slowdown": 7.77},
    {"Benchmark": "Crypt-future", "#Tasks": 12_500_000, "#NTJoins": 0,
     "#SharedMem": 1_175_000_682, "Seq (ms)": 15_517, "Racedet (ms)": 128_234,
     "Slowdown": 8.26},
    {"Benchmark": "Jacobi", "#Tasks": 8_192, "#NTJoins": 34_944,
     "#SharedMem": 641_499_805, "Seq (ms)": 3_402, "Racedet (ms)": 27_388,
     "Slowdown": 8.05},
    {"Benchmark": "Smith-Waterman", "#Tasks": 1_608, "#NTJoins": 4_641,
     "#SharedMem": 1_652_175_806, "Seq (ms)": 3_488, "Racedet (ms)": 34_558,
     "Slowdown": 9.92},
    {"Benchmark": "Strassen", "#Tasks": 30_811, "#NTJoins": 33_612,
     "#SharedMem": 1_610_522_196, "Seq (ms)": 6_281, "Racedet (ms)": 33_618,
     "Slowdown": 5.35},
]


def qualitative_checks(results: Dict[str, BenchmarkResult]) -> List[str]:
    """The scale-invariant Table 2 relationships (see DESIGN.md §4)."""
    checks: List[str] = []

    def check(label: str, ok: bool) -> None:
        checks.append(f"[{'PASS' if ok else 'FAIL'}] {label}")

    for name in ("Series-af", "Series-future", "Crypt-af", "Crypt-future"):
        if name in results:
            check(f"{name}: #NTJoins == 0",
                  results[name].metrics.num_nt_joins == 0)
    for name in ("Jacobi", "Smith-Waterman", "Strassen"):
        if name in results:
            check(f"{name}: #NTJoins > 0",
                  results[name].metrics.num_nt_joins > 0)
    for base in ("Series", "Crypt"):
        af, fut = f"{base}-af", f"{base}-future"
        if af in results and fut in results:
            delta = (results[fut].metrics.num_shared_accesses
                     - results[af].metrics.num_shared_accesses)
            tasks = results[fut].metrics.num_tasks
            check(
                f"{base}: #SharedMem(future) - #SharedMem(af) == 2 x #Tasks"
                f" ({delta:,} vs {2 * tasks:,})",
                delta == 2 * tasks,
            )
    for name in ("Series-af", "Crypt-af"):
        if name in results:
            check(f"{name}: #AvgReaders in [0, 1]",
                  0.0 <= results[name].avg_readers <= 1.0)
    if "Crypt-af" in results and "Crypt-future" in results:
        check(
            "Crypt: #AvgReaders(future) > #AvgReaders(af)",
            results["Crypt-future"].avg_readers
            > results["Crypt-af"].avg_readers,
        )
    for name, res in results.items():
        check(f"{name}: race-free (0 races reported)", res.races == 0)
    if "Series-af" in results and "Crypt-af" in results:
        check(
            "Slowdown(Series-af) < Slowdown(Crypt-af) "
            "(work-per-access ordering)",
            results["Series-af"].slowdown_vs_instrumented
            < results["Crypt-af"].slowdown_vs_instrumented,
        )
    return checks


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "table2"))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--bench", nargs="*", default=None,
                        help="subset of benchmark names (default: all)")
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="N > 1: also check each row's trace with the "
                             "sharded parallel checker at jobs 1 and N")
    parser.add_argument("--extended", action="store_true",
                        help="also run the extension rows (SOR, NQueens, "
                             "LUFact, ReduceTree)")
    parser.add_argument("--metrics-json", metavar="FILE", dest="metrics_json",
                        help="dump the observability registry (PRECEDE "
                             "latency/frontier histograms) "
                             "accumulated over the Racedet runs")
    parser.add_argument("--perfetto", metavar="FILE",
                        help="write a Chrome trace of the Racedet runs")
    args = parser.parse_args(argv)

    obs = None
    if args.metrics_json or args.perfetto:
        from repro.obs import Observability, RingTracer

        obs = Observability(
            tracer=RingTracer() if args.perfetto else None
        )

    known = dict(BENCHMARKS)
    known.update(EXTENDED_BENCHMARKS)
    names = args.bench or (
        list(BENCHMARKS) + (list(EXTENDED_BENCHMARKS) if args.extended else [])
    )
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown benchmarks: {unknown}; "
                     f"choose from {list(known)}")

    results: Dict[str, BenchmarkResult] = {}
    for name in names:
        print(f"running {name} (scale={args.scale}) ...", file=sys.stderr)
        results[name] = run_benchmark(
            name, args.scale, repeats=args.repeats,
            verify=not args.no_verify, obs=obs,
        )

    print(f"\nTable 2 reproduction (scale={args.scale}, Python "
          f"{sys.version.split()[0]}):\n")
    print(render_table([results[n].row() for n in names]))
    print("\nPaper's Table 2 (16-core Ivybridge, JDK 1.7, Size-C inputs):\n")
    print(render_table([r for r in PAPER_TABLE2 if r["Benchmark"] in names]))
    print("\nQualitative checks:")
    for line in qualitative_checks(results):
        print(" ", line)

    if args.jobs > 1:
        parallel: Dict[str, ParallelBenchResult] = {}
        for name in names:
            print(f"parallel-checking {name} (jobs=1,{args.jobs}) ...",
                  file=sys.stderr)
            parallel[name] = run_parallel_benchmark(
                name, args.scale, jobs=(1, args.jobs),
                repeats=args.repeats, verify=False,
            )
        print(f"\nTwo-phase sharded checker (jobs=1 vs {args.jobs}):\n")
        print(render_table([
            {
                "Benchmark": name,
                "#Accesses": p.num_access_events,
                "Freeze (ms)": round(p.freeze_seconds * 1e3, 2),
                "Check@1 (ms)": round(
                    p.per_jobs[1]["seconds"] * 1e3, 1
                ),
                f"Check@{args.jobs} (ms)": round(
                    p.per_jobs[args.jobs]["seconds"] * 1e3, 1
                ),
                "Speedup": round(p.speedup(args.jobs), 2),
                "Identical": p.identical,
            }
            for name, p in parallel.items()
        ]))
        print("\nParallel determinism checks:")
        for name, p in parallel.items():
            status = "PASS" if p.identical else "FAIL"
            print(f"  [{status}] {name}: jobs={args.jobs} summary and "
                  "counters byte-identical to jobs=1")
    if obs is not None:
        from repro.harness.report import render_metrics

        print("\nObservability (Racedet runs):\n")
        print(render_metrics(obs.registry.as_dict()))
        if args.metrics_json:
            obs.write_metrics(args.metrics_json)
            print(f"\nmetrics written to {args.metrics_json}")
        if args.perfetto:
            obs.write_trace(args.perfetto)
            print(f"perfetto trace written to {args.perfetto}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
