"""Cold vs. cached PRECEDE throughput and end-to-end detector speedup.

Three measurements of the epoch-versioned PRECEDE cache
(``repro.core.precede_cache``), runnable standalone (no pytest-benchmark)::

    PYTHONPATH=src python benchmarks/bench_precede_cache.py [--quick]

1. **Query micro-benchmark** — the same backward-search-heavy query issued
   repeatedly against a non-tree-join chain DTRG, with the cache off
   (every call pays the search) and on (first call pays, the rest hit).
2. **End-to-end replay** — the recorded event streams of the two
   access-dominated Table 2 workloads with futures (Smith-Waterman,
   Jacobi) replayed into the full detector with ``cache_precede`` off/on.
   Verifies ``#AvgReaders`` and the race report are bit-identical (Table 2
   parity) and reports the speedup.
3. **Random programs** — the ``testing/generator`` corpus replayed both
   ways; verdicts must match per location.

``--quick`` shrinks scales/repeats for CI smoke runs; parity violations
always exit non-zero, and ``--require-speedup X`` additionally fails the
run unless some end-to-end workload reaches an ``X``× speedup.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from repro.core.detector import DeterminacyRaceDetector
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.runtime import Runtime
from repro.testing.generator import random_program, run_program
from repro.workloads import jacobi, smith_waterman


def _timed(fn) -> float:
    """Wall time of ``fn()`` with the cyclic GC parked.

    The off/on sides run back-to-back in one process, so whichever side
    happens to trip a generational collection pays for *all* garbage
    accumulated so far — at ms scales that swamps the effect being
    measured.  Collect up front, then keep the collector off while timing.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


# ---------------------------------------------------------------------- #
# 1. Query throughput: cold vs cached                                    #
# ---------------------------------------------------------------------- #
def build_nt_chain(n: int, *, cache_precede: bool) -> DynamicTaskReachabilityGraph:
    """main spawns F0..Fn; each F(i+1) joins F(i) — a non-tree chain whose
    ``precede(F0, Fn)`` query walks the whole chain when cold."""
    g = DynamicTaskReachabilityGraph(cache_precede=cache_precede)
    g.add_root("main")
    prev = None
    for i in range(n + 1):
        name = f"F{i}"
        g.add_task("main", name, is_future=True, name=name)
        if prev is not None:
            g.record_join(name, prev)
        g.on_terminate(name)
        prev = name
    return g


def bench_query_throughput(chain: int, queries: int) -> None:
    rates = {}
    for cached in (False, True):
        g = build_nt_chain(chain, cache_precede=cached)
        src, dst = "F0", f"F{chain}"
        assert g.precede(src, dst)  # warm: resolves roots / fills cache

        def burst(g=g, src=src, dst=dst):
            for _ in range(queries):
                g.precede(src, dst)

        elapsed = _timed(burst)
        rates[cached] = queries / elapsed if elapsed else float("inf")
    print(f"  chain={chain:>4}  cold {rates[False]:>12,.0f} q/s   "
          f"cached {rates[True]:>12,.0f} q/s   "
          f"({rates[True] / rates[False]:.1f}x)")


# ---------------------------------------------------------------------- #
# 2. End-to-end detector replay on Table 2 workloads                     #
# ---------------------------------------------------------------------- #
def record_workload_trace(module, scale: str):
    params = module.default_params(scale)
    recorder = TraceRecorder()
    rt = Runtime(observers=[recorder])
    rt.run(lambda r: module.run_future(r, params))
    return list(recorder.trace)  # decoded once: timed replays replay only


def bench_workload(name: str, trace, repeats: int) -> float:
    """Replay ``trace`` cache off/on; return the on/off speedup."""
    results = {}
    for cached in (False, True):
        best = float("inf")
        det = None
        for _ in range(repeats):
            det = DeterminacyRaceDetector(cache_precede=cached)
            best = min(best, _timed(lambda d=det: replay_trace(trace, [d])))
        results[cached] = (best, det)
    (off_s, det_off), (on_s, det_on) = results[False], results[True]
    # Table 2 parity: the caching layer must not move the paper's columns.
    if det_on.shadow.avg_readers != det_off.shadow.avg_readers:
        raise SystemExit(
            f"{name}: #AvgReaders moved with cache on "
            f"({det_off.shadow.avg_readers} -> {det_on.shadow.avg_readers})"
        )
    if det_on.racy_locations != det_off.racy_locations or len(
        det_on.races
    ) != len(det_off.races):
        raise SystemExit(f"{name}: race report moved with cache on")
    stats = det_on.perf_stats
    speedup = off_s / on_s if on_s else float("inf")
    print(f"  {name:<16} events={len(trace):>8,}  "
          f"off={off_s * 1e3:>8.1f}ms  on={on_s * 1e3:>8.1f}ms  "
          f"speedup={speedup:.2f}x  "
          f"hit-rate={stats['cache_hit_rate']:.2f}  "
          f"#AvgReaders={det_on.shadow.avg_readers:.2f}")
    return speedup


# ---------------------------------------------------------------------- #
# 3. Generated random programs                                           #
# ---------------------------------------------------------------------- #
def bench_random_programs(num_programs: int, seed0: int = 0) -> None:
    traces = []
    for seed in range(seed0, seed0 + num_programs):
        program = random_program(random.Random(seed))
        recorder = TraceRecorder()
        run_program(program, [recorder])
        traces.append(list(recorder.trace))  # decoded outside the timing
    totals = {}
    verdicts = {}
    for cached in (False, True):
        locs = []

        def corpus(cached=cached, locs=locs):
            for trace in traces:
                det = DeterminacyRaceDetector(cache_precede=cached)
                replay_trace(trace, [det])
                locs.append(frozenset(det.racy_locations))

        best = float("inf")
        for _ in range(2):  # best-of-2: first pass also warms allocator
            del locs[:]
            best = min(best, _timed(corpus))
        totals[cached] = best
        verdicts[cached] = locs
    if verdicts[False] != verdicts[True]:
        raise SystemExit("random programs: verdicts moved with cache on")
    events = sum(len(t) for t in traces)
    print(f"  {num_programs} programs ({events:,} events): "
          f"off={totals[False] * 1e3:.1f}ms on={totals[True] * 1e3:.1f}ms "
          f"({totals[False] / totals[True]:.2f}x), verdicts identical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: tiny scales, few repeats")
    parser.add_argument("--scale", default=None,
                        choices=("tiny", "small", "table2"),
                        help="workload scale (default: small, or tiny "
                             "with --quick)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X", help="exit non-zero unless some "
                        "workload reaches an X-times speedup")
    args = parser.parse_args(argv)
    scale = args.scale or ("tiny" if args.quick else "small")
    repeats = args.repeats or (1 if args.quick else 3)

    print("PRECEDE query throughput (same query, cold vs cached):")
    for chain in ((16, 64) if args.quick else (16, 64, 256)):
        bench_query_throughput(chain, 2_000 if args.quick else 20_000)

    print(f"\nEnd-to-end detector replay (scale={scale}, "
          f"best of {repeats}):")
    speedups = []
    for name, module in (("Smith-Waterman", smith_waterman),
                         ("Jacobi", jacobi)):
        trace = record_workload_trace(module, scale)
        speedups.append(bench_workload(name, trace, repeats))

    print("\nGenerated random programs (replayed off/on):")
    bench_random_programs(30 if args.quick else 200)

    if args.require_speedup is not None:
        best = max(speedups)
        if best < args.require_speedup:
            print(f"FAIL: best end-to-end speedup {best:.2f}x < "
                  f"required {args.require_speedup}x", file=sys.stderr)
            return 1
        print(f"\nOK: best end-to-end speedup {best:.2f}x >= "
              f"{args.require_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
