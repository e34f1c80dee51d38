"""Where a ``--jobs 2`` split starts to beat one in-process check.

A split moves the *movable rows* (``sum(loads) - max(loads)``: the access
rows off the heaviest shard) off the critical path, and pays a fixed cost
for each process it makes.  This sweep times the check layer alone over
recorded Jacobi traces of growing size (4 sweeps, 8x8 tiles) and prints
one row per size::

    PYTHONPATH=src python benchmarks/bench_split_breakeven.py [--repeats 5]

Columns, best of ``--repeats`` turns in ms:

* ``fast``      — ``check_trace_fast`` over the whole trace;
* ``inline x2`` — ``check_trace_parallel(jobs=2, backend="inline")``:
  both shards in this process, one after the other;
* ``fork``      — ``check_trace_parallel(jobs=2, backend="fork")`` (or
  ``spawn`` where fork is missing): one child checks the lighter shard
  while this process checks the heavier one;
* ``auto``      — ``check_trace_parallel(jobs=2)``, which splits only at
  ``MIN_SPLIT_ROWS`` movable rows or more.

The last line brackets the break-even between the largest movable-row
count at which the split lost to ``fast`` and the smallest at which it
won; ``parallel_check.MIN_SPLIT_ROWS`` should sit inside it.  Exit
status 1 if any configuration's summary, race rows or invariant perf
counters differ from ``fast``'s.
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import os
import sys
import time

from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import MIN_SPLIT_ROWS, check_trace_parallel
from repro.memory.tracer import TraceRecorder
from repro.workloads import jacobi
from repro.workloads.common import run_instrumented

SIZES = (16, 32, 48, 64, 96, 128)

#: Perf counters every sharding of the one kernel reproduces exactly.
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved",
)


def _verdict(result):
    perf = result.perf_stats
    return (result.summary(), result.race_rows,
            [perf[key] for key in INVARIANT_PERF])


def _record(interior: int):
    params = jacobi.JacobiParams(interior=interior, tile=8, sweeps=4)
    recorder = TraceRecorder()
    run_instrumented(lambda rt: jacobi.run_future(rt, params),
                     detect=False, extra_observers=(recorder,))
    return recorder.trace


def _best_ms(configs, trace, repeats: int):
    """Best time of each configuration, taking turns so a slow spell of
    the machine falls on all of them alike."""
    best = dict.fromkeys(configs, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, check in configs.items():
            gc.collect()
            start = time.perf_counter()
            results[name] = check(trace)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: t * 1e3 for name, t in best.items()}, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES,
                        metavar="INTERIOR",
                        help="Jacobi interior sides (multiples of 8)")
    args = parser.parse_args(argv)
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    configs = {
        "fast": lambda t: check_trace_fast(t),
        "inline x2": lambda t: check_trace_parallel(t, jobs=2,
                                                    backend="inline"),
        method: lambda t: check_trace_parallel(t, jobs=2, backend=method),
        "auto": lambda t: check_trace_parallel(t, jobs=2),
    }
    print(f"cpu_count={os.cpu_count()} MIN_SPLIT_ROWS={MIN_SPLIT_ROWS} "
          f"repeats={args.repeats}")
    print(f"{'accesses':>9} {'movable':>8} "
          + " ".join(f"{name:>10}" for name in configs) + "  auto picks")
    lost, won, ok = [], [], True
    for interior in args.sizes:
        trace = _record(interior)
        ms, results = _best_ms(configs, trace, args.repeats)
        golden = _verdict(results["fast"])
        for name, result in results.items():
            for part, got, want in zip(
                    ("summary", "race rows", "invariant counters"),
                    _verdict(result), golden):
                if got != want:
                    print(f"error: {name} does not match fast on {part} "
                          f"at interior {interior}", file=sys.stderr)
                    ok = False
        movable = results[method].movable_rows
        (won if ms[method] < ms["fast"] else lost).append(movable)
        print(f"{results['fast'].num_access_events:>9} {movable:>8} "
              + " ".join(f"{ms[name]:>10.1f}" for name in configs)
              + f"  {results['auto'].backend}")
    low = max(lost, default=0)
    high = min((m for m in won if m > low), default=None)
    print(f"split lost to fast up to {low} movable rows; "
          + (f"won from {high}" if high is not None else "never won above"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
