"""One benchmark worker process: set up a workload, then run one checking
path over it again and again, or make the traced layer-by-layer run.

The worker speaks JSON lines on stdout, which ``run.py`` reads with a
deadline per line:

* ``{"ready": ...}`` once imports are done and the inputs are built;
* path mode: for each ``run`` line on stdin, one run of the path over
  every unit and its ``{"rep": ...}`` line, with the calibration kernel's
  time around the run (see :func:`calibrate`); on any other line or end of
  input, ``{"done": ..., "peak_rss_mb": ...}``;
* layers mode: one ``{"layers": ..., "self_times": ...}`` line, after
  writing the spans as Chrome trace-event JSON to ``--trace-out``;
* ``{"error": ...}`` when a run raised; the traceback goes to stderr.

Run it only through ``run.py``; it takes the same workload, seed and
size, plus the path to repeat or the traced run's output file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _calibration_kernel() -> int:
    # Allocation-heavy interpreter work, like the checkers' own: build
    # and fill a dict of tuple keys, then read half of it back.  The keys
    # hold only ints, whose hashes do not depend on PYTHONHASHSEED.
    table = {}
    keys = []
    for i in range(30_000):
        key = (i, i + 1)
        table[key] = [i]
        keys.append(key)
    return sum(len(table[key]) for key in keys[::2])


def calibrate() -> float:
    """Seconds the calibration kernel takes right now, with the collector
    parked so that it does not count.

    It runs in the worker itself, just before and just after each run:
    on a shared host a process's speed swings by half over a second or
    two (the core it lands on), and a kernel timed in another process,
    possibly on the other core, did not follow those swings.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_path(workload, path: str, jobs: int) -> None:
    from paths import RUNNERS
    from workloads import location_keys

    runner = RUNNERS[path]
    rep = 0
    while sys.stdin.readline().strip() == "run":
        gc.collect()
        before = calibrate()
        seconds = cpu_seconds = 0.0
        events = 0
        digests, racy, wrong = [], [], []
        for i, unit in enumerate(workload.units):
            out = runner(workload, unit, jobs)
            seconds += out.seconds
            cpu_seconds += out.cpu_seconds
            events += out.events or 0
            digests.append(hashlib.sha256(out.summary.encode()).hexdigest()[:16])
            racy.append(location_keys(out.racy_locations))
            try:
                workload.verify(unit, out.result)
            except AssertionError as exc:
                wrong.append(f"unit {i}: {exc}")
        calibration = (before + calibrate()) / 2
        emit({"rep": rep, "seconds": seconds, "cpu_seconds": cpu_seconds,
              "calibration": calibration,
              "events": events, "summaries": digests, "racy": racy,
              "verify_errors": wrong})
        rep += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"done": True, "peak_rss_mb": peak_kb / 1024.0})


def run_traced(workload, jobs: int, trace_out: str) -> None:
    from layers import SpanRecorder, run_layers

    spans = SpanRecorder()
    metrics = run_layers(workload, jobs, spans)
    with open(trace_out, "w") as fh:
        json.dump(spans.chrome_trace(f"perfbench {workload.name}"), fh)
    emit({"layers": metrics, "self_times": spans.self_times()})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--path", help="checking path to repeat")
    parser.add_argument("--trace-out", help="traced run: Chrome trace file")
    args = parser.parse_args()

    # Every import counts as set-up, like building the inputs.
    import layers  # noqa: F401  (imports paths and the checkers)
    from workloads import make

    workload = make(args.workload, args.seed, args.size)
    emit({"ready": True, "units": len(workload.units)})
    try:
        if args.trace_out:
            run_traced(workload, args.jobs, args.trace_out)
        else:
            run_path(workload, args.path, args.jobs)
    except Exception as exc:  # reported to run.py, which keeps going
        traceback.print_exc()
        emit({"error": f"{type(exc).__name__}: {exc}"})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
