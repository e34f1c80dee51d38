"""End-to-end benchmark: time from program start to race report on every
checking path, and a traced run that splits it by layer.

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports the library from ``src/``.
Each of the four checking paths (see ``paths.py``) runs in its own worker
process, which sets the workload up once and then runs the path whenever
it is told to.  The paths take turns for ``--seconds``, and each timing
is the median of its runs, each scaled to a reference machine speed by a
calibration kernel the worker runs just before and after it (see
:func:`scaled`).
Every run's verdict is checked against the workload's known answer
(``workloads.py``); the brute-force oracle runs here, in the parent,
outside every timed region and every measured process.  A path whose
worker stops answering within its deadline is killed, named in the output
and counted as failed, and the remaining paths still run.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` runs the paths the same way, then the traced run
(``layers.py``), and reports the per-layer metrics, including how much of
each path's untraced time the layers' self times cover.  Every result is
also written, with the machine's CPU count, the Python version and the
jobs and workers used, to ``perfbench/out/``, next to the traced run's
Chrome trace-event JSON.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count path runs (one run is one pass of a path over every unit of the
workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PATHS = ("serial", "fast", "jobs", "threads")
#: Paths whose ``summary()`` text must be byte-identical.  The threads
#: path is compared on racy locations only: which access of a racing pair
#: lands second depends on the schedule.
SAME_SUMMARY = ("serial", "fast", "jobs")

SETUP_DEADLINE_S = 60.0
#: Longest wait for one run of a path, and for the whole traced run.
RUN_DEADLINE_S = 20.0
TRACED_DEADLINE_S = 60.0
#: Every deadline is also cut to what is left of this, so that even a
#: run in which every path hangs exits within three minutes.
TOTAL_DEADLINE_S = 165.0
#: Worker generations per invocation (see ``run_paths``).
GENERATIONS = 2
#: Fewest runs of each path in each generation, however long they take.
MIN_REPS = 2
#: Time one path runs for in each of its turns, and the fewest runs.
SLICE_S = 1.0
TURN_RUNS = 2
#: Every worker hashes strings with the same seed.  With a random seed
#: per process, the fast path over a 4000-task Series-future run took
#: 0.28 s in one process and 0.45 s in the next (tuple keys of strings
#: land in different dict slots), which swamped every other source of
#: spread.
HASH_SEED = "0"


#: What the worker's calibration kernel (``worker.calibrate``) takes on
#: an uncontended core of the 2-core x86-64 machine the benchmark was
#: tuned on (CPython 3.11, fast decile of 60 runs).  Every time is scaled
#: to this speed.
CALIBRATION_REF_S = 0.012
#: The threads path is timed in CPU time, summed over its threads.  Its
#: runtime is bound by the interpreter lock, so on an idle machine CPU
#: time reads 1.06 times wall time, steady to 0.5% over ten runs.  But
#: when another tenant takes one of the two cores, its two workers share
#: the other one: a busy loop on one core made wall time 1.43 times
#: longer and left CPU time as it was (0.92).  In wall time its median
#: spread by 26-34% over ten runs; every other path runs one thread of
#: Python at a time and is timed in wall time.
CPU_TIMED = ("threads",)


class Worker:
    """A worker process and the JSON lines it has sent.

    ``read(deadline)`` waits at most ``deadline`` seconds (and never past
    ``give_up_at``) for the next line.  A worker that misses a deadline,
    exits early or reports an error is killed with its whole process
    group and waited for, and ``failure`` says what happened.
    """

    def __init__(self, argv: List[str], give_up_at: float) -> None:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.give_up_at = give_up_at
        self.setup_s: Optional[float] = None
        self.lines: List[dict] = []
        self.failure: Optional[str] = None
        self._started = time.monotonic()
        self._buf = b""
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, start_new_session=True)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    @property
    def reps(self) -> List[dict]:
        return [line for line in self.lines if "rep" in line]

    def last(self, key: str) -> Optional[dict]:
        found = [line for line in self.lines if key in line]
        return found[-1] if found else None

    def read(self, deadline: float) -> Optional[dict]:
        """The next line, or ``None`` once the worker has failed."""
        if self.failure:
            return None
        end = min(time.monotonic() + deadline, self.give_up_at)
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0:
                return self._fail(
                    f"no answer within its {deadline:.0f} s deadline after "
                    f"{len(self.reps)} run(s); stopped")
            if self._selector.select(left):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return self._fail(
                        f"worker exited (code {self.proc.wait()}) after "
                        f"{len(self.reps)} run(s)")
                self._buf += chunk
        raw, self._buf = self._buf.split(b"\n", 1)
        line = json.loads(raw)
        if "ready" in line:
            self.setup_s = time.monotonic() - self._started
        self.lines.append(line)
        if "error" in line:
            return self._fail(f"raised {line['error']}")
        return line

    def send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._fail(f"worker exited (code {self.proc.wait()}) after "
                       f"{len(self.reps)} run(s)")

    def _fail(self, message: str) -> None:
        self.failure = message
        self.close()
        return None

    def close(self) -> None:
        """Let a finished worker exit, kill a failed or stuck one, and
        kill whatever is left of its process group (a killed worker's
        multiprocessing children)."""
        if self.proc.stdout.closed:
            return
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=0 if self.failure else 10)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()


class PathRuns:
    """One checking path's workers, one per generation, and their runs."""

    def __init__(self) -> None:
        self.workers: List[Worker] = []

    @property
    def reps(self) -> List[dict]:
        return [rep for worker in self.workers for rep in worker.reps]

    @property
    def failure(self) -> Optional[str]:
        return next((w.failure for w in self.workers if w.failure), None)


def run_paths(common: List[str], seconds: float,
              give_up_at: float) -> Dict[str, PathRuns]:
    """Run every path for ``seconds`` in ``GENERATIONS`` generations of
    workers.

    Each generation sets up one fresh worker per path and lets the paths
    take turns for its share of the time, until every path has run at
    least ``MIN_REPS`` times.  In each turn a path runs again and again
    until it has used ``SLICE_S`` (less when ``seconds`` is short) and has
    run ``TURN_RUNS`` times.  Taking turns spreads every path's runs over
    the measuring time, so a slow spell of the machine touches all paths
    alike, and the slices give each path about the same share of the time
    however long its runs are.  Fresh workers per generation average out how fast a
    given process happens to be (its memory placement), which moved one
    path's median by a third between otherwise identical processes.  A
    path whose worker failed is not started again.
    """
    results = {path: PathRuns() for path in PATHS}
    share = seconds / GENERATIONS
    slice_s = min(SLICE_S, share / (2 * len(PATHS)))
    for _generation in range(GENERATIONS):
        workers: List[Worker] = []
        for path in PATHS:
            if results[path].failure:
                continue
            worker = Worker(common + ["--path", path], give_up_at)
            results[path].workers.append(worker)
            workers.append(worker)
            worker.read(SETUP_DEADLINE_S)
        start = time.monotonic()
        while True:
            live = [w for w in workers if not w.failure]
            enough = all(len(w.reps) >= MIN_REPS for w in live)
            if (not live or time.monotonic() >= give_up_at
                    or (enough and time.monotonic() - start >= share)):
                break
            for worker in live:
                turn = time.monotonic()
                runs = 0
                while not worker.failure:
                    worker.send("run")
                    worker.read(RUN_DEADLINE_S)
                    runs += 1
                    if (runs >= TURN_RUNS
                            and time.monotonic() - turn >= slice_s):
                        break
        for worker in workers:
            if not worker.failure:
                worker.send("stop")
                worker.read(RUN_DEADLINE_S)
                worker.close()
    return results


def judge(oracle: List[List[str]],
          results: Dict[str, PathRuns]) -> tuple:
    """Check every path run against the known answer.

    ``oracle`` holds each unit's sorted racy locations.  A run fails when
    a unit's racy locations differ from it, when a race-free unit's
    result fails ``verify()``, or when a ``SAME_SUMMARY`` path's summary
    text differs from the serial path's.  A path whose worker raised,
    exited or hung counts one more failed run.  Returns
    ``(attempted, failures)``, ``failures`` a list of messages.
    """
    reference = None
    for path in SAME_SUMMARY:
        if path in results and results[path].reps:
            reference = results[path].reps[0]["summaries"]
            break
    attempted = 0
    failures: List[str] = []
    for path, result in results.items():
        for number, rep in enumerate(result.reps):
            attempted += 1
            problems = list(rep["verify_errors"])
            wrong = [i for i, (got, want) in enumerate(zip(rep["racy"], oracle))
                     if got != want]
            if wrong or len(rep["racy"]) != len(oracle):
                problems.append(
                    f"racy locations differ from the known answer on "
                    f"unit(s) {wrong[:5] or 'count'}")
            if path in SAME_SUMMARY and rep["summaries"] != reference:
                problems.append("summary() text differs from the serial path")
            if problems:
                failures.append(f"{path} run {number}: "
                                + "; ".join(problems))
        if result.failure:
            attempted += 1
            failures.append(f"{path}: {result.failure}")
    return attempted, failures


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference machine speed: multiplied by how much
    faster the calibration kernel ran on the reference machine than it
    did beside this measurement."""
    return seconds * CALIBRATION_REF_S / calibration


def path_times(path: str, runs: PathRuns) -> List[float]:
    """A path's run times (CPU times for ``CPU_TIMED`` paths), each
    scaled by the mean of the calibrations its worker measured just
    before and just after it."""
    key = "cpu_seconds" if path in CPU_TIMED else "seconds"
    return [scaled(rep[key], rep["calibration"]) for rep in runs.reps]


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _spread(path: str, runs: PathRuns) -> str:
    times = path_times(path, runs)
    if len(times) < 2:
        return f"{len(times)} run(s)"
    q1, _q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    raw = statistics.median(rep["seconds"] for rep in runs.reps)
    cpu = " (CPU time)" if path in CPU_TIMED else ""
    return (f"median of {len(times)} runs{cpu}, q1 {q1:.4g}, q3 {q3:.4g}; "
            f"unscaled wall median {raw:.4g}")


def end_to_end(results: Dict[str, PathRuns]) -> Dict[str, Optional[float]]:
    """The end-to-end metrics from the path workers' runs.  Times are
    medians at the reference machine speed (see ``scaled``); a worker's
    set-up is scaled by the median of its runs' calibrations."""
    workers = [w for runs in results.values() for w in runs.workers]
    m: Dict[str, Optional[float]] = {
        "setup_s": _median([
            scaled(w.setup_s, statistics.median(
                rep["calibration"] for rep in w.reps))
            for w in workers if w.setup_s is not None and w.reps
        ]),
    }
    for path in PATHS:
        m[f"{path}_report_s"] = _median(path_times(path, results[path]))
    fast = results["fast"].reps
    m["fast_events_per_s"] = (
        fast[0]["events"] / m["fast_report_s"] if fast else None)
    peaks = [w.last("done")["peak_rss_mb"] for w in workers if w.last("done")]
    m["peak_rss_mb"] = max(peaks) if peaks else None
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the four paths share for repeated runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench",
                        help="input size: bench, or tiny for smoke tests")
    args = parser.parse_args(argv)
    give_up_at = time.monotonic() + TOTAL_DEADLINE_S

    if not (SRC / "repro").is_dir():
        print(f"error: the library is not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import NAMES, SIZES, make, oracle_racy_locations

    if args.workload not in NAMES or args.size not in SIZES:
        parser.error(f"--workload is one of {NAMES}, --size one of {SIZES}")
    jobs = os.cpu_count() or 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}"
    common = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--jobs", str(jobs)]

    results = run_paths(common, args.seconds, give_up_at)

    workload = make(args.workload, args.seed, args.size)
    oracle = oracle_racy_locations(workload)
    attempted, failures = judge(oracle, results)
    measured = end_to_end(results)
    declared = spec["end_to_end"]
    notes = {f"{p}_report_s": _spread(p, results[p]) for p in PATHS}
    setups = [w.setup_s for runs in results.values() for w in runs.workers
              if w.setup_s is not None]
    notes["setup_s"] = (f"median of {len(setups)} set-ups; unscaled "
                        f"median {_median(setups) or 0:.4g}")

    trace_file = None
    if args.trace:
        trace_file = OUT / f"{stem}.trace.json"
        traced = Worker(common + ["--trace-out", str(trace_file)],
                        give_up_at)
        traced.read(SETUP_DEADLINE_S)
        layers = traced.read(TRACED_DEADLINE_S)
        traced.close()
        attempted += 1
        if traced.failure or layers is None:
            failures.append(f"traced run: {traced.failure}")
            measured = {}
        else:
            from layers import coverage
            from repro.obs.validate import validate_chrome_trace

            problems = validate_chrome_trace(json.loads(trace_file.read_text()))
            if problems:
                failures.append(f"traced run: invalid Chrome trace: "
                                f"{problems[:3]}")
            untraced = {p: _median([rep["seconds"] for rep in results[p].reps])
                        for p in PATHS}
            measured = dict(layers["layers"])
            measured.update(coverage(layers["self_times"], untraced))
        declared = spec["per_layer"]

    metrics = {
        d["name"]: {"value": measured.get(d["name"]), "unit": d["unit"]}
        for d in declared
    }
    missing = [name for name, v in metrics.items() if v["value"] is None]
    if missing and not failures:
        failures.append(f"metrics not measured: {missing}")

    env = {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "jobs": jobs, "workers": jobs, "workload": args.workload,
        "seed": args.seed, "size": args.size, "units": len(workload.units),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, v in metrics.items():
        value = "n/a" if v["value"] is None else f"{v['value']:.6g}"
        note = notes.get(name, "")
        print(f"  {name:38s} {value:>12s} {v['unit']:6s} {note}")
    print(f"  {'checks_failed':38s} {len(failures):>12d} count  "
          f"of {attempted} path runs")
    for message in failures:
        print(f"  FAILED {message}")
    if trace_file is not None:
        print(f"  trace: {trace_file.relative_to(ROOT)}")

    outcome = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    record = dict(outcome, environment=env, failures=failures,
                  runs={p: [rep["seconds"] for rep in r.reps]
                        for p, r in results.items()},
                  calibrations={p: [rep["calibration"] for rep in r.reps]
                                for p, r in results.items()},
                  cpu_runs={p: [rep["cpu_seconds"] for rep in r.reps]
                            for p, r in results.items()},
                  setups=setups)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
