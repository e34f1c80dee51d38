"""``repro-racecheck`` — run a user program file under a race detector.

The command-line face of the library, analogous to running an HJ program
with the instrumented runtime:

    repro-racecheck my_program.py [--detector dtrg|exact|espbags|spbags|
                                   spd3|offset-span|vector-clock|brute-force|
                                   parallel]
                                  [--runtime serial|threads|asyncio]
                                  [--workers N]
                                  [--policy collect|raise]
                                  [--dot graph.dot] [--trace out.trace]
                                  [--metrics] [--witness]
                                  [--jobs N] [--parallel-backend auto|fork|
                                   spawn|inline]
                                  [--fast]
                                  [--perfetto out.json]
                                  [--metrics-json out-metrics.json]
                                  [--explain] [--verify-witness]
                                  [--witness-json out.json] [--html out.html]

``--perfetto`` records the run through :mod:`repro.obs` and writes a
Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``:
task lifetimes and finish scopes as duration spans, ``get()`` joins,
DTRG mutations, PRECEDE queries (with their outcome and visited-set
size) and shadow checks as instant events.  ``--metrics-json`` dumps the
companion counter/histogram registry (PRECEDE latency, ``_explore``
frontier sizes, per-cell reader populations).  Either flag enables the
instrumentation; the detailed DTRG/shadow hooks require ``--detector
dtrg`` and observe the same checking kernel an unobserved run uses, so
the report is byte-identical with and without them.

``--explain`` turns on race provenance (``--detector dtrg`` only, on
the serial path, ``--fast`` and ``--jobs`` alike): every
spawn/get/read/write is attributed to its source call site by a bounded
flight recorder and recorded with the trace, and after the check each
deduplicated race gets a machine-checkable witness — a non-ordering
certificate rebuilt by one pass over the recorded trace
(:func:`repro.obs.provenance.explain_races`) showing the interval labels,
set representatives, LSA chain and exhausted VISIT frontier that prove
``PRECEDE`` is false both ways.  Every path gives the same witnesses,
also on a ``--policy raise`` abort.  ``--witness-json`` writes the
certificates as ``repro.race-witness-report/1`` JSON (validated by
``python -m repro.obs.validate``), ``--html`` writes a self-contained
HTML report, and ``--verify-witness`` independently confirms every
witness against the brute-force transitive closure of the computation
graph (exit 2 if any check fails).  Any of these flags implies
``--explain``.

``--jobs N`` (N > 1) switches to the two-phase sharded checker: the
program runs once with only a :class:`~repro.memory.tracer.TraceRecorder`
attached, whose hooks write the trace straight into the flat columns of
an :class:`~repro.core.events.EncodedTrace` (no event objects, no
separate encode pass), then those columns are checked by ``N`` worker
processes, each running ``check_trace_fast`` over the locations it owns
(``docs/ALGORITHM.md`` §12).  The race list, the printed
summary and the exit code are bit-identical to the sequential
``--detector dtrg`` run.  Post-hoc checking cannot abort the program at
the first race, so ``--jobs`` rejects ``--policy raise``;
``--detector`` must be ``dtrg``.

``--fast`` is the single-thread batched counterpart of ``--jobs``: the
program runs once with only the trace recorder attached, recording
straight into those columns, and ``check_trace_fast`` checks them
(``docs/ALGORITHM.md`` §13.2) — same race list, summary and exit code as
the sequential ``--detector dtrg`` run.  The same restrictions as
``--jobs`` apply (dtrg only, no ``--policy raise``), and — like the
``--jobs`` path since PR 5 — a user-program abort during the recording
phase still writes every requested ``--dot``/``--trace``/``--metrics``
artifact and exits 2.

``--runtime threads`` executes the program on the work-stealing
:class:`~repro.runtime.executor.ThreadRuntime` (``--workers N`` sets the
pool size) and ``--runtime asyncio`` on the cooperative
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` (the program file
must then define ``async def program(rt)``), with detection running
*online during the parallel execution*.  Both force ``--detector
parallel`` (:class:`~repro.core.parallel_detector.ParallelRaceDetector`,
which ``--detector vector-clock`` and ``--detector exact`` also name —
the one engine whose verdicts are exact under any schedule and any
handle flow; the DTRG family assumes the serial depth-first event
order, see README "Choosing a runtime") and
reject the flags whose machinery assumes that order:
``--jobs``/``--fast`` (post-hoc replay), the ``--explain`` family
(witnesses are rebuilt from serial-order columns), and
``--dot``/``--trace``/``--witness``/``--verify-witness``
(computation-graph reconstruction).  The printed
``racy location`` set matches the serial run; which unordered access of
a pair lands second — and hence pair order in the report — may differ
across schedules.

``--trace FILE`` saves the recorded trace in the one trace file format
(:mod:`repro.core.tracefile`: a magic string, a version, a JSON header and
the raw column bytes).  :meth:`Trace.load <repro.core.events.Trace.load>`
reads it back for replay or ``check_trace_fast`` and runs no code; a
file in any other form, a pickle included, raises ``TraceFormatError``.

``my_program.py`` must define ``def program(rt):`` (and may define
``def setup(rt):`` returning shared state passed as the second argument).
The file is executed with a fresh :class:`~repro.runtime.runtime.Runtime`;
every shared wrapper it creates against ``rt`` is instrumented.

Exit status: 0 = race-free, 1 = races found, 2 = unsupported construct for
the chosen detector (or other errors, including exceptions raised by the
user program itself).

Whatever artifacts were requested (``--dot``/``--trace``/``--metrics``) are
written from the observers' recorded state even when the run aborts early —
a ``--policy raise`` abort or a crash in the user program still yields the
graph/trace collected up to that point.  A crash also prints the races
found in the accesses made before it (every detector checks its
unchecked tail first), then exits 2.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from typing import List

from repro.baselines import (
    BruteForceDetector,
    ESPBagsDetector,
    OffsetSpanDetector,
    SPBagsDetector,
    SPD3Detector,
)
from repro.core.detector import DeterminacyRaceDetector
from repro.core.parallel_check import check_trace_parallel
from repro.core.parallel_detector import ParallelRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure, to_dot
from repro.graph.schedule import demonstrate_nondeterminism
from repro.harness.metrics import MetricsCollector
from repro.core.events import ExecutionObserver
from repro.memory.tracer import TraceRecorder
from repro.runtime.errors import RaceError, UnsupportedConstructError
from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.runtime.executor import ThreadRuntime
from repro.runtime.runtime import Runtime

__all__ = ["main", "DETECTORS"]

DETECTORS = {
    "dtrg": DeterminacyRaceDetector,
    # ``exact``, ``vector-clock`` and ``parallel`` all name the
    # access-stamp vector clocks: exact under any handle flow and schedule.
    "exact": ParallelRaceDetector,
    "espbags": ESPBagsDetector,
    "spbags": SPBagsDetector,
    "spd3": SPD3Detector,
    "offset-span": OffsetSpanDetector,
    "vector-clock": ParallelRaceDetector,
    "brute-force": BruteForceDetector,
    "parallel": ParallelRaceDetector,
}


class _NameCapture(ExecutionObserver):
    """Record live task names so parallel races print like the live run."""

    def __init__(self) -> None:
        self.names = {}

    def on_init(self, main_task) -> None:
        self.names[main_task.tid] = main_task.name

    def on_task_create(self, parent, child) -> None:
        self.names[child.tid] = child.name


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-racecheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("program", help="python file defining program(rt)")
    parser.add_argument("--detector", default=None, choices=DETECTORS,
                        help="detection engine (default: dtrg on the "
                             "serial runtime, parallel otherwise)")
    parser.add_argument("--runtime", default="serial",
                        choices=("serial", "threads", "asyncio"),
                        help="execution substrate: the serial depth-first "
                             "elision (default), the work-stealing "
                             "ThreadRuntime, or the cooperative "
                             "AsyncioRuntime (requires async def program)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker-thread count for --runtime threads")
    parser.add_argument("--policy", default="collect",
                        choices=("collect", "raise"))
    parser.add_argument("--dot", metavar="FILE",
                        help="write the computation graph as Graphviz DOT")
    parser.add_argument("--trace", metavar="FILE",
                        help="save the instrumentation trace as a trace "
                             "file (versioned columns; Trace.load reads "
                             "it and runs no code)")
    parser.add_argument("--metrics", action="store_true",
                        help="print structural counters")
    parser.add_argument("--witness", action="store_true",
                        help="print two schedules whose outcomes differ "
                             "for each racy location")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="check accesses with N worker processes via "
                             "the two-phase sharded checker (dtrg only; "
                             "identical races/summary/exit code)")
    parser.add_argument("--parallel-backend", dest="parallel_backend",
                        default=None,
                        choices=("auto", "fork", "spawn", "inline"),
                        help="worker dispatch for --jobs (default auto: "
                             "one in-process shard below the split "
                             "break-even, else fork where available, "
                             "else spawn)")
    parser.add_argument("--fast", action="store_true",
                        help="check via the batched single-thread fast "
                             "path: record the trace into flat "
                             "columns, run check_trace_fast (dtrg "
                             "only; identical races/summary/exit code)")
    parser.add_argument("--perfetto", metavar="FILE",
                        help="write a Chrome trace-event JSON "
                             "(Perfetto/chrome://tracing)")
    parser.add_argument("--metrics-json", metavar="FILE", dest="metrics_json",
                        help="write the observability counter/histogram "
                             "registry as JSON")
    parser.add_argument("--explain", action="store_true",
                        help="attribute accesses to source sites and print "
                             "a non-ordering witness per race (dtrg "
                             "only; also with --fast and --jobs)")
    parser.add_argument("--witness-json", metavar="FILE", dest="witness_json",
                        help="write the race witnesses as JSON "
                             "(implies --explain)")
    parser.add_argument("--html", metavar="FILE",
                        help="write a self-contained HTML race report "
                             "(implies --explain)")
    parser.add_argument("--verify-witness", action="store_true",
                        dest="verify_witness",
                        help="cross-check every witness against the "
                             "brute-force computation graph "
                             "(implies --explain; exit 2 on mismatch)")
    parser.add_argument("--serve-metrics", type=int, default=None,
                        metavar="PORT", dest="serve_metrics",
                        help="serve live telemetry over HTTP while the "
                             "check runs: /metrics (Prometheus text "
                             "exposition), /healthz, /snapshot (JSON). "
                             "PORT 0 binds an ephemeral port (printed to "
                             "stderr)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECS",
                        help="print a progress heartbeat line to stderr "
                             "every SECS seconds (events processed, races "
                             "so far, ETA); 0 disables (default)")
    parser.add_argument("--sample-interval", type=float, default=0.25,
                        metavar="SECS", dest="sample_interval",
                        help="live-telemetry sampler cadence "
                             "(default 0.25)")
    args = parser.parse_args(argv)

    if args.heartbeat < 0:
        print("error: --heartbeat must be >= 0", file=sys.stderr)
        return 2
    if args.sample_interval <= 0:
        print("error: --sample-interval must be > 0", file=sys.stderr)
        return 2

    concurrent = args.runtime != "serial"
    if args.detector is None:
        args.detector = "parallel" if concurrent else "dtrg"
    if concurrent and DETECTORS[args.detector] is not ParallelRaceDetector:
        print(f"error: --runtime {args.runtime} executes a real parallel "
              f"schedule; --detector {args.detector} assumes the serial "
              "depth-first event order and its answers would be undefined. "
              "Use --detector parallel (the default for this runtime)",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.runtime != "threads":
        print("error: --workers only applies to --runtime threads",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if concurrent:
        blocked = [
            (args.jobs > 1, "--jobs"),
            (args.fast, "--fast"),
            (args.explain, "--explain"),
            (args.witness_json is not None, "--witness-json"),
            (args.html is not None, "--html"),
            (args.verify_witness, "--verify-witness"),
            (args.dot is not None, "--dot"),
            (args.trace is not None, "--trace"),
            (args.witness, "--witness"),
        ]
        offending = [flag for cond, flag in blocked if cond]
        if offending:
            print(f"error: {', '.join(offending)} assume(s) the serial "
                  "depth-first event order (trace replay, provenance and "
                  "computation-graph reconstruction are undefined under a "
                  f"parallel schedule); drop it or drop --runtime "
                  f"{args.runtime}", file=sys.stderr)
            return 2

    explain = (args.explain or args.witness_json is not None
               or args.html is not None or args.verify_witness)
    if explain and args.detector != "dtrg":
        print("error: --explain/--witness-json/--html/--verify-witness "
              "require --detector dtrg (witnesses are DTRG certificates)",
              file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    parallel = args.jobs > 1
    if parallel and args.fast:
        print("error: --fast is the single-thread batched checker; "
              "use either --fast or --jobs N", file=sys.stderr)
        return 2
    if parallel or args.fast:
        flag = "--jobs" if parallel else "--fast"
        if args.detector != "dtrg":
            print(f"error: {flag} requires --detector dtrg (the batched "
                  "checkers implement the DTRG algorithm)", file=sys.stderr)
            return 2
        if args.policy == "raise":
            print(f"error: {flag} checks post-hoc and cannot abort at the "
                  "first race; use --policy collect", file=sys.stderr)
            return 2

    try:
        namespace = runpy.run_path(args.program)
    except Exception as exc:
        print(f"error: loading {args.program} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    entry = namespace.get("program")
    if not callable(entry):
        print(f"error: {args.program} does not define program(rt)",
              file=sys.stderr)
        return 2
    import inspect

    if args.runtime == "asyncio" and not inspect.iscoroutinefunction(entry):
        print(f"error: --runtime asyncio requires {args.program} to define "
              "async def program(rt) (the serial and threads runtimes take "
              "the synchronous form)", file=sys.stderr)
        return 2
    if args.runtime != "asyncio" and inspect.iscoroutinefunction(entry):
        print(f"error: {args.program} defines async def program(rt); "
              "run it with --runtime asyncio", file=sys.stderr)
        return 2

    obs = None
    if args.perfetto or args.metrics_json:
        from repro.obs import Observability, RingTracer

        obs = Observability(
            tracer=RingTracer() if args.perfetto else None
        )
    provenance = None
    if explain:
        from repro.obs import RaceProvenance

        provenance = RaceProvenance()
    name_capture = None
    if parallel or args.fast:
        # Two-phase mode: phase 1 records the stream (no detector in the
        # loop), phase 2 replays it through the sharded or batched
        # checker.  Live task names are captured so post-hoc races print
        # identically to live.  The abort handlers below cover phase 1
        # for both checkers: a user-program crash or unsupported
        # construct still flushes every requested artifact and exits 2.
        detector = None
        observers: List = []
        name_capture = _NameCapture()
        observers.append(name_capture)
    else:
        options = {"obs": obs} if args.detector == "dtrg" else {}
        detector = DETECTORS[args.detector](policy=args.policy, **options)
        observers = [detector]
    graph_builder = None
    if args.dot or args.witness or args.verify_witness:
        graph_builder = GraphBuilder()
        observers.append(graph_builder)
    metrics = None
    if args.metrics:
        metrics = MetricsCollector()
        observers.append(metrics)
    recorder = None
    if args.trace or parallel or args.fast or explain:
        # First, so it has recorded the racing access when a detector
        # raises RaceError inside the access hook.
        recorder = TraceRecorder(provenance)
        observers.insert(0, recorder)
    witnesses: List = []

    def explain_report() -> None:
        """Give the checked races their sites and witnesses (--explain):
        one pass over the recorded columns, at each race's access row."""
        if not explain or detector is None:
            return
        from repro.obs import explain_races

        sited, found = explain_races(
            recorder.trace, detector.races, detector.race_rows)
        detector.report.races[:] = sited
        witnesses[:] = found

    def check_aborted_tail() -> None:
        """An aborted run leaves accesses unchecked (the kernel's last
        access block, or the vector-clock detector's buffered segments):
        check them, so the explanation, the artifacts and the printed
        races cover every access the program made."""
        if isinstance(detector, (DeterminacyRaceDetector,
                                 ParallelRaceDetector)):
            try:
                detector.flush()
            except RaceError:
                pass  # --policy raise: the race is in the report

    def print_aborted_races() -> None:
        """An aborted run still reports the races its accesses made."""
        if detector is not None and detector.report.has_races:
            print("races before the error:")
            print(detector.report.summary())

    def write_artifacts() -> None:
        """Flush whatever the observers recorded — also on aborted runs."""
        if metrics is not None:
            snap = metrics.snapshot()
            print(f"\ntasks: {snap.num_tasks} "
                  f"({snap.num_future_tasks} futures), "
                  f"gets: {snap.num_gets} ({snap.num_nt_joins} non-tree), "
                  f"shared accesses: {snap.num_shared_accesses}")
        dot_source = None
        if graph_builder is not None and (args.dot or args.html):
            dot_source = to_dot(
                graph_builder.graph, title=args.program,
                witnesses=witnesses if explain else None,
            )
        if args.dot and dot_source is not None:
            with open(args.dot, "w") as fh:
                fh.write(dot_source)
            print(f"computation graph written to {args.dot}")
        if args.witness_json:
            import json

            from repro.obs import witness_report_data

            with open(args.witness_json, "w") as fh:
                json.dump(
                    witness_report_data(witnesses, program=args.program),
                    fh, indent=2,
                )
            print(f"{len(witnesses)} witness(es) written to "
                  f"{args.witness_json}")
        if args.html:
            from repro.obs import render_html_report

            with open(args.html, "w") as fh:
                fh.write(render_html_report(
                    program=args.program,
                    report=detector.report,
                    witnesses=witnesses,
                    provenance=provenance,
                    dot_source=dot_source,
                ))
            print(f"HTML report written to {args.html}")
        if args.trace and recorder is not None:
            recorder.trace.save(args.trace)
            print(f"trace ({len(recorder.trace)} events) "
                  f"written to {args.trace}")
        # Observing a run must not change its report: these notices go
        # to stderr, so stdout is byte-identical without the flags.
        if args.perfetto and obs is not None:
            obs.write_trace(args.perfetto)
            print(f"perfetto trace written to {args.perfetto}",
                  file=sys.stderr)
        if args.metrics_json and obs is not None:
            obs.write_metrics(args.metrics_json)
            print(f"metrics written to {args.metrics_json}",
                  file=sys.stderr)

    if args.runtime == "threads":
        rt = ThreadRuntime(observers=observers, obs=obs, workers=args.workers)
    elif args.runtime == "asyncio":
        rt = AsyncioRuntime(observers=observers, obs=obs)
    else:
        rt = Runtime(observers=observers, obs=obs, provenance=provenance)

    telemetry = None
    if args.serve_metrics is not None or args.heartbeat > 0:
        from repro.obs.live import LiveTelemetry

        telemetry = LiveTelemetry(
            registry=obs.registry if obs is not None else None,
            tracer=obs.tracer if obs is not None else None,
            port=args.serve_metrics,
            interval=args.sample_interval,
            heartbeat=args.heartbeat,
        )
        if detector is not None:
            telemetry.attach_detector(detector)
        telemetry.attach_runtime(rt)  # no-op for runtimes without deques
        telemetry.start()
        if telemetry.url:
            print(f"serving live metrics at {telemetry.url}/metrics "
                  f"(snapshot: {telemetry.url}/snapshot)", file=sys.stderr)
        telemetry.progress.set_phase(
            "record" if (parallel or args.fast) else "execute"
        )
    progress = telemetry.progress if telemetry is not None else None

    setup = namespace.get("setup")
    try:
        try:
            if callable(setup):
                state = setup(rt)
                if args.runtime == "asyncio":

                    async def _entry(r):
                        return await entry(r, state)

                    rt.run(_entry)
                else:
                    rt.run(lambda r: entry(r, state))
            else:
                rt.run(entry)
        except RaceError as exc:
            print(f"RACE (aborted at first): {exc}")
            explain_report()
            write_artifacts()
            return 1
        except UnsupportedConstructError as exc:
            print(f"unsupported construct for --detector {args.detector}: {exc}",
                  file=sys.stderr)
            check_aborted_tail()
            explain_report()
            print_aborted_races()
            write_artifacts()
            return 2
        except Exception as exc:
            print(f"error: {args.program} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            check_aborted_tail()
            explain_report()
            print_aborted_races()
            write_artifacts()
            return 2

        if parallel:
            result = check_trace_parallel(
                recorder.trace,
                jobs=args.jobs,
                backend=args.parallel_backend,
                names=name_capture.names,
                obs=obs,
                progress=progress,
            )
            detector = result  # duck-typed: .report / .races / .race_rows
            if args.metrics:
                timings = result.timings
                print(f"parallel check: jobs={result.jobs} "
                      f"backend={result.backend} shards={len(result.shards)} "
                      f"movable_rows={result.movable_rows} "
                      f"freeze={timings['freeze_seconds'] * 1e3:.1f}ms "
                      f"check={timings['check_seconds'] * 1e3:.1f}ms "
                      f"merge={timings['merge_seconds'] * 1e3:.1f}ms")
        elif args.fast:
            from repro.core.fastcheck import check_trace_fast

            result = check_trace_fast(
                recorder.trace, names=name_capture.names,
                progress=progress,
            )
            detector = result  # duck-typed: .report / .races / .race_rows
            if args.metrics:
                timings = result.timings
                print(f"fast check: "
                      f"structure={timings['structure_seconds'] * 1e3:.1f}ms "
                      f"access={timings['access_seconds'] * 1e3:.1f}ms "
                      f"({result.access_events_per_second:,.0f} "
                      "access-checks/s)")

        explain_report()
        print(detector.report.summary())

        if witnesses:
            from repro.obs import render_witness_text

            print("\nrace witnesses (non-ordering certificates):")
            for witness in witnesses:
                print()
                print(render_witness_text(witness))

        verify_failed = False
        if args.verify_witness and graph_builder is not None:
            from repro.obs import confirm_witness

            closure = ReachabilityClosure(graph_builder.graph)
            for witness in witnesses:
                ok = confirm_witness(
                    witness, graph_builder.graph, closure=closure
                )
                status = "confirmed" if ok else "REFUTED"
                print(f"witness {witness.witness_id}: {status} against "
                      "brute-force closure")
                verify_failed = verify_failed or not ok

        write_artifacts()

        if verify_failed:
            print("error: witness verification failed — detector and "
                  "brute-force closure disagree", file=sys.stderr)
            return 2

        if args.witness and graph_builder is not None and detector.report.has_races:
            closure = ReachabilityClosure(graph_builder.graph)
            print("\nschedule witnesses:")
            for loc in sorted(detector.report.racy_locations, key=repr):
                pair = demonstrate_nondeterminism(
                    graph_builder.graph, loc, closure
                )
                if pair is None:
                    print(f"  {loc!r}: racy but observably masked "
                          "(racy-yet-determinate)")
                else:
                    diffs = pair[0].differs_from(pair[1])
                    print(f"  {loc!r}: {diffs[0]}")

        return 1 if detector.report.has_races else 0
    finally:
        if telemetry is not None:
            telemetry.stop()


if __name__ == "__main__":
    raise SystemExit(main())
