"""``repro-bench`` — machine-readable benchmark runs for CI artifacts.

``repro-table2`` renders the paper's Table 2 for humans; this entry point
runs the same registry (:data:`~repro.harness.runner.BENCHMARKS`, plus
``--extended`` for the extension rows) and writes one JSON document that
CI uploads as an artifact, so perf and structural counters can be diffed
across commits without screen-scraping the rendered table::

    repro-bench --scale tiny --repeats 1 --output BENCH_PR4.json

``--scale`` takes a comma list (``--scale table2,large``); every mode
sweeps each scale × workload.

By default each workload runs in the paper's three configurations and
the document records the three wall times (Seq / Instrumented / Racedet,
min-of-``--repeats``), both slowdown ratios, the structural counters the
paper reports (#Tasks, #NTJoins, #SharedMem, #AvgReaders) and the
detector's fast-path counters (PRECEDE queries, calls saved by the
shadow fast paths).  Schema (``repro.bench/1``)::

    {"schema": "repro.bench/1", "scale": ..., "repeats": ...,
     "cpu_count": ..., "tag": ..., "violations": [...],
     "workloads": [{"name": ..., "scale": ..., "seq_seconds": ...,
       "instrumented_seconds": ..., "racedet_seconds": ...,
       "slowdown_vs_seq": ..., "slowdown_vs_instrumented": ...,
       "races": ..., "events_per_second": ..., "structural": {...},
       "detector_perf": {...}}, ...]}

The five comparison modes ask one question: run a workload, check it
several ways, and compare each way's verdict and time with the first.
Each records the workload once, then times its named *legs* over the
recording, best of ``--repeats`` rounds with the legs interleaved in an
order that rotates from round to round
(:func:`~repro.harness.runner.run_legs`):

``--parallel`` (legs ``jobs-N`` for each ``--jobs`` count)
    The sharded checker (``docs/ALGORITHM.md`` §12), ``--parallel-backend``
    dispatch.  Verdict: ``summary()`` and every ``perf_stats`` counter —
    the determinism contract.  Extra fields: ``check_seconds``,
    ``freeze_seconds``, ``build_seconds``, ``backend``, ``shards`` (the
    auto backend checks a trace below ``parallel_check.MIN_SPLIT_ROWS``
    as one ``inline`` shard, timing no split at all) and
    ``access_events_per_second`` over the fan-out stage.
``--throughput`` (``replay``, ``fast``; at least 2 rounds)
    The default detector re-driven over the decoded events by
    ``replay_trace``, and :func:`~repro.core.fastcheck.check_trace_fast`
    over the columns the recorder wrote; neither includes recording.
    Verdict: summary, ordered race pairs and the four invariant kernel
    counters.  ``fast`` adds its phase timings and
    ``access_events_per_second``; its ``speedup`` is the whole check's
    ratio over replay.
``--backends`` (``dtrg``, ``vc``; at least 2 rounds)
    The detector replayed under each PRECEDE backend
    (``docs/ALGORITHM.md`` §14).  Verdict: summary and ordered race
    pairs; each leg's own ``perf`` counters are reported, not compared.
``--executors`` (``serial``, ``threads-N`` for each ``--workers`` size)
    The workload run live on the serial runtime and on the work-stealing
    ThreadRuntime with the online ``ParallelRaceDetector``; each run's
    result is verified.  Verdict: the racy-location set and the task
    count.  Thread legs add ``workers``, ``pool_size``,
    ``compensation_threads`` and ``inlined``.  The AsyncioRuntime has no
    leg: workload kernels use the blocking ``get()`` it rejects; its
    parity lives in ``repro-fuzz --runtimes``.
``--telemetry`` (``detached``, ``served``; at least 3 rounds)
    The fast check with no telemetry object, and with a live plane
    (``docs/ALGORITHM.md`` §16) started before the timer: progress
    counter attached, 250 ms sampler, HTTP exporter and an in-process
    client scraping ``/metrics`` every 250 ms.  Verdict as for
    ``--throughput``.  Each leg records ``overhead_pct`` over
    ``detached``; the gate is :data:`~repro.harness.runner.
    MAX_OVERHEAD_PCT` (5%).  ``served`` adds ``scrapes`` and
    ``samples``.

All five write one schema (``repro.bench.legs/1``)::

    {"schema": "repro.bench.legs/1", "mode": ..., "scale": ...,
     "repeats": ..., "cpu_count": ..., "speedup_valid": ..., "tag": ...,
     "violations": [...],
     "workloads": [{"name": ..., "scale": ..., "num_events": ...,
       "num_access_events": ..., "num_tasks": ..., "num_gets": ...,
       "races": ..., "identical": ..., "mismatches": [...],
       "legs": [{"leg": ..., "status": "ok", "seconds": ...,
                 "events_per_second": ..., "speedup": ..., "races": ...,
                 ...extra fields}, {"leg": ..., "status": "error",
                 "detail": ...}, ...]}, ...]}

``--parallel`` and ``--executors`` speedups need cores: on a one-core
box the document is tagged ``"speedup_valid": false`` and a warning is
printed.  ``--markdown FILE`` also renders a comparison mode's table as
markdown (``docs/BACKENDS.md`` is ``--backends``'s).

``--baseline FILE`` checks a comparison mode's rows against checked-in
floors (``benchmarks/throughput_baseline.json``,
``benchmarks/backends_baseline.json``): per workload, ``"leg.field"``
keys name a floor, and the file's ``tolerance`` lets the named fields
drop that fraction below it (10% on the absolute events/s floors, which
are set well below a healthy run because shared-CI wall clocks vary
severalfold); a field without a tolerance is a hard floor (the
box-speed-independent ``fast.speedup`` ratio).  A workload the baseline
names that did not run is a violation.

``--serve-metrics PORT`` / ``--heartbeat SECS`` watch the *bench run
itself*: any mode gains a live ``/metrics`` + ``/snapshot`` endpoint
(PORT 0 picks an ephemeral port, printed to stderr) and a periodic
stderr progress line; the progress counter ticks once per completed
workload row.

Exit status: 0 on success; 1 if any workload raised, broke its mode's
verdict identity, exceeded the overhead bound or fell below a
``--baseline`` floor (every such violation is listed in the document's
``violations``); 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

from repro.harness.runner import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    MODES,
    run_benchmark,
    run_legs,
)

__all__ = [
    "bench_data",
    "check_floors",
    "check_gates",
    "legs_markdown",
    "main",
]

BENCH_SCHEMA = "repro.bench/1"
LEGS_SCHEMA = "repro.bench.legs/1"


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


def _row_line(row: dict) -> str:
    where = f"bench {row['name']}@{row['scale']}"
    if "legs" not in row:
        s = row["structural"]
        return (
            f"{where}: racedet {row['racedet_seconds'] * 1e3:.1f} ms "
            f"(x{row['slowdown_vs_seq']:.2f} vs seq), {s['num_tasks']} "
            f"tasks, {s['num_nt_joins']} nt-joins, "
            f"{row['detector_perf']['precede_queries']} PRECEDE queries"
        )
    cells = [
        f"{leg['leg']} {leg['seconds'] * 1e3:.1f} ms (x{leg['speedup']:.2f})"
        if leg["status"] == "ok" else f"{leg['leg']} {leg['status']}"
        for leg in row["legs"]
    ]
    return (f"{where}: {row['num_events']} events, {row['races']} race(s) "
            f"— " + ", ".join(cells) + f", identical={row['identical']}")


def bench_data(
    names: List[str],
    *,
    mode: Optional[str] = None,
    scales: Sequence[str] = ("tiny",),
    repeats: int = 1,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
    **options,
) -> dict:
    """Run every scale × workload in ``mode`` (``None``: Table 2's three
    configurations; otherwise a :data:`~repro.harness.runner.MODES` key,
    with ``options`` passed to its legs) and assemble the document.

    Failures don't abort the sweep: a workload that raises contributes
    an ``{"name": ..., "scale": ..., "error": ...}`` row so the artifact
    still records which rows succeeded.  ``progress`` (a
    :class:`repro.obs.live.ProgressCounter`) ticks once per row.
    """
    spec = MODES[mode] if mode else None
    if spec is not None:
        repeats = max(repeats, spec.min_repeats)
    workloads: List[dict] = []
    for scale in scales:
        for name in names:
            try:
                if spec is None:
                    row = _workload_data(run_benchmark(
                        name, scale, repeats=repeats, verify=verify))
                else:
                    row = run_legs(mode, name, scale, repeats=repeats,
                                   verify=verify, **options)
            except Exception as exc:
                row = {"name": name, "scale": scale,
                       "error": f"{type(exc).__name__}: {exc}"}
                print(f"bench {name}@{scale}: FAILED — {row['error']}",
                      file=out or sys.stderr)
            else:
                print(_row_line(row), file=out)
            workloads.append(row)
            if progress is not None:
                progress.add(1)
    cpu_count = os.cpu_count() or 1
    data = {
        "schema": BENCH_SCHEMA if spec is None else LEGS_SCHEMA,
        "scale": ",".join(scales),
        "repeats": repeats,
        "cpu_count": cpu_count,
        "workloads": workloads,
    }
    if spec is not None:
        data["mode"] = mode
        data["speedup_valid"] = cpu_count > 1 or not spec.multicore
    if not data.get("speedup_valid", True):
        print(
            "=" * 72 + "\n"
            "WARNING: cpu_count == 1 — multi-job and multi-thread wall\n"
            "times on this box measure OVERHEAD, not speedup.  The artifact\n"
            'is tagged "speedup_valid": false; do not read sub-1.0\n'
            "speedups here as regressions.\n" + "=" * 72,
            file=out or sys.stderr,
        )
    if tag is not None:
        data["tag"] = tag
    return data


def check_floors(data: dict, baseline: dict) -> List[str]:
    """Compare a comparison mode's document with a checked-in baseline;
    return violation strings (empty = ok).

    ``baseline["workloads"]`` maps a workload to ``{"leg.field": floor}``
    (rows at other scales than ``baseline["scale"]`` are ignored);
    ``baseline["tolerance"]`` maps a ``"leg.field"`` key to the fraction
    its value may fall below the floor, and a key it does not name must
    reach its floor exactly."""
    want_scale = baseline.get("scale")
    tolerance = baseline.get("tolerance", {})
    rows = {
        w["name"]: w for w in data["workloads"]
        if want_scale is None or w.get("scale") == want_scale
    }
    violations: List[str] = []
    for name, floors in baseline["workloads"].items():
        row = rows.get(name)
        if row is None or "error" in row:
            violations.append(f"{name}: missing from the run")
            continue
        legs = {leg["leg"]: leg for leg in row["legs"]}
        for key, floor in floors.items():
            leg, _, field = key.partition(".")
            measured = legs.get(leg, {}).get(field)
            if measured is None:
                violations.append(f"{name}: {key} not measured")
                continue
            tol = tolerance.get(key, 0.0)
            if measured < floor * (1.0 - tol):
                violations.append(
                    f"{name}: {key} {measured:,.2f} is below the floor "
                    f"{floor:,} (tolerance {tol:.0%})"
                )
    return violations


def check_gates(data: dict, baseline: Optional[dict] = None) -> List[str]:
    """Every reason the run fails, one string each: a workload that
    raised, a leg that broke its mode's verdict identity or errored, a
    leg over the mode's overhead bound, and (with ``baseline``) every
    floor violation."""
    spec = MODES.get(data.get("mode"))
    bound = spec.max_overhead_pct if spec is not None else None
    violations: List[str] = []
    for w in data["workloads"]:
        where = f"{w['name']}@{w['scale']}"
        if "error" in w:
            violations.append(f"{where}: failed — {w['error']}")
            continue
        violations += [f"{where}: {m}" for m in w.get("mismatches", ())]
        if bound is None:
            continue
        for leg in w["legs"]:
            if leg.get("overhead_pct", 0.0) > bound:
                violations.append(
                    f"{where}: {leg['leg']} overhead "
                    f"{leg['overhead_pct']:+.2f}% exceeds the "
                    f"{bound:.1f}% budget"
                )
    if baseline is not None:
        violations += check_floors(data, baseline)
    return violations


def legs_markdown(data: dict) -> str:
    """Render a ``repro.bench.legs/1`` document as a markdown table, one
    row per workload × scale.  Cells show each leg's wall milliseconds
    (its status when it did not complete); a trailing column records the
    verdict identity."""
    legs: List[str] = []
    for w in data["workloads"]:
        for leg in w.get("legs", ()):
            if leg["leg"] not in legs:
                legs.append(leg["leg"])
    lines = [
        "| Workload | Scale | #Events | #Gets | "
        + " | ".join(f"{leg} (ms)" for leg in legs)
        + " | Races | Identical |",
        "|---|---|---:|---:|" + "---:|" * len(legs) + "---:|---|",
    ]
    for w in data["workloads"]:
        if "error" in w:
            lines.append(f"| {w['name']} | {w['scale']} | — | — |"
                         + " error |" * len(legs) + " — | — |")
            continue
        by_leg = {leg["leg"]: leg for leg in w["legs"]}
        cells = [
            f"{by_leg[leg]['seconds'] * 1e3:.1f}"
            if by_leg.get(leg, {}).get("status") == "ok"
            else by_leg.get(leg, {}).get("status", "—")
            for leg in legs
        ]
        lines.append(
            f"| {w['name']} | {w['scale']} | {w['num_events']:,} | "
            f"{w['num_gets']:,} | " + " | ".join(cells)
            + f" | {w['races']} | {'yes' if w['identical'] else 'NO'} |")
    return "\n".join(lines) + "\n"


_SCALES = ("tiny", "small", "table2", "large")


def _parse_scales(text: str) -> List[str]:
    scales = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [s for s in scales if s not in _SCALES]
    if not scales or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated scales from {', '.join(_SCALES)}, "
            f"got {text!r}")
    return scales


def _parse_counts(text: str) -> List[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated counts, got {text!r}")
    if not counts or any(n < 1 for n in counts):
        raise argparse.ArgumentTypeError(
            f"counts must be positive, got {text!r}")
    return list(dict.fromkeys(counts))


_MODE_HELP = {
    "parallel": "check each recorded trace with the sharded checker at "
                "each --jobs count",
    "throughput": "race the single-thread checking legs (detector replay "
                  "/ fast path) over each recorded trace",
    "backends": "race every PRECEDE backend (dtrg / vc) over each "
                "recorded trace",
    "executors": "run each workload live on the serial runtime and the "
                 "work-stealing ThreadRuntime at each --workers size",
    "telemetry": "time the fast check detached and with the live "
                 "telemetry plane served (gated at 5%%)",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", type=_parse_scales, default=["tiny"],
                        metavar="S[,S...]",
                        help="comma list of scales from "
                             f"{', '.join(_SCALES)} (default tiny)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="best-of rounds per leg (at least 2 for "
                             "--throughput/--backends, 3 for --telemetry)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="artifact path (default BENCH_PR4.json, or "
                             "the mode's BENCH_PR5..9.json)")
    modes = parser.add_mutually_exclusive_group()
    for mode, text in _MODE_HELP.items():
        modes.add_argument(f"--{mode}", dest="mode", action="store_const",
                           const=mode, help=text)
    parser.add_argument("--serve-metrics", dest="serve_metrics", type=int,
                        default=None, metavar="PORT",
                        help="serve live /metrics + /snapshot for the "
                             "bench run itself (0 picks an ephemeral "
                             "port, printed to stderr)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECS",
                        help="print a stderr progress line every SECS "
                             "seconds while the sweep runs (0 disables)")
    parser.add_argument("--workers", type=_parse_counts,
                        default=[1, 2, 4], metavar="N,N,...",
                        help="pool sizes for --executors (default 1,2,4)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="with a comparison mode: also render its "
                             "table as markdown to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="with the comparison mode the file names: "
                             "fail if a row falls below its floors")
    parser.add_argument("--jobs", type=_parse_counts, default=[1, 2, 4],
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
    if args.heartbeat < 0:
        print("error: --heartbeat must be >= 0", file=sys.stderr)
        return 2
    if args.markdown and args.mode is None:
        print("error: --markdown requires a comparison mode",
              file=sys.stderr)
        return 2
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        if args.mode is None or baseline.get("mode") != args.mode:
            print(f"error: --baseline {args.baseline} holds floors for "
                  f"--{baseline.get('mode')}", file=sys.stderr)
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
        telemetry.progress.set_total(len(names) * len(args.scale))
        telemetry.progress.set_phase("bench")

    try:
        data = bench_data(
            names, mode=args.mode, scales=args.scale, repeats=args.repeats,
            verify=not args.no_verify, tag=args.tag,
            progress=telemetry.progress if telemetry is not None else None,
            jobs=args.jobs, backend=args.parallel_backend,
            workers=args.workers,
        )
    finally:
        if telemetry is not None:
            telemetry.stop()
    data["violations"] = violations = check_gates(data, baseline)
    output = args.output or (
        MODES[args.mode].output if args.mode else "BENCH_PR4.json")
    with open(output, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(data['workloads'])} workload(s) written to {output}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(legs_markdown(data))
        print(f"markdown table written to {args.markdown}")
    for violation in violations:
        print(f"gate: {violation}", file=sys.stderr)
    if violations:
        print(f"error: {len(violations)} gate violation(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
