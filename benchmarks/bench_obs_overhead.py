"""Observability overhead: disabled tracing must cost (close to) nothing.

The :mod:`repro.obs` layer is wired through the hottest code in the
repository — ``precede``, the shadow-memory checks, every runtime
boundary.  Its design promise is the null-object protocol: with ``obs``
unset (or :data:`~repro.obs.NULL_OBSERVABILITY`) no hook point installs
anything, so the executed bytecode is the pre-observability code path.
This benchmark holds the layer to that promise on the Jacobi workload
(the future-heavy stencil whose detection run is access-dominated),
runnable standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]

Four configurations, same workload, min-of-N wall time (N = 9 by
default):

1. **baseline** — detector run exactly as before this layer existed;
2. **null**     — ``obs=NULL_OBSERVABILITY`` threaded through runtime and
   detector (must be within ``--max-overhead`` of baseline, default 5%);
3. **enabled**  — full metrics + ring tracer (reported for context, not
   asserted: tracing is allowed to cost what it costs).  An attached
   ``obs`` observes the same kernel the other three configurations run,
   over the traced flat-array graph, with the kernel's access hook
   reporting each access when its block is checked;
4. **live**     — the PR 9 telemetry plane at its worst: a 250 ms
   :class:`~repro.obs.live.RuntimeSampler` with the detector attached as
   a source, the HTTP exporter bound to an ephemeral port, and an
   in-process client scraping ``/metrics`` every 250 ms, all running
   *while the detector executes* (also gated at ``--max-overhead`` vs
   baseline — the sampler reads counters the hot path already maintains,
   so serving metrics must not slow the run it observes).

The legs are interleaved: every repeat times each configuration once, in
an order that rotates from repeat to repeat, and each leg keeps its best
sample.  A sample repeats the run until the baseline takes at least
``MIN_SAMPLE_S`` (40 ms), so on the tiny ``--quick`` scale, whose single
run takes about 2 ms, the relative bound decides and not the timer's
jitter.

The run also asserts the Table-2 structural columns, PRECEDE query and
VISIT counts included, are bit-identical across all four configurations
— instrumentation must observe, never perturb.  Exit status 1 on any
violation.
"""

from __future__ import annotations

import argparse
import gc
import threading
import time
import urllib.request

from repro.obs import NULL_OBSERVABILITY, MetricsRegistry, Observability, RingTracer
from repro.workloads import jacobi
from repro.workloads.common import run_instrumented


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _run(params, obs):
    return run_instrumented(
        lambda rt: jacobi.run_future(rt, params), detect=True, obs=obs
    )


def _structure(run, detector=None) -> tuple:
    det = detector if detector is not None else run.detector
    m = run.metrics
    return (
        m.num_tasks,
        m.num_nt_joins,
        m.num_shared_accesses,
        det.dtrg.num_precede_queries,
        det.dtrg.num_visits,
        round(det.avg_readers, 12),
        len(det.races),
    )


#: Shortest baseline sample, in seconds: a sample runs the workload
#: ``runs`` times, the fewest power of two whose baseline reaches this.
MIN_SAMPLE_S = 0.040


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="allowed fractional slowdown of the "
                             "disabled-obs run vs baseline (default 0.05)")
    args = parser.parse_args(argv)

    scale = "tiny" if args.quick else "small"
    repeats = args.repeats or 9
    params = jacobi.default_params(scale)

    def plain(obs_factory):
        def sample() -> tuple:
            holder = {}

            def body():
                for _ in range(runs):
                    holder["run"] = _run(params, obs_factory())

            return _timed(body), _structure(holder["run"])
        return sample

    scrapes = 0

    def live() -> tuple:
        """The served configuration: a live sampler + HTTP exporter +
        250 ms self-scraper all running while the detection runs
        execute, started and stopped outside the timed region.  Each
        detector is pre-built so the sampler can watch it mid-run;
        passing it through ``extra_observers`` with ``detect=False``
        produces the exact observer list ``detect=True`` builds."""
        from repro.core.detector import DeterminacyRaceDetector
        from repro.obs.live import LiveTelemetry, detector_source

        nonlocal scrapes
        holder = {}
        telemetry = LiveTelemetry(port=0, interval=0.25)
        telemetry.add_source(
            lambda: detector_source(holder["detector"])()
            if "detector" in holder else {}
        )
        telemetry.start()
        stop = threading.Event()

        def scrape_loop():
            nonlocal scrapes
            url = f"{telemetry.url}/metrics"
            while True:
                try:
                    with urllib.request.urlopen(url, timeout=2.0) as resp:
                        resp.read()
                    scrapes += 1
                except OSError:
                    pass
                if stop.wait(0.25):
                    return

        def body():
            for _ in range(runs):
                holder["detector"] = DeterminacyRaceDetector()
                holder["run"] = run_instrumented(
                    lambda rt: jacobi.run_future(rt, params),
                    detect=False, extra_observers=(holder["detector"],),
                )

        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
        try:
            wall = _timed(body)
        finally:
            stop.set()
            scraper.join(timeout=2.0)
            telemetry.stop()
        return wall, _structure(holder["run"], holder["detector"])

    # Size the samples: double the runs until a baseline sample is long
    # enough (these calibration samples are not timed results).
    runs = 1
    while plain(lambda: None)()[0] < MIN_SAMPLE_S:
        runs *= 2

    legs = {
        "baseline": plain(lambda: None),
        "null": plain(lambda: NULL_OBSERVABILITY),
        "enabled": plain(lambda: Observability(
            tracer=RingTracer(), registry=MetricsRegistry())),
        "live": live,
    }
    names = list(legs)
    best = {name: float("inf") for name in names}
    structures = {}
    for rep in range(repeats):
        for name in names[rep % len(names):] + names[:rep % len(names)]:
            wall, structures[name] = legs[name]()
            best[name] = min(best[name], wall)

    base_wall, null_wall = best["baseline"], best["null"]
    on_wall, live_wall = best["enabled"], best["live"]
    overhead = (null_wall - base_wall) / base_wall if base_wall else 0.0
    live_overhead = (live_wall - base_wall) / base_wall if base_wall else 0.0
    enabled_x = on_wall / base_wall if base_wall else 0.0
    print(f"jacobi scale={scale} repeats={repeats} runs/sample={runs}")
    print(f"  baseline (no obs):        {base_wall * 1e3:9.1f} ms")
    print(f"  NULL_OBSERVABILITY:       {null_wall * 1e3:9.1f} ms "
          f"({overhead:+.1%} vs baseline)")
    print(f"  enabled (trace+metrics):  {on_wall * 1e3:9.1f} ms "
          f"({enabled_x:.2f}x baseline)")
    print(f"  live (sampler+exporter):  {live_wall * 1e3:9.1f} ms "
          f"({live_overhead:+.1%} vs baseline, "
          f"{scrapes} scrape(s))")

    ok = True
    if len(set(structures.values())) != 1:
        print("FAIL: structural columns differ across obs configurations:"
              + "".join(f"\n  {name:<8} {structures[name]}"
                        for name in names))
        ok = False
    if overhead > args.max_overhead:
        print(f"FAIL: disabled-obs overhead {overhead:.1%} exceeds "
              f"{args.max_overhead:.0%}")
        ok = False
    if live_overhead > args.max_overhead:
        print(f"FAIL: live-telemetry overhead {live_overhead:.1%} exceeds "
              f"{args.max_overhead:.0%}")
        ok = False
    if ok:
        print(f"PASS: disabled path and live telemetry within "
              f"{args.max_overhead:.0%}, structure bit-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
