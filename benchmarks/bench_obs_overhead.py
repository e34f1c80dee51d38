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

Four configurations, same workload, min-of-N wall time:

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

The run also asserts the Table-2 structural columns, PRECEDE query and
VISIT counts included, are bit-identical across all four configurations
— instrumentation must observe, never perturb.  Exit status 1 on any
violation.
"""

from __future__ import annotations

import argparse
import gc
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale, fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="allowed fractional slowdown of the "
                             "disabled-obs run vs baseline (default 0.05)")
    args = parser.parse_args(argv)

    scale = "tiny" if args.quick else "small"
    repeats = args.repeats or (3 if args.quick else 5)
    params = jacobi.default_params(scale)

    def best(obs_factory) -> tuple:
        best_wall, structure = float("inf"), None
        for _ in range(repeats):
            holder = {}
            wall = _timed(lambda: holder.update(run=_run(params, obs_factory())))
            best_wall = min(best_wall, wall)
            structure = _structure(holder["run"])
        return best_wall, structure

    def best_live() -> tuple:
        """The served configuration: a live sampler + HTTP exporter +
        250 ms self-scraper all running while the detection run executes.
        The detector is pre-built so the sampler can watch it mid-run;
        passing it through ``extra_observers`` with ``detect=False``
        produces the exact observer list ``detect=True`` builds."""
        from repro.core.detector import DeterminacyRaceDetector
        from repro.obs.live import LiveTelemetry, detector_source

        best_wall, structure, scrapes = float("inf"), None, 0
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

        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
        try:
            for _ in range(repeats):
                detector = DeterminacyRaceDetector()
                holder["detector"] = detector
                run_holder = {}
                wall = _timed(lambda: run_holder.update(
                    run=run_instrumented(
                        lambda rt: jacobi.run_future(rt, params),
                        detect=False, extra_observers=(detector,),
                    )
                ))
                best_wall = min(best_wall, wall)
                structure = _structure(run_holder["run"], detector)
        finally:
            stop.set()
            scraper.join(timeout=2.0)
            telemetry.stop()
        return best_wall, structure, scrapes

    base_wall, base_struct = best(lambda: None)
    null_wall, null_struct = best(lambda: NULL_OBSERVABILITY)
    on_wall, on_struct = best(
        lambda: Observability(tracer=RingTracer(), registry=MetricsRegistry())
    )
    live_wall, live_struct, live_scrapes = best_live()

    overhead = (null_wall - base_wall) / base_wall if base_wall else 0.0
    live_overhead = (live_wall - base_wall) / base_wall if base_wall else 0.0
    enabled_x = on_wall / base_wall if base_wall else 0.0
    print(f"jacobi scale={scale} repeats={repeats}")
    print(f"  baseline (no obs):        {base_wall * 1e3:9.1f} ms")
    print(f"  NULL_OBSERVABILITY:       {null_wall * 1e3:9.1f} ms "
          f"({overhead:+.1%} vs baseline)")
    print(f"  enabled (trace+metrics):  {on_wall * 1e3:9.1f} ms "
          f"({enabled_x:.2f}x baseline)")
    print(f"  live (sampler+exporter):  {live_wall * 1e3:9.1f} ms "
          f"({live_overhead:+.1%} vs baseline, "
          f"{live_scrapes} scrape(s))")

    # The gate is relative, but on sub-10ms legs (--quick) a few percent
    # is below scheduler jitter on a loaded box — allow 1 ms of absolute
    # slack so the smoke run measures the code, not the timer.
    slack = max(args.max_overhead * base_wall, 1e-3)

    ok = True
    if not (base_struct == null_struct == on_struct == live_struct):
        print("FAIL: structural columns differ across obs configurations:"
              f"\n  baseline {base_struct}\n  null     {null_struct}"
              f"\n  enabled  {on_struct}\n  live     {live_struct}")
        ok = False
    if null_wall - base_wall > slack:
        print(f"FAIL: disabled-obs overhead {overhead:.1%} exceeds "
              f"{args.max_overhead:.0%}")
        ok = False
    if live_wall - base_wall > slack:
        print(f"FAIL: live-telemetry overhead {live_overhead:.1%} exceeds "
              f"{args.max_overhead:.0%}")
        ok = False
    if ok:
        print(f"PASS: disabled path and live telemetry within "
              f"{args.max_overhead:.0%}, structure bit-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
