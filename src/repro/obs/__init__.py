"""Runtime observability: structured tracing + performance metrics.

The paper's evaluation is built on structural counters (Table 2); the perf
layer (PRECEDE memo, shadow fast paths) needs *distributional* visibility
— where time goes inside a run, which queries pay the backward ``_explore``
search, how reader-set populations evolve per location.  This package
provides that, following the per-operation cost-breakdown methodology of
Utterback et al. (*Efficient Race Detection with Futures*) and Westrick et
al. (*DePa*):

* :mod:`repro.obs.trace` — a low-overhead span/event tracer
  (:class:`RingTracer`) recording task spawn/terminate, finish enter/exit,
  ``get()`` joins, shadow-memory checks, DTRG mutations and PRECEDE queries
  into a bounded ring buffer, exportable as Chrome trace-event JSON
  loadable in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.metrics` — a registry of counters and fixed-bucket
  histograms (PRECEDE latency, ``_explore`` frontier size, per-cell reader
  population) dumpable as JSON
  and renderable by :func:`repro.harness.report.render_metrics`;
* :mod:`repro.obs.hooks` — :class:`Observability`, the bundle the hook
  points in ``core/array_dtrg.py`` (``TracedArrayDTRG``),
  ``core/detector.py``, ``runtime/runtime.py`` and
  ``runtime/workstealing.py`` call into, plus the
  :data:`NULL_OBSERVABILITY` null object.  Hook points are *detached by
  default*: a component without an attached (enabled) observability object
  runs the exact pre-observability code path — the disabled cost is
  asserted by ``benchmarks/bench_obs_overhead.py``;
* :mod:`repro.obs.validate` — a schema checker for trace-event JSON and
  race-witness JSON (``python -m repro.obs.validate FILE.json``), used by
  tests and CI;
* :mod:`repro.obs.provenance` — race provenance: a bounded access-site
  flight recorder (:class:`RaceProvenance`) attributing every spawn /
  ``get`` / read / write to its source call site, and machine-checkable
  :class:`RaceWitness` certificates, rebuilt after the check by one pass
  over the recorded columns (:func:`explain_races`), that explain *why*
  two accesses are unordered (interval labels, set representatives, the
  LSA chain and the exhausted VISIT frontier);
* :mod:`repro.obs.report_html` — self-contained HTML race reports
  (``repro-racecheck --html``) combining races, witnesses, the flight
  recorder tail and a witness-overlaid DOT graph;
* :mod:`repro.obs.live` — the live telemetry plane
  (:class:`LiveTelemetry`): an in-process HTTP exporter (``/metrics``
  in Prometheus text exposition, ``/healthz``, ``/snapshot``), a
  periodic :class:`RuntimeSampler` over detector/runtime state, a
  shared :class:`ProgressCounter` the batched checkers bump, and the
  stderr heartbeat behind ``--serve-metrics`` / ``--heartbeat`` on the
  CLI tools (ALGORITHM.md §16);
* :mod:`repro.obs.exposition` — the Prometheus text renderer behind
  ``/metrics`` plus a strict promtool-style validator
  (``python -m repro.obs.exposition FILE``) used by tests and CI.

Capture a trace from the CLI::

    repro-racecheck prog.py --perfetto out.json --metrics-json metrics.json

then open ``out.json`` at https://ui.perfetto.dev (or ``chrome://tracing``).
"""

from repro.obs.exposition import parse_exposition, render_exposition
from repro.obs.hooks import NULL_OBSERVABILITY, Observability
from repro.obs.live import (
    LiveTelemetry,
    ProgressCounter,
    RuntimeSampler,
    TelemetryServer,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    quantile_from_dump,
)
from repro.obs.provenance import (
    RaceProvenance,
    RaceWitness,
    confirm_witness,
    explain_races,
    render_witness_text,
    witness_report_data,
)
from repro.obs.report_html import render_html_report
from repro.obs.trace import RingTracer
from repro.obs.validate import (
    validate_chrome_trace,
    validate_witness,
    validate_witness_report,
)

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RaceProvenance",
    "RaceWitness",
    "RingTracer",
    "confirm_witness",
    "explain_races",
    "render_witness_text",
    "render_html_report",
    "witness_report_data",
    "validate_chrome_trace",
    "validate_witness",
    "validate_witness_report",
    "LiveTelemetry",
    "ProgressCounter",
    "RuntimeSampler",
    "TelemetryServer",
    "render_exposition",
    "parse_exposition",
    "quantile_from_dump",
]
