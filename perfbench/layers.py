"""The traced run: each layer called on its own, one span per call.

The end-to-end paths interleave their layers inside one program run, so
the traced run calls them one at a time instead, in layer order, over the
same workload units, and wraps every call in a span (name, start, end,
parent) kept in memory until the run ends.  Times come from these spans,
measured from outside the library; the sub-phase timings that
``check_trace_fast`` and ``check_trace_parallel`` return are reported
as they are and labelled program-reported.  Counts come from the
library's own public counters.

Two layers are defined as differences, because the library offers no
call that runs them alone: ``tracer.record_s`` is the recording run minus
the bare ``Runtime`` run, and ``parallel_detector.check_s`` is the
``ThreadRuntime`` run with a ``ParallelRaceDetector`` minus the bare
``ThreadRuntime`` run.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro import DeterminacyRaceDetector, ParallelRaceDetector
from repro.core.events import encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.harness.metrics import MetricsCollector
from repro.memory.tracer import replay_trace

from paths import record

#: Which layer spans make up each checking path.  Their summed self
#: times, over the path's untraced time, say how much of that time the
#: layers account for.
PATH_LAYERS = {
    "serial": ("runtime.run", "detector.replay", "races.summary"),
    "fast": ("tracer.record", "events.encode", "fastcheck.check",
             "races.summary"),
    "jobs": ("tracer.record", "parallel_check.check", "races.summary"),
    "threads": ("parallel_detector.run", "races.summary"),
}


class SpanRecorder:
    """In-memory spans: ``[id, name, start, end, parent_id]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, name, perf_counter(), None, parent])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][3] = perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus the part of
        it its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for sid, name, start, end, _parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[sid]
        return totals

    def durations(self, name: str) -> float:
        return sum(end - start for _sid, n, start, end, _p in self.spans
                   if n == name)

    def chrome_trace(self, process_name: str) -> dict:
        """Chrome trace-event JSON: one complete (``X``) event per span,
        timestamps in microseconds from the first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [{
            "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
            "args": {"name": process_name},
        }]
        for sid, name, start, end, parent in self.spans:
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"span_id": sid, "parent_id": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_layers(workload, n: int, spans: SpanRecorder) -> Dict[str, float]:
    """Call every layer over every unit of ``workload`` under ``spans`` and
    return the per-layer metrics (``n`` is the jobs and workers count)."""
    units = workload.units
    span = spans.span
    m: Dict[str, float] = {}

    def each(name: str, fn, items) -> list:
        gc.collect()
        out = []
        for item in items:
            with span(name):
                out.append(fn(item))
        return out

    with span("perfbench.layers"):
        each("workloads.seq", workload.seq, units)
        each("runtime.run", lambda u: workload.run(u, [], None), units)

        gen2 = gc.get_stats()[2]["collections"]
        recorded = each("tracer.record", lambda u: record(workload, u), units)
        m["tracer.gc_gen2"] = gc.get_stats()[2]["collections"] - gen2

        encoded = each("events.encode", lambda r: encode_trace(r[0]), recorded)
        fast = each("fastcheck.check",
                    lambda pair: check_trace_fast(pair[0], names=pair[1][1]),
                    list(zip(encoded, recorded)))

        def replay(rec):
            detector = DeterminacyRaceDetector()
            replay_trace(rec[0], [detector])
            return detector

        replayed = each("detector.replay", replay, recorded)
        each("races.summary", lambda d: d.report.summary(), replayed)
        sharded = each(
            "parallel_check.check",
            lambda r: check_trace_parallel(r[0], jobs=n, names=r[1]),
            recorded,
        )
        bare = each("executor.run",
                    lambda u: workload.run(u, [], n)[0], units)

        def online(unit):
            detector = ParallelRaceDetector()
            workload.run(unit, [detector], n)
            return detector

        detectors = each("parallel_detector.run", online, units)

    # A fresh collector per trace keeps its ancestor test per program.
    counters = []
    for trace, _names, _result in recorded:
        counters.append(MetricsCollector())
        replay_trace(trace, [counters[-1]])

    m["workloads.seq_s"] = spans.durations("workloads.seq")
    m["runtime.run_s"] = spans.durations("runtime.run")
    m["runtime.tasks"] = sum(c.num_tasks for c in counters)
    m["runtime.gets"] = sum(c.num_gets for c in counters)
    m["runtime.nt_joins"] = sum(c.num_nt_joins for c in counters)
    m["tracer.record_s"] = spans.durations("tracer.record") - m["runtime.run_s"]
    m["tracer.events"] = sum(len(r[0]) for r in recorded)
    m["events.encode_s"] = spans.durations("events.encode")
    m["events.locations"] = sum(e.num_locations for e in encoded)
    m["events.encoded_bytes"] = sum(
        e.access.itemsize * len(e.access) + e.runs.itemsize * len(e.runs)
        + len(e.is_future) for e in encoded
    )

    accesses = sum(f.num_accesses for f in fast)
    m["fastcheck.check_s"] = spans.durations("fastcheck.check")
    m["fastcheck.structure_s"] = sum(
        f.timings["structure_seconds"] for f in fast)
    m["fastcheck.access_s"] = sum(f.timings["access_seconds"] for f in fast)
    m["fastcheck.precede_queries"] = sum(f.num_precede_queries for f in fast)
    m["fastcheck.fast_hit_ratio"] = _ratio(
        sum(f.shadow_fast_hits for f in fast), accesses)
    m["fastcheck.avg_readers"] = _ratio(
        sum(f.total_readers_seen for f in fast), accesses)
    m["dtrg.visits"] = sum(f.num_visits for f in fast)
    m["dtrg.nt_edges"] = sum(f.num_non_tree_edges for f in fast)
    m["dtrg.mutation_epoch"] = sum(f.mutation_epoch for f in fast)

    perf = [d.perf_stats for d in replayed]
    hits = sum(p["cache_hits"] for p in perf)
    m["detector.replay_s"] = spans.durations("detector.replay")
    m["detector.precede_queries"] = sum(p["precede_queries"] for p in perf)
    m["detector.cache_hit_ratio"] = _ratio(
        hits, hits + sum(p["cache_misses"] for p in perf))
    m["detector.precede_calls_saved"] = sum(
        p["precede_calls_saved"] for p in perf)

    m["parallel_check.total_s"] = spans.durations("parallel_check.check")
    for phase in ("build", "freeze", "check", "merge", "max_shard"):
        m[f"parallel_check.{phase}_s"] = sum(
            s.timings[f"{phase}_seconds"] for s in sharded)

    m["executor.run_s"] = spans.durations("executor.run")
    m["executor.pool_size"] = max(rt.pool_size for rt in bare)
    m["executor.steals"] = sum(rt.steals for rt in bare)
    m["executor.compensation_threads"] = sum(
        rt.compensation_threads for rt in bare)
    m["parallel_detector.check_s"] = (
        spans.durations("parallel_detector.run") - m["executor.run_s"])
    stripes = [sum(col) for col in zip(*(d.stripe_counts for d in detectors))]
    m["parallel_detector.stripe_max_share"] = _ratio(max(stripes), sum(stripes))

    m["races.reported"] = sum(len(d.report.races) for d in replayed)
    m["races.racy_locations"] = sum(
        len(d.report.racy_locations) for d in replayed)
    m["races.summary_s"] = spans.durations("races.summary")
    return m


def coverage(self_times: Dict[str, float],
             untraced: Dict[str, Optional[float]]) -> Dict[str, float]:
    """Per path, the layers' summed self times over the path's untraced
    time (1.0 means the layers add up to the end-to-end time)."""
    out = {}
    for path, layers in PATH_LAYERS.items():
        total = untraced.get(path)
        if total:
            out[f"coverage.{path}"] = (
                sum(self_times.get(name, 0.0) for name in layers) / total)
    return out
