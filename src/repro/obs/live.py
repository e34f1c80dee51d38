"""The live telemetry plane: pull-based metrics for long-running checks.

Three cooperating pieces, all optional and all detachable (the PR 3
contract — a run without telemetry executes byte-identically):

:class:`ProgressCounter`
    A shared, lock-guarded progress cell the batched checkers
    (:func:`repro.core.fastcheck.check_trace_fast`,
    :func:`repro.core.parallel_check.check_trace_parallel`) and the fuzz
    driver bump as they go.  Increments are coarse (one per run-length
    block / seed, never per access) so the hot loops stay hot.

:class:`RuntimeSampler`
    A daemon thread that every ``interval`` seconds (default 250 ms)
    calls a set of *source* callables — each returns a flat dict of
    gauge values — and swaps the merged result in atomically.  Sources
    read live detector/runtime state **without taking the subject's
    locks**: shadow-cell counts, DTRG sizes, deque depths and bucket
    counters are plain attribute reads of values that only ever grow, so
    a torn read costs accuracy (a gauge may lag by one increment), never
    correctness.  That is why every gauge here is documented as
    *approximate*.  (``ParallelRaceDetector``'s queries are the one
    exception: they first check its buffered accesses under the
    detector's own lock, which no access hook takes.)  The sampler
    also maintains an events/s EWMA from deltas between consecutive
    samples.

:class:`TelemetryServer` / :class:`LiveTelemetry`
    ``LiveTelemetry`` is the facade the CLI tools construct for
    ``--serve-metrics PORT``: it owns the progress counter, the sampler,
    an optional :class:`http.server.ThreadingHTTPServer` (``/metrics``
    in Prometheus text exposition, ``/healthz``, ``/snapshot`` as JSON)
    and the stderr heartbeat line.  Bind to port 0 to get an ephemeral
    port (``.url`` reports the resolved address) — the test suite and
    the CI ``obs-live`` job rely on that.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.exposition import DEFAULT_PREFIX, render_exposition

__all__ = [
    "ProgressCounter",
    "RuntimeSampler",
    "TelemetryServer",
    "LiveTelemetry",
    "detector_source",
    "thread_runtime_source",
    "tracer_source",
]

#: Rough shadow-state footprint per shared location, whichever checker
#: keeps it: the kernel's per-location column slots (writer, reader list,
#: fast-path memo) plus the location key and its dense-id entry, or a
#: shadow cell object.  Deliberately a constant: the sampler
#: must not walk the shadow state, so ``approx_bytes`` is cells × this.
APPROX_SHADOW_CELL_BYTES = 512


class ProgressCounter:
    """Monotonic progress shared between a checker and the telemetry
    plane.  ``add`` is taken under a lock — callers bump it per *block*
    (run-length segment, shard, seed), never per event, so contention is
    negligible and snapshots are always coherent."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._start = clock()
        self.events = 0
        self.races = 0
        self.total: Optional[int] = None
        self.phase = ""

    # ------------------------------------------------------------------ #
    def add(self, n: int = 1) -> None:
        with self._lock:
            self.events += n

    def add_races(self, n: int = 1) -> None:
        with self._lock:
            self.races += n

    def set_total(self, total: Optional[int]) -> None:
        with self._lock:
            self.total = total

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self.phase = phase

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            elapsed = self._clock() - self._start
            events = self.events
            total = self.total
            rate = events / elapsed if elapsed > 0 else 0.0
            eta = None
            if total and rate > 0 and total > events:
                eta = (total - events) / rate
            return {
                "events": events,
                "total": total,
                "races": self.races,
                "phase": self.phase,
                "elapsed_seconds": elapsed,
                "events_per_second": rate,
                "eta_seconds": eta,
            }


class RuntimeSampler:
    """Periodic gauge sampler.  ``add_source(fn)`` registers a callable
    returning a flat ``{name: value}`` mapping; every tick the sampler
    merges all sources and swaps the result in as one dict (readers see
    either the old or the new sample, never a half-merge).  A source
    that raises is dropped from that tick only — a detector mid-teardown
    must not kill the telemetry thread."""

    #: EWMA smoothing factor for the derived rate gauges.
    ALPHA = 0.3

    def __init__(
        self,
        interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampler interval must be > 0")
        self.interval = interval
        self._clock = clock
        self._sources: List[Callable[[], Mapping[str, Any]]] = []
        self._gauges: Dict[str, Any] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples_total = 0
        # EWMA state: previous (t, events).
        self._prev_t: Optional[float] = None
        self._prev_events = 0
        self._rate_ewma: Optional[float] = None

    # ------------------------------------------------------------------ #
    def add_source(self, fn: Callable[[], Mapping[str, Any]]) -> None:
        self._sources.append(fn)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def gauges(self) -> Dict[str, Any]:
        """The most recent merged sample (a copy)."""
        return dict(self._gauges)

    # ------------------------------------------------------------------ #
    def sample_once(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for fn in list(self._sources):
            try:
                merged.update(fn())
            except Exception:
                continue
        self._derive_rates(merged)
        self.samples_total += 1
        merged["sampler_samples_total"] = self.samples_total
        self._gauges = merged
        return merged

    def _derive_rates(self, merged: Dict[str, Any]) -> None:
        now = self._clock()
        events = merged.get("progress_events")
        if not events:
            events = merged.get("detector_accesses", 0) or 0
        if self._prev_t is not None:
            dt = now - self._prev_t
            if dt > 0:
                rate = max(events - self._prev_events, 0) / dt
                self._rate_ewma = (
                    rate
                    if self._rate_ewma is None
                    else self.ALPHA * rate + (1 - self.ALPHA) * self._rate_ewma
                )
        self._prev_t = now
        self._prev_events = events
        if self._rate_ewma is not None:
            merged["events_per_second_ewma"] = self._rate_ewma

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample_once()
            self._stop.wait(self.interval)


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /snapshot; 404 otherwise; silent log."""

    server_version = "repro-live/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 - silence stdlib logging
        pass

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        telemetry = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = telemetry.render_metrics().encode()
                self._send(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
            elif path == "/healthz":
                self._send(200, "text/plain; charset=utf-8", b"ok\n")
            elif path == "/snapshot":
                body = json.dumps(
                    telemetry.snapshot(), indent=2, sort_keys=True,
                    default=str,
                ).encode()
                self._send(200, "application/json", body + b"\n")
            else:
                self._send(404, "text/plain; charset=utf-8", b"not found\n")
        except BrokenPipeError:  # scraper went away mid-reply
            pass


class _Server(ThreadingHTTPServer):
    """Serves each connection on a daemon thread and keeps the thread
    and its socket, so :meth:`TelemetryServer.stop` can end idle
    keep-alive connections and wait for responses already started.
    (The stdlib server keeps no daemon handler thread, and its
    ``server_close`` joins none.)"""

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self.connections: Dict[threading.Thread, socket.socket] = {}

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        # Only the serving thread calls this, and stop() reads the map
        # after that thread has finished.
        self.connections = {
            t: sock for t, sock in self.connections.items() if t.is_alive()
        }
        self.connections[thread] = request
        thread.start()


class TelemetryServer:
    """A :class:`ThreadingHTTPServer` bound at construction (so port 0
    resolves immediately) and served from a daemon thread."""

    #: How long :meth:`stop` waits, in all, for responses in flight.
    STOP_GRACE_SECONDS = 5.0

    def __init__(self, telemetry: "LiveTelemetry", port: int,
                 host: str = "127.0.0.1") -> None:
        self._httpd = _Server((host, port), _Handler)
        self._httpd.telemetry = telemetry  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, then let every response already started
        finish (for at most :attr:`STOP_GRACE_SECONDS` in all) before
        closing.  Shutting the read side of each connection wakes a
        handler idle between keep-alive requests at once, and leaves a
        response being written whole."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._thread = None
        deadline = time.monotonic() + self.STOP_GRACE_SECONDS
        for thread, sock in self._httpd.connections.items():
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:  # the handler already closed it
                pass
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._httpd.server_close()


# --------------------------------------------------------------------- #
# Sampler sources
# --------------------------------------------------------------------- #
def detector_source(detector) -> Callable[[], Dict[str, Any]]:
    """Gauges from any detector shape we ship: the serial
    :class:`~repro.core.detector.DeterminacyRaceDetector` (its own
    location and access counts, current as of the kernel's last resume,
    which under ``COLLECT`` comes once per batch of column entries, plus
    DTRG sizes),
    the schedule-robust
    :class:`~repro.core.parallel_detector.ParallelRaceDetector` (clock
    table and checked accesses; its queries first check the buffered
    accesses, under the detector's own lock, never an access path's),
    and the checker result objects (races + perf counters).  Missing
    attributes are simply skipped, so one source works across all of
    them."""

    def sample() -> Dict[str, Any]:
        g: Dict[str, Any] = {}
        if hasattr(detector, "num_locations"):
            cells = detector.num_locations
            g["shadow_cells"] = cells
            g["shadow_approx_bytes"] = cells * APPROX_SHADOW_CELL_BYTES
            g["detector_accesses"] = detector.num_accesses
        dtrg = getattr(detector, "dtrg", None)
        if dtrg is not None:
            g["dtrg_tasks"] = len(getattr(dtrg, "keys", ()))
            for attr, name in (
                ("num_non_tree_edges", "dtrg_non_tree_edges"),
                ("num_tree_merges", "dtrg_tree_merges"),
                ("num_precede_queries", "precede_queries"),
                ("mutation_epoch", "dtrg_mutation_epoch"),
            ):
                value = getattr(dtrg, attr, None)
                if value is not None:
                    g[name] = value
        stats = getattr(detector, "perf_stats", None)
        if isinstance(stats, Mapping):  # ParallelRaceDetector property
            for key in ("num_accesses", "num_locations", "num_tasks",
                        "mutation_epoch"):
                if key in stats:
                    g[f"pardet_{key}"] = stats[key]
            if "num_locations" in stats:
                g.setdefault("shadow_cells", stats["num_locations"])
                g.setdefault(
                    "shadow_approx_bytes",
                    stats["num_locations"] * APPROX_SHADOW_CELL_BYTES,
                )
            if "num_accesses" in stats:
                g.setdefault("detector_accesses", stats["num_accesses"])
        races = getattr(detector, "races", None)
        if races is not None:
            try:
                g["races_detected"] = len(races)
            except TypeError:
                pass
        return g

    return sample


def thread_runtime_source(runtime) -> Callable[[], Dict[str, Any]]:
    """Gauges from a :class:`~repro.runtime.executor.ThreadRuntime`:
    per-worker deque depths (sum/max on /metrics, the full vector in
    /snapshot) and steal/block/compensation/inlined counters.  All reads
    are lock-free and approximate by design (ALGORITHM.md §16)."""

    def sample() -> Dict[str, Any]:
        g: Dict[str, Any] = {}
        depths = getattr(runtime, "deque_depths", None)
        if callable(depths):
            vector = depths()
            g["worker_deque_depths"] = vector  # list → /snapshot only
            g["worker_deque_depth_sum"] = sum(vector)
            g["worker_deque_depth_max"] = max(vector) if vector else 0
        for attr, name in (
            ("steals", "exec_steals_total"),
            ("failed_steals", "exec_failed_steals_total"),
            ("compensation_threads", "exec_compensation_threads_total"),
            ("inlined", "exec_inlined_total"),
            ("blocked", "exec_blocked_tasks"),
            ("num_tasks", "exec_tasks"),
            ("pool_size", "exec_pool_size"),
        ):
            value = getattr(runtime, attr, None)
            if value is not None:
                g[name] = value
        return g

    return sample


def tracer_source(tracer) -> Callable[[], Dict[str, Any]]:
    """Ring-buffer health: drops (``obs_trace_dropped_total``, the
    satellite-pinned name) and capacity."""

    def sample() -> Dict[str, Any]:
        return {
            "obs_trace_dropped_total": tracer.dropped,
            "obs_trace_capacity": tracer.capacity,
        }

    return sample


# --------------------------------------------------------------------- #
class LiveTelemetry:
    """Facade tying progress + sampler + exporter + heartbeat together.

    Parameters
    ----------
    registry / tracer:
        The run's :class:`~repro.obs.metrics.MetricsRegistry` and
        :class:`~repro.obs.trace.RingTracer`, when observability is on —
        the registry renders into ``/metrics``, the tracer contributes
        the drop gauges.  Both optional: the telemetry plane works on
        otherwise-uninstrumented runs.
    port:
        ``None`` → no HTTP server (sampler + heartbeat only).  ``0`` →
        ephemeral port, resolved at construction.
    interval:
        Sampler cadence in seconds (default 0.25).
    heartbeat:
        Seconds between stderr heartbeat lines; 0 disables.  The
        heartbeat rides on the sampler thread, so it needs
        ``interval <= heartbeat`` to fire on time.
    """

    def __init__(
        self,
        registry=None,
        tracer=None,
        *,
        port: Optional[int] = None,
        interval: float = 0.25,
        heartbeat: float = 0.0,
        prefix: str = DEFAULT_PREFIX,
        heartbeat_stream=None,
    ) -> None:
        self.registry = registry
        self.prefix = prefix
        self.progress = ProgressCounter()
        self.sampler = RuntimeSampler(interval)
        self.heartbeat = heartbeat
        self._hb_stream = heartbeat_stream
        self._hb_last = 0.0
        self.server: Optional[TelemetryServer] = None
        if port is not None:
            self.server = TelemetryServer(self, port)
        if tracer is not None:
            self.attach_tracer(tracer)
        self.sampler.add_source(self._progress_source)
        if heartbeat > 0:
            self.sampler.add_source(self._heartbeat_tick)

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def add_source(self, fn: Callable[[], Mapping[str, Any]]) -> None:
        self.sampler.add_source(fn)

    def attach_detector(self, detector) -> None:
        self.sampler.add_source(detector_source(detector))

    def attach_runtime(self, runtime) -> None:
        if hasattr(runtime, "deque_depths") or hasattr(runtime, "steals"):
            self.sampler.add_source(thread_runtime_source(runtime))

    def attach_tracer(self, tracer) -> None:
        self.sampler.add_source(tracer_source(tracer))

    @classmethod
    def from_observability(cls, obs, **kwargs) -> "LiveTelemetry":
        """Build a telemetry plane sharing an
        :class:`~repro.obs.hooks.Observability` bundle's registry and
        tracer, so ``/metrics`` serves the same counters the post-mortem
        ``--metrics-json`` dump would contain."""
        registry = getattr(obs, "registry", None)
        tracer = getattr(obs, "tracer", None)
        return cls(registry=registry, tracer=tracer, **kwargs)

    # ------------------------------------------------------------------ #
    # Internal sources
    # ------------------------------------------------------------------ #
    def _progress_source(self) -> Dict[str, Any]:
        snap = self.progress.snapshot()
        # ``progress_events`` feeds the sampler's rate EWMA; the
        # canonical progress counters/gauges on /metrics come from the
        # ``progress=`` snapshot in render_exposition (kept distinct so
        # the two never emit duplicate series).
        g: Dict[str, Any] = {
            "progress_events": snap["events"],
            "progress_races": snap["races"],
        }
        if snap["eta_seconds"] is not None:
            g["progress_eta_seconds"] = snap["eta_seconds"]
        return g

    def _heartbeat_tick(self) -> Dict[str, Any]:
        now = time.monotonic()
        if now - self._hb_last >= self.heartbeat:
            self._hb_last = now
            self._emit_heartbeat()
        return {}

    def _emit_heartbeat(self) -> None:
        snap = self.progress.snapshot()
        gauges = self.sampler.gauges
        rate = gauges.get(
            "events_per_second_ewma", snap["events_per_second"]
        )
        parts = [f"events={snap['events']}"]
        if snap["total"]:
            pct = 100.0 * snap["events"] / snap["total"]
            parts[0] += f"/{snap['total']} ({pct:.1f}%)"
        parts.append(f"races={snap['races']}")
        if rate:
            parts.append(f"rate={rate:.3g}/s")
        eta = snap["eta_seconds"]
        if eta is not None:
            parts.append(f"eta={eta:.1f}s")
        parts.append(f"elapsed={snap['elapsed_seconds']:.1f}s")
        if snap["phase"]:
            parts.insert(0, f"phase={snap['phase']}")
        stream = self._hb_stream if self._hb_stream is not None else sys.stderr
        print("[live] " + " ".join(parts), file=stream, flush=True)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        """The /metrics payload.  Gauges whose values are not scalars
        (e.g. the per-worker deque-depth vector) appear only in the JSON
        /snapshot."""
        if not self.sampler.running:
            self.sampler.sample_once()
        gauges = {
            name: value
            for name, value in self.sampler.gauges.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        return render_exposition(
            self.registry,
            gauges=gauges,
            progress=self.progress.snapshot(),
            prefix=self.prefix,
        )

    def snapshot(self) -> Dict[str, Any]:
        """The /snapshot payload: progress, raw gauges (including
        vectors), and the full registry dump when observability is on."""
        if not self.sampler.running:
            self.sampler.sample_once()
        snap: Dict[str, Any] = {
            "progress": self.progress.snapshot(),
            "gauges": self.sampler.gauges,
            "sampler_interval": self.sampler.interval,
        }
        if self.registry is not None:
            snap["metrics"] = self.registry.as_dict()
        return snap

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> Optional[str]:
        if self.server is None:
            return None
        return f"http://{self.server.host}:{self.server.port}"

    def start(self) -> None:
        self.sampler.start()
        if self.server is not None:
            self.server.start()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.sampler.stop()
        if self.heartbeat > 0:
            # One final line so the last state is never lost to the
            # sampling cadence.
            self._emit_heartbeat()

    def __enter__(self) -> "LiveTelemetry":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
