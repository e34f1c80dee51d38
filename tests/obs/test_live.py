"""Unit tests for the live telemetry plane (progress, sampler, server)."""

import http.client
import io
import json
import threading
import time
import urllib.request

import pytest

from repro.obs.exposition import parse_exposition
from repro.obs.live import (
    APPROX_SHADOW_CELL_BYTES,
    LiveTelemetry,
    ProgressCounter,
    RuntimeSampler,
    detector_source,
    thread_runtime_source,
    tracer_source,
)


class FakeClock:
    """A monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestProgressCounter:
    def test_counters_accumulate(self):
        p = ProgressCounter()
        p.add()
        p.add(9)
        p.add_races()
        p.add_races(2)
        snap = p.snapshot()
        assert snap["events"] == 10
        assert snap["races"] == 3

    def test_phase_and_total(self):
        p = ProgressCounter()
        p.set_phase("check")
        p.set_total(50)
        snap = p.snapshot()
        assert snap["phase"] == "check"
        assert snap["total"] == 50

    def test_rate_and_eta_from_injected_clock(self):
        clock = FakeClock()
        p = ProgressCounter(clock=clock)
        p.set_total(100)
        p.add(25)
        clock.advance(5.0)
        snap = p.snapshot()
        assert snap["elapsed_seconds"] == pytest.approx(5.0)
        assert snap["events_per_second"] == pytest.approx(5.0)
        # 75 events remain at 5 ev/s.
        assert snap["eta_seconds"] == pytest.approx(15.0)

    def test_eta_absent_without_total_or_when_done(self):
        clock = FakeClock()
        p = ProgressCounter(clock=clock)
        p.add(10)
        clock.advance(1.0)
        assert p.snapshot()["eta_seconds"] is None
        p.set_total(10)  # already reached
        assert p.snapshot()["eta_seconds"] is None


class TestRuntimeSampler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            RuntimeSampler(0)
        with pytest.raises(ValueError):
            RuntimeSampler(-1)

    def test_sources_merge_in_registration_order(self):
        s = RuntimeSampler()
        s.add_source(lambda: {"a": 1, "shared": "first"})
        s.add_source(lambda: {"b": 2, "shared": "second"})
        merged = s.sample_once()
        assert merged["a"] == 1
        assert merged["b"] == 2
        assert merged["shared"] == "second"
        assert merged["sampler_samples_total"] == 1

    def test_raising_source_dropped_for_that_tick_only(self):
        s = RuntimeSampler()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("mid-teardown")
            return {"flaky": calls["n"]}

        s.add_source(flaky)
        s.add_source(lambda: {"steady": 1})
        first = s.sample_once()
        assert "flaky" not in first
        assert first["steady"] == 1
        second = s.sample_once()
        assert second["flaky"] == 2

    def test_gauges_property_returns_copy(self):
        s = RuntimeSampler()
        s.add_source(lambda: {"x": 1})
        s.sample_once()
        g = s.gauges
        g["x"] = 999
        assert s.gauges["x"] == 1

    def test_event_rate_ewma_from_progress_deltas(self):
        clock = FakeClock()
        s = RuntimeSampler(clock=clock)
        events = {"n": 0}
        s.add_source(lambda: {"progress_events": events["n"]})
        s.sample_once()  # establishes the baseline; no rate yet
        assert "events_per_second_ewma" not in s.gauges

        events["n"] = 100
        clock.advance(1.0)
        g = s.sample_once()
        assert g["events_per_second_ewma"] == pytest.approx(100.0)

        # Next window at 200 ev/s: EWMA = 0.3*200 + 0.7*100.
        events["n"] = 300
        clock.advance(1.0)
        g = s.sample_once()
        assert g["events_per_second_ewma"] == pytest.approx(130.0)

    def test_start_stop_thread(self):
        s = RuntimeSampler(interval=0.01)
        s.add_source(lambda: {"x": 1})
        assert not s.running
        s.start()
        try:
            assert s.running
        finally:
            s.stop()
        assert not s.running
        assert s.samples_total >= 1


class TestSamplerSources:
    def test_detector_source_skips_missing_attributes(self):
        g = detector_source(object())()
        assert g == {}

    def test_detector_source_shadow_and_races(self):
        class Det:
            num_locations = 10
            num_accesses = 123
            races = [1, 2]

        g = detector_source(Det())()
        assert g["shadow_cells"] == 10
        assert g["shadow_approx_bytes"] == 10 * APPROX_SHADOW_CELL_BYTES
        assert g["detector_accesses"] == 123
        assert g["races_detected"] == 2

    def test_thread_runtime_source(self):
        class RT:
            steals = 7
            failed_steals = 3
            inlined = 5
            blocked = 0
            pool_size = 2

            def deque_depths(self):
                return [2, 5]

        g = thread_runtime_source(RT())()
        assert g["exec_steals_total"] == 7
        assert g["exec_failed_steals_total"] == 3
        assert g["exec_inlined_total"] == 5
        assert g["worker_deque_depths"] == [2, 5]
        assert g["worker_deque_depth_sum"] == 7
        assert g["worker_deque_depth_max"] == 5
        # The runtime takes no lock per access: no stripe gauge.
        assert not any(name.startswith("stripe") for name in g)

    def test_tracer_source_pins_drop_counter_name(self):
        class Tracer:
            dropped = 4
            capacity = 1024

        g = tracer_source(Tracer())()
        assert g == {
            "obs_trace_dropped_total": 4,
            "obs_trace_capacity": 1024,
        }


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.read()


class TestLiveTelemetry:
    def test_no_server_by_default(self):
        lt = LiveTelemetry()
        assert lt.server is None
        assert lt.url is None

    def test_render_metrics_is_valid_exposition(self):
        lt = LiveTelemetry()
        lt.add_source(lambda: {"shadow_cells": 3})
        lt.progress.add(5)
        text = lt.render_metrics()
        samples = parse_exposition(text)
        assert samples[("repro_shadow_cells", "")] == 3
        assert samples[("repro_progress_events_total", "")] == 5

    def test_render_metrics_filters_non_scalar_gauges(self):
        lt = LiveTelemetry()
        lt.add_source(lambda: {"worker_deque_depths": [1, 2], "ok": 1})
        text = lt.render_metrics()
        assert "worker_deque_depths" not in text
        samples = parse_exposition(text)
        assert samples[("repro_ok", "")] == 1
        # ... but the vector still reaches /snapshot.
        assert lt.snapshot()["gauges"]["worker_deque_depths"] == [1, 2]

    def test_attach_runtime_guard(self):
        lt = LiveTelemetry()
        before = len(lt.sampler._sources)
        lt.attach_runtime(object())  # no deque_depths/steals: not attached
        assert len(lt.sampler._sources) == before

        class RT:
            steals = 1

        lt.attach_runtime(RT())
        assert len(lt.sampler._sources) == before + 1

    def test_attach_detector_and_tracer(self):
        class Tracer:
            dropped = 0
            capacity = 8

        lt = LiveTelemetry(tracer=Tracer())
        assert lt.snapshot()["gauges"]["obs_trace_capacity"] == 8

    def test_from_observability(self):
        from repro.obs.metrics import MetricsRegistry

        class Obs:
            registry = MetricsRegistry()
            tracer = None

        Obs.registry.counter("precede_queries").inc(2)
        lt = LiveTelemetry.from_observability(Obs())
        assert lt.registry is Obs.registry
        text = lt.render_metrics()
        assert "repro_precede_queries_total 2" in text

    def test_http_endpoints(self):
        with LiveTelemetry(port=0) as lt:
            assert lt.url is not None
            lt.progress.add(3)
            lt.progress.set_phase("check")

            assert _get(f"{lt.url}/healthz") == b"ok\n"

            text = _get(f"{lt.url}/metrics").decode()
            samples = parse_exposition(text)
            assert samples[("repro_progress_events_total", "")] == 3

            snap = json.loads(_get(f"{lt.url}/snapshot"))
            assert snap["progress"]["events"] == 3
            assert snap["progress"]["phase"] == "check"
            assert "gauges" in snap

            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"{lt.url}/nope")
            assert exc.value.code == 404

    def test_heartbeat_writes_to_stream(self):
        stream = io.StringIO()
        lt = LiveTelemetry(heartbeat=0.001, heartbeat_stream=stream)
        lt.progress.add(7)
        lt.progress.add_races(1)
        lt.progress.set_total(10)
        lt.progress.set_phase("check")
        lt.start()
        lt.stop()  # emits at least the final heartbeat line
        out = stream.getvalue()
        assert "[live]" in out
        assert "events=7/10 (70.0%)" in out
        assert "races=1" in out
        assert "phase=check" in out

    def test_stop_is_idempotent(self):
        lt = LiveTelemetry(port=0)
        lt.start()
        lt.stop()
        lt.stop()

    def test_stop_waits_for_a_response_in_flight(self):
        """A process exits right after stop(): a /metrics response
        already started must be written whole before stop() returns."""
        lt = LiveTelemetry(port=0)
        rendering, rendered = threading.Event(), threading.Event()
        body = "x" * 200_000 + "\n"

        def slow_render() -> str:
            rendering.set()
            time.sleep(0.5)
            rendered.set()
            return body

        lt.render_metrics = slow_render
        lt.start()
        got = {}

        def client() -> None:
            with urllib.request.urlopen(f"{lt.url}/metrics",
                                        timeout=10) as resp:
                got["body"] = resp.read().decode()

        reader = threading.Thread(target=client)
        reader.start()
        assert rendering.wait(5.0)
        lt.stop()
        assert rendered.is_set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got["body"] == body

    def test_an_idle_keep_alive_connection_does_not_block_stop(self):
        lt = LiveTelemetry(port=0)
        lt.start()
        conn = http.client.HTTPConnection(
            lt.server.host, lt.server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.read() == b"ok\n"
            assert not resp.will_close  # HTTP/1.1: the connection stays
            handlers = list(lt.server._httpd.connections)
            assert handlers and all(t.is_alive() for t in handlers)
            start = time.monotonic()
            lt.stop()
            assert time.monotonic() - start < 2.0
            assert not any(t.is_alive() for t in handlers)
        finally:
            conn.close()
