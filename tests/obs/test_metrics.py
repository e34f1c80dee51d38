"""Unit tests for the observability metrics primitives."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)


def test_counter_increments():
    c = Counter()
    assert c.value == 0
    c.inc()
    c.inc(5)
    assert c.value == 6
    assert c.as_dict() == 6


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_bounds(self):
        h = Histogram((10, 20, 40))
        for v in (0, 10, 11, 20, 39, 40, 41, 1000):
            h.observe(v)
        # (-inf,10]=0,10 ; (10,20]=11,20 ; (20,40]=39,40 ; overflow=41,1000
        assert h.counts == [2, 2, 2, 2]
        assert h.count == 8
        assert h.min == 0 and h.max == 1000
        assert h.total == sum((0, 10, 11, 20, 39, 40, 41, 1000))

    def test_mean_and_percentiles(self):
        h = Histogram((1, 2, 4, 8))
        for v in (1, 1, 1, 2, 8):
            h.observe(v)
        assert h.mean == pytest.approx(13 / 5)
        assert h.percentile(50) == 1
        assert h.percentile(99) == 8
        assert h.percentile(100) == 8

    def test_empty_histogram(self):
        h = Histogram((1, 2))
        assert h.mean == 0.0
        assert h.percentile(99) == 0.0
        d = h.as_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None

    def test_overflow_percentile_uses_observed_max(self):
        h = Histogram((1,))
        h.observe(500)
        assert h.percentile(50) == 500

    def test_as_dict_shape(self):
        h = Histogram((5, 10))
        h.observe(3)
        d = h.as_dict()
        assert [b["le"] for b in d["buckets"]] == [5, 10, "+Inf"]
        assert sum(b["count"] for b in d["buckets"]) == d["count"] == 1
        assert set(d) == {
            "count", "sum", "min", "max", "mean", "p50", "p99", "buckets",
            "quantiles",
        }
        assert set(d["quantiles"]) == {"p50", "p95", "p99"}

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((5, 1))


class TestInterpolatedQuantiles:
    """The PR 9 linear-interpolation estimator (distinct from the pinned
    bucket-upper-bound ``percentile``)."""

    def test_empty(self):
        assert Histogram((1, 2)).quantile(0.5) == 0.0

    def test_interior_bucket_interpolates_linearly(self):
        # 10 obs in (-inf,10] and 10 in (10,20]: the cumulative fraction
        # crosses q=0.75 halfway through the second bucket -> 15.0.
        h = Histogram((10, 20, 40))
        h.observe(0)            # pins min=0 so clamping stays out of play
        for _ in range(9):
            h.observe(5)
        for _ in range(10):
            h.observe(15)
        h.observe(40)           # pins max=40 (interior estimates < 40)
        # 21 observations: rank q*21 at q=0.75 lands mid second bucket.
        est = h.quantile(0.75)
        assert 10.0 < est < 20.0
        assert est == pytest.approx(15.75, abs=0.01)

    def test_exact_cumulative_boundary_returns_bucket_upper_bound(self):
        # Second bucket's cumulative fraction is exactly 0.5 -> le=20,
        # with observations beyond so the [min,max] clamp can't bite.
        h = Histogram((10, 20, 40))
        for v in (5, 15, 25, 35):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(20.0)

    def test_estimate_clamped_to_observed_range(self):
        # A single observation sits mid-bucket; naive interpolation would
        # report the bucket midpoint band, but no estimate may escape
        # [min, max] = [50, 50].
        h = Histogram((100,))
        h.observe(50)
        assert h.quantile(0.5) == 50
        assert h.quantile(0.99) == 50

    def test_overflow_bucket_uses_observed_max(self):
        h = Histogram((10,))
        h.observe(5)
        h.observe(500)
        assert h.quantile(1.0) == 500
        assert h.quantile(0.25) <= 10

    def test_quantile_from_dump_matches_live_histogram(self):
        from repro.obs.metrics import quantile_from_dump

        h = Histogram((1, 2, 4, 8))
        for v in (1, 1, 2, 3, 5, 8, 13):
            h.observe(v)
        dump = json.loads(json.dumps(h.as_dict()))  # via-JSON round trip
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            assert quantile_from_dump(dump, q) == pytest.approx(
                h.quantile(q)
            )

    def test_quantile_rejects_bad_q(self):
        h = Histogram((1,))
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestMetricsRegistry:
    def test_create_on_first_use_and_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h")

    def test_as_dict_sections(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", (1,)).observe(1)
        d = reg.as_dict()
        assert set(d) == {"counters", "histograms"}
        assert d["counters"] == {"c": 1}
        assert d["histograms"]["h"]["count"] == 1

    def test_write_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert json.loads(path.read_text()) == reg.as_dict()
