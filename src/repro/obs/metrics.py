"""Counters, fixed-bucket histograms, and the metrics registry.

Design constraints (in order):

1. **Cheap to record.**  ``Histogram.observe`` is one ``bisect`` + three
   adds; ``Counter.inc`` is one add.  No locks (the runtime is serial), no
   allocation after construction.
2. **Fixed memory.**  Buckets are declared up front; observing a value
   never grows state.
3. **Dumpable.**  Every primitive renders to plain JSON-able dicts so
   ``racecheck --metrics-json`` / ``repro-fuzz --metrics-json`` can write
   them and :func:`repro.harness.report.render_metrics` can print them.

Default bucket ladders are powers-of-two-ish, chosen to straddle the
operating points measured on the Table-2 workloads: PRECEDE latency is
sub-microsecond on the level-0 fast path and tens of microseconds on deep
``_explore`` searches; frontier sizes are 0 for structured programs and
O(non-tree chain length) for future-heavy ones; reader populations are
0..1 for async-finish programs and unbounded with futures.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_dump",
    "PRECEDE_LATENCY_BUCKETS_NS",
    "FRONTIER_BUCKETS",
    "READER_BUCKETS",
    "SHARD_EVENT_BUCKETS",
    "PARALLEL_STAGE_BUCKETS_NS",
]

#: PRECEDE wall-time buckets (nanoseconds): level-0 answers land in the
#: first few, cold backward searches in the microsecond tail.
PRECEDE_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000,
    64_000, 128_000, 512_000, 2_000_000,
)

#: ``_explore`` frontier size (VISIT expansions per query): 0 means the
#: query resolved at level 0 or from the memo.
FRONTIER_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Stored reader population of a shadow cell at access time.
READER_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)

#: Access events per shard in a parallel check (shard-balance visibility:
#: a heavy-tailed distribution here means the hash/bin-packing failed).
SHARD_EVENT_BUCKETS: Tuple[float, ...] = (
    0, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
)

#: Wall-time buckets (nanoseconds) for the parallel checker's build /
#: freeze / fan-out / merge stages.
PARALLEL_STAGE_BUCKETS_NS: Tuple[float, ...] = (
    100_000, 1_000_000, 10_000_000, 100_000_000,
    1_000_000_000, 10_000_000_000,
)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bounds in ascending order; one implicit
    overflow bucket (``+Inf``) catches the tail.  A value ``v`` lands in
    the first bucket with ``v <= bound``.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending")
        if not bounds:
            raise ValueError("histogram needs at least one bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # Inclusive upper bounds: bucket i holds (bounds[i-1], bounds[i]],
        # so a value equal to a bound belongs to that bound's bucket —
        # bisect_left gives exactly that.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile
        (``p`` in [0, 100]); ``max`` for the overflow bucket."""
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) by linear
        interpolation inside the containing bucket — the
        ``histogram_quantile`` estimator, with two refinements the tests
        pin:

        * a rank landing exactly on a bucket's cumulative boundary
          returns that bucket's upper bound exactly (no interpolation
          drift across the seam);
        * the first bucket interpolates from the observed ``min`` (not
          an assumed 0) and the overflow bucket from its lower bound to
          the observed ``max``, so estimates never leave the observed
          value range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            prev_cumulative = cumulative
            cumulative += n
            if cumulative >= rank and n:
                if i < len(self.bounds):
                    hi = self.bounds[i]
                    lo = (
                        self.bounds[i - 1]
                        if i > 0
                        else (self.min if self.min is not None else hi)
                    )
                else:
                    hi = self.max if self.max is not None else 0.0
                    lo = self.bounds[-1]
                lo = min(lo, hi)
                if n == 0 or hi == lo:
                    estimate = hi
                else:
                    fraction = (rank - prev_cumulative) / n
                    estimate = lo + (hi - lo) * min(fraction, 1.0)
                # Clamp to the observed range: interpolation must never
                # report a value no observation could have had.
                if self.max is not None:
                    estimate = min(estimate, self.max)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                return estimate
        return self.max if self.max is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        buckets = [
            {"le": bound, "count": n}
            for bound, n in zip(self.bounds, self.counts)
        ]
        buckets.append({"le": "+Inf", "count": self.counts[-1]})
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "quantiles": {
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            },
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, mean={self.mean:.1f})"


def quantile_from_dump(dump: Dict[str, Any], q: float) -> float:
    """:meth:`Histogram.quantile` applied to a histogram's ``as_dict``
    dump — lets :func:`repro.harness.report.render_metrics` interpolate
    quantiles from a ``--metrics-json`` file without the live object.

    Old dumps (pre-quantile PRs) lack nothing this needs: only
    ``buckets``, ``count``, ``min`` and ``max`` are read.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    count = dump.get("count", 0)
    if not count:
        return 0.0
    buckets = dump.get("buckets", [])
    bounds = [b["le"] for b in buckets if b["le"] != "+Inf"]
    counts = [b["count"] for b in buckets]
    rank = q * count
    vmin = dump.get("min")
    vmax = dump.get("max")
    cumulative = 0
    for i, n in enumerate(counts):
        prev_cumulative = cumulative
        cumulative += n
        if cumulative >= rank and n:
            if i < len(bounds):
                hi = bounds[i]
                lo = bounds[i - 1] if i > 0 else (vmin if vmin is not None else hi)
            else:
                hi = vmax if vmax is not None else 0.0
                lo = bounds[-1] if bounds else hi
            lo = min(lo, hi)
            if hi == lo:
                estimate = hi
            else:
                fraction = (rank - prev_cumulative) / n
                estimate = lo + (hi - lo) * min(fraction, 1.0)
            if vmax is not None:
                estimate = min(estimate, vmax)
            if vmin is not None:
                estimate = max(estimate, vmin)
            return estimate
    return vmax if vmax is not None else 0.0


class MetricsRegistry:
    """Named counters and histograms.

    Lookups create on first use so hook points never need registration
    boilerplate; repeated lookups return the same object (hot paths should
    still cache the reference, as :class:`repro.obs.hooks.Observability`
    does).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                bounds if bounds is not None else FRONTIER_BUCKETS
            )
        return h

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dump of everything recorded so far."""
        return {
            "counters": {
                name: c.as_dict() for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def write_json(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
