"""Unit/integration tests for the metrics collector and report rendering
corners not covered elsewhere."""

import pytest

from repro import Runtime, SharedArray
from repro.core.detector import DeterminacyRaceDetector
from repro.harness.metrics import DetectorPerf, Metrics, MetricsCollector
from repro.harness.report import render_metrics, render_table


def collect(builder):
    metrics = MetricsCollector()
    rt = Runtime(observers=[metrics])
    mem = SharedArray(rt, "x", 8)
    rt.run(lambda _rt: builder(rt, mem))
    return metrics.snapshot()


def test_task_kind_counters():
    def prog(rt, mem):
        rt.async_(lambda: None)
        rt.future(lambda: None).get()
        rt.async_(lambda: rt.future(lambda: None))

    snap = collect(prog)
    assert snap.num_tasks == 4
    assert snap.num_async_tasks == 2
    assert snap.num_future_tasks == 2
    assert snap.num_gets == 1
    assert snap.max_live_depth == 2


def test_nt_join_classification_uses_ancestry():
    def prog(rt, mem):
        f = rt.future(lambda: None, name="p")
        f.get()  # parent join: tree

        def consumer():
            f.get()  # sibling: non-tree

        rt.future(consumer).get()

    snap = collect(prog)
    assert snap.num_gets == 3
    assert snap.num_nt_joins == 1


def test_finish_scope_counter_excludes_root():
    def prog(rt, mem):
        with rt.finish():
            with rt.finish():
                pass

    snap = collect(prog)
    assert snap.num_finish_scopes == 2


def test_metrics_as_row():
    snap = Metrics(num_tasks=3, num_nt_joins=1, num_reads=4, num_writes=6)
    row = snap.as_row()
    assert row == {"#Tasks": 3, "#NTJoins": 1, "#SharedMem": 10}
    assert snap.num_shared_accesses == 10


def test_render_table_empty_and_mixed_types():
    assert render_table([]) == "(no rows)"
    table = render_table([{"name": "x", "v": 1.5}, {"name": "longer", "v": 2}])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert "1.50" in table
    assert len({len(line) for line in lines}) == 1


def test_render_table_union_of_heterogeneous_rows():
    """Columns are the ordered union across *all* rows — taking them from
    rows[0] alone silently dropped every column the first row lacked
    (e.g. detector-perf columns when the first row ran without a
    detector)."""
    rows = [
        {"Benchmark": "a", "#Tasks": 1},
        {"Benchmark": "b", "#Tasks": 2, "CacheHit%": 93.3},
        {"Benchmark": "c", "races": 1},
    ]
    table = render_table(rows)
    header = table.splitlines()[0]
    assert header.split("|")[0].strip() == "Benchmark"
    assert "CacheHit%" in header
    assert "races" in header
    # First-seen order: rows[0]'s keys first, then each new key in turn.
    assert header.index("#Tasks") < header.index("CacheHit%") < \
        header.index("races")
    assert "93.30" in table
    # Missing cells render empty, and every line stays aligned.
    assert len({len(line) for line in table.splitlines()}) == 1


def test_metrics_collector_depth_is_memoized_not_quadratic():
    """on_task_create must not re-walk the whole parent chain per spawn: a
    depth-N spawn chain used to cost O(N^2) parent-map lookups.  Drive the
    collector directly (the serial runtime would exhaust the recursion
    limit long before 10k) with a counting parent map."""

    class Stub:
        def __init__(self, tid, is_future=False):
            self.tid = tid
            self.is_future = is_future

    class CountingDict(dict):
        gets = 0

        def get(self, *a):
            CountingDict.gets += 1
            return dict.get(self, *a)

    metrics = MetricsCollector()
    metrics._parent = CountingDict(metrics._parent)
    metrics._depth = CountingDict(metrics._depth)
    CountingDict.gets = 0

    n = 10_000
    main = Stub(0)
    metrics.on_init(main)
    prev = main
    for tid in range(1, n + 1):
        child = Stub(tid)
        metrics.on_task_create(prev, child)
        prev = child
    assert metrics.max_live_depth == n
    # One depth lookup per spawn (plus change), never O(depth) walks.
    assert CountingDict.gets <= 5 * n


def test_is_ancestor_still_correct_with_memoized_depths():
    def prog(rt, mem):
        f = rt.future(lambda: None, name="p")

        def mid():
            def inner():
                f.get()  # great-grandparent holds the handle: non-tree

            rt.future(inner).get()

        rt.future(mid).get()
        f.get()  # parent join: tree

    snap = collect(prog)
    assert snap.num_gets == 4
    assert snap.num_nt_joins == 1


def test_detector_perf_tolerates_missing_stats_keys():
    """Duck-typed detectors may omit counters from perf_stats; building
    the report row from them must not raise (regression: KeyError took
    down the whole Table-2 render)."""

    class Partial:
        perf_stats = {"precede_queries": 7}

    perf = DetectorPerf.from_detector(Partial())
    assert perf.precede_queries == 7
    assert perf.cache_hits == 0
    assert perf.cache_hit_rate == 0.0
    assert perf.as_row()["#PrecedeQ"] == 7
    assert DetectorPerf.from_detector(None).precede_queries == 0


@pytest.mark.parametrize("engine", ["array", "object"])
def test_detector_perf_cache_columns_are_zero(engine):
    """No engine keeps a public PRECEDE cache: the cache counters stay
    zero and the row still builds and renders."""
    det = DeterminacyRaceDetector(engine=engine)
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 2)

    def prog(rt_):
        f = rt_.future(lambda: mem.write(0, 1))
        f.get()
        mem.read(0)

    rt.run(prog)
    perf = DetectorPerf.from_detector(det)
    assert perf.cache_hits == 0 and perf.cache_misses == 0
    assert perf.cache_hit_rate == 0.0
    assert perf.precede_queries > 0
    assert "#PrecedeQ" in render_table([perf.as_row()])


def test_render_metrics_blocks():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("shadow_reads").inc(3)
    reg.histogram("precede_latency_ns", (100, 200)).observe(150)
    text = render_metrics(reg.as_dict())
    assert "shadow_reads" in text
    assert "precede_latency_ns" in text
    assert render_metrics({}) == "(no metrics)"
