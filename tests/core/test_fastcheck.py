"""Unit tests for the batched encoder + single-pass fast checker."""

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import (
    FinishEndEvent,
    FinishStartEvent,
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    WriteEvent,
    encode_trace,
)
from repro.core.fastcheck import check_trace_fast
from repro.memory.tracer import replay_trace



def _async_write_race(sites: bool = False):
    """Main and an unjoined async child both write ``x`` — one race."""
    return Trace(events=[
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=0),
        WriteEvent(task=1, loc="x", site="a.py:1" if sites else None),
        WriteEvent(task=0, loc="x", site="a.py:2" if sites else None),
        TaskEndEvent(task=1),
    ])


def _future_ordered():
    """A joined future: its write is ordered before the parent's — clean."""
    return Trace(events=[
        TaskCreateEvent(parent=0, child=1, is_future=True, ief=0),
        WriteEvent(task=1, loc="x"),
        TaskEndEvent(task=1),
        GetEvent(consumer=0, producer=1),
        WriteEvent(task=0, loc="x"),
        ReadEvent(task=0, loc="x"),
    ])


def _finish_scoped():
    """An async inside an explicit finish: joined at finish-end, so the
    post-finish read is ordered — clean."""
    return Trace(events=[
        FinishStartEvent(fid=1, owner=0, enclosing=0),
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=1),
        WriteEvent(task=1, loc="y"),
        TaskEndEvent(task=1),
        FinishEndEvent(fid=1),
        ReadEvent(task=0, loc="y"),
    ])


def _against_replay(trace):
    det = DeterminacyRaceDetector(engine="object")
    replay_trace(trace, [det])
    fast = check_trace_fast(trace)
    assert fast.summary() == det.report.summary()
    assert [r.pair_key for r in fast.races] == [
        r.pair_key for r in det.races
    ]
    # The reference engine runs the plain Algorithms 8/9: it issues every
    # call the kernel's fast paths skip, and nothing else differs.
    got, want = fast.perf_stats, det.perf_stats
    assert got["mutation_epoch"] == want["mutation_epoch"]
    assert want["precede_queries"] == (got["precede_queries"]
                                       + got["precede_calls_saved"])
    return det, fast


def test_async_write_write_race():
    det, fast = _against_replay(_async_write_race())
    assert len(fast.races) == 1
    assert fast.races[0].kind.value == "write-write"


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_site_attribution_matches_sharded_checker(jobs):
    """With sites in the stream, the fast path and the sharded checker
    report races at the same rows on every shard, so ``explain_races``
    attributes them alike (the checkers themselves report no sites)."""
    from repro.core.parallel_check import check_trace_parallel
    from repro.obs.provenance import explain_races

    locs = [f"x{i}" for i in range(8)]
    trace = Trace(events=[
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=0),
        *(WriteEvent(task=1, loc=x, site=f"a.py:{x}") for x in locs),
        *(WriteEvent(task=0, loc=x, site=f"b.py:{x}") for x in locs),
        TaskEndEvent(task=1),
    ])
    fast = check_trace_fast(trace)
    sharded = check_trace_parallel(trace, jobs=jobs, backend="inline")
    assert len(sharded.shards) == jobs
    assert fast.summary() == sharded.summary()
    assert [r.loc for r in sharded.races] == locs
    assert sharded.race_rows == fast.race_rows == list(range(8, 16))
    assert all(r.prev_site is None for r in fast.races + sharded.races)
    for checked in (fast, sharded):
        races, _ = explain_races(trace, checked.races, checked.race_rows)
        for race in races:
            assert race.prev_site == f"a.py:{race.loc}"
            assert race.current_site == f"b.py:{race.loc}"


def test_future_join_orders_accesses():
    _, fast = _against_replay(_future_ordered())
    assert fast.races == []


def test_finish_scope_orders_accesses():
    _, fast = _against_replay(_finish_scoped())
    assert fast.races == []


def test_encoded_and_raw_inputs_agree():
    trace = _async_write_race()
    from_raw = check_trace_fast(trace)
    from_encoded = check_trace_fast(encode_trace(trace))
    assert from_raw.summary() == from_encoded.summary()
    assert from_raw.perf_stats == from_encoded.perf_stats


def test_encoder_counts_and_runs():
    trace = _future_ordered()
    enc = encode_trace(trace)
    assert enc.num_access_events == 3
    assert enc.num_structure_events == 3
    assert len(enc) == len(trace)
    assert enc.num_tasks == 2          # main + the future
    assert enc.num_locations == 1
    assert bool(enc.is_future[1])
    # Run-length segments alternate and their counts cover the stream.
    runs = list(enc.runs)
    assert sum(runs[1::2]) == len(trace)
    kinds = runs[0::2]
    assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))


def test_encoder_rejects_unknown_task():
    with pytest.raises(KeyError):
        encode_trace(Trace(events=[WriteEvent(task=7, loc="x")]))


def test_result_surface():
    fast = check_trace_fast(_async_write_race())
    assert fast.num_events == 4
    assert fast.num_access_events == 2
    assert fast.num_structure_events == 2
    assert fast.racy_locations == [("x", 1)] or fast.racy_locations
    for key in ("structure_seconds", "access_seconds", "total_seconds"):
        assert fast.timings[key] >= 0.0
    assert fast.events_per_second > 0
    assert fast.access_events_per_second > 0
    # cache_* columns are 0 by construction on the array engine.
    assert fast.perf_stats["cache_hits"] == 0
    assert fast.perf_stats["cache_hit_rate"] == 0.0
