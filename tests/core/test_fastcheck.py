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
        TaskEndEvent(task=1),
        WriteEvent(task=0, loc="x", site="a.py:2" if sites else None),
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
    det = DeterminacyRaceDetector()
    replay_trace(trace, [det])
    fast = check_trace_fast(trace)
    assert fast.summary() == det.report.summary()
    assert [r.pair_key for r in fast.races] == [
        r.pair_key for r in det.races
    ]
    # The replaying detector resumes the same kernel block by block.
    assert fast.perf_stats == det.perf_stats
    assert fast.race_rows == det.race_rows
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
        TaskEndEvent(task=1),
        *(WriteEvent(task=0, loc=x, site=f"b.py:{x}") for x in locs),
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


def test_block_memo_asks_each_task_pair_once_per_block():
    """Within an access block the graph's epoch and the running task are
    fixed, so a ``PRECEDE(x, task)`` verdict asked once is reused: over a
    recorded Jacobi-future trace, every call that reaches the graph is a
    distinct (block, other task) pair, and the counters, memo hits
    included, are those of the kernel without the memo."""
    from repro.core.array_dtrg import ArrayDTRG
    from repro.core.fastcheck import CheckResult, _kernel
    from repro.memory.tracer import TraceRecorder
    from repro.runtime.runtime import Runtime
    from repro.workloads import jacobi

    recorder = TraceRecorder()
    Runtime(observers=[recorder]).run(
        lambda rt: jacobi.run_future(rt, jacobi.default_params("tiny")))
    enc = encode_trace(recorder.trace)

    class Blocks:
        """``progress`` stand-in: the kernel bumps it once per run."""
        count = 0

        def add(self, n):
            self.count += 1

    blocks = Blocks()

    class CountingDTRG(ArrayDTRG):
        __slots__ = ("calls",)

        def __init__(self):
            super().__init__()
            self.calls = []

        def precede_idx(self, ia, ib):
            self.calls.append((blocks.count, ia, ib))
            return super().precede_idx(ia, ib)

    dtrg = CountingDTRG()
    result = CheckResult()
    names = [f"t{i}" for i in range(enc.num_tasks)]
    kernel = _kernel(enc, dtrg, names, result, progress=blocks)
    next(kernel)
    with pytest.raises(StopIteration):
        kernel.send(True)
    pairs = {(block, ia) for block, ia, _ib in dtrg.calls}
    assert len(dtrg.calls) <= len(pairs)
    assert all(len({ib for b, _ia, ib in dtrg.calls if b == block}) == 1
               for block, _ia in pairs)  # one running task per block
    # Pinned: the kernel's values before the memo existed.
    assert result.num_precede_queries == 264
    assert result.precede_calls_saved == 432
    assert result.num_visits == 24
    assert len(dtrg.calls) < result.num_precede_queries
    assert result.perf_stats == check_trace_fast(enc).perf_stats
