"""Sharded parallel checking (ALGORITHM.md §12).

The contract under test: for any recorded trace and any job count,
``check_trace_parallel`` reproduces the sequential replay detector's
races (same order), ``RaceReport.summary()`` text (byte-identical) and
structural ``DetectorPerf`` counters — and it streams its input, so a
one-shot generator with no ``__len__`` is a valid trace.
"""

import multiprocessing
import os
import random
import time

import pytest

from repro.core import parallel_check as parallel_mod
from repro.core.detector import DeterminacyRaceDetector
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.core.events import ReadEvent, TaskCreateEvent, WriteEvent
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.testing.generator import random_program, run_program

#: Counters that must be job-count-invariant (the cache_* columns read 0
#: in parallel mode by design — workers run cache-less), compared against
#: ``check_trace_fast``, the same kernel unsharded.
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved",
)


def recorded(seed: int):
    rec = TraceRecorder()
    run_program(random_program(random.Random(seed)), [rec])
    return rec.trace


def sequential(trace) -> DeterminacyRaceDetector:
    det = DeterminacyRaceDetector()
    replay_trace(trace, [det])
    return det


def first_racy_trace():
    for seed in range(50):
        trace = recorded(seed)
        if sequential(trace).report.has_races:
            return trace
    raise AssertionError("no racy seed in range")  # pragma: no cover


# ---------------------------------------------------------------------- #
# Golden equivalence                                                     #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_summary_byte_identical_across_jobs(jobs):
    trace = first_racy_trace()
    golden = sequential(trace)
    result = check_trace_parallel(trace, jobs=jobs, backend="inline")
    assert result.summary() == golden.report.summary()
    assert [r.pair_key for r in result.races] == \
        [r.pair_key for r in golden.races]
    assert result.racy_locations == golden.racy_locations


@pytest.mark.parametrize("jobs", [1, 3])
def test_perf_counters_invariant(jobs):
    trace = first_racy_trace()
    golden = check_trace_fast(trace).perf_stats
    got = check_trace_parallel(trace, jobs=jobs, backend="inline").perf_stats
    for key in INVARIANT_PERF:
        assert got[key] == golden[key], key
    assert got["cache_hits"] == got["cache_misses"] == 0
    # The replaying detector runs the same kernel, block by block.
    ref = sequential(trace).perf_stats
    for key in INVARIANT_PERF:
        assert ref[key] == got[key], key


def test_race_free_trace():
    for seed in range(50):
        trace = recorded(seed)
        golden = sequential(trace)
        if not golden.report.has_races:
            result = check_trace_parallel(trace, jobs=2, backend="inline")
            assert not result.report.has_races
            assert result.summary() == golden.report.summary()
            return
    raise AssertionError("no race-free seed in range")  # pragma: no cover


def test_structure_only_trace_keeps_structural_counters():
    """No accesses means no shard owns a location; one shard must still
    replay the structure, or the structural counters would read 0."""
    for seed in range(50):
        trace = [e for e in recorded(seed)
                 if not isinstance(e, (ReadEvent, WriteEvent))]
        golden = sequential(trace)
        if golden.dtrg.num_non_tree_edges and golden.dtrg.num_tree_merges:
            break
    else:  # pragma: no cover
        raise AssertionError("no seed with both join kinds in range")
    result = check_trace_parallel(trace, jobs=2, backend="inline")
    assert result.num_access_events == 0 and not result.races
    assert result.mutation_epoch == golden.dtrg.mutation_epoch
    assert result.num_tasks == 1 + sum(
        isinstance(e, TaskCreateEvent) for e in trace)
    assert result.num_tree_merges == golden.dtrg.num_tree_merges
    assert result.num_non_tree_edges == golden.dtrg.num_non_tree_edges


# ---------------------------------------------------------------------- #
# Multiprocessing backends (run from a real file, so spawn re-imports    #
# cleanly — pytest's __main__ is importable)                             #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["fork", "spawn"])
def test_process_backends_match_inline(backend):
    trace = first_racy_trace()
    golden = check_trace_parallel(trace, jobs=2, backend="inline")
    result = check_trace_parallel(trace, jobs=2, backend=backend)
    assert result.summary() == golden.summary()
    assert result.perf_stats == golden.perf_stats
    assert result.backend == backend


# ---------------------------------------------------------------------- #
# Auto dispatch: split only above the break-even                        #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", [None, "auto"])
def test_auto_below_break_even_checks_one_inline_shard(backend):
    from repro.core.fastcheck import check_trace_fast

    trace = first_racy_trace()
    fast = check_trace_fast(trace)
    result = check_trace_parallel(trace, jobs=2, backend=backend)
    assert 0 < result.movable_rows < parallel_mod.MIN_SPLIT_ROWS
    assert result.backend == "inline"
    assert len(result.shards) == 1
    assert result.shards[0]["events"] == result.num_access_events
    assert result.summary() == fast.summary()
    assert result.perf_stats == fast.perf_stats
    assert result.race_rows == fast.race_rows


class _CountingContext:
    """A multiprocessing context that counts the processes it makes."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.processes = 0

    def Pipe(self, duplex=True):
        return self._ctx.Pipe(duplex=duplex)

    def Process(self, **kwargs):
        self.processes += 1
        return self._ctx.Process(**kwargs)


def test_auto_above_break_even_forks_all_but_one_shard(monkeypatch):
    contexts = []
    real_get_context = multiprocessing.get_context

    def counting_context(method):
        contexts.append(_CountingContext(real_get_context(method)))
        return contexts[-1]

    monkeypatch.setattr(parallel_mod, "MIN_SPLIT_ROWS", 1)
    monkeypatch.setattr(multiprocessing, "get_context", counting_context)
    trace = first_racy_trace()
    golden = check_trace_parallel(trace, jobs=3, backend="inline")
    result = check_trace_parallel(trace, jobs=3)
    assert result.backend in ("fork", "spawn")
    assert len(result.shards) == len(golden.shards) > 1
    # The parent checks the heaviest shard itself.
    assert [c.processes for c in contexts] == [len(result.shards) - 1]
    assert result.summary() == golden.summary()
    assert result.perf_stats == golden.perf_stats
    assert result.race_rows == golden.race_rows
    assert not multiprocessing.active_children()


def _die_in_child(parent_pid, how):
    real = parallel_mod._check_shard

    def check(enc, names, owned):
        if os.getpid() != parent_pid:
            if how == "exit":
                os._exit(3)
            raise MemoryError("shard worker blew up")
        return real(enc, names, owned)

    return check


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
@pytest.mark.parametrize("how, code", [("exit", 3), ("raise", 1)])
def test_dead_child_raises_instead_of_hanging(monkeypatch, how, code):
    monkeypatch.setattr(parallel_mod, "_check_shard",
                        _die_in_child(os.getpid(), how))
    trace = first_racy_trace()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=rf"shard \d+ .*code {code}\b"):
        check_trace_parallel(trace, jobs=2, backend="fork")
    assert time.monotonic() - start < 10
    assert not multiprocessing.active_children()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        check_trace_parallel(recorded(0), jobs=2, backend="threads")


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        check_trace_parallel(recorded(0), jobs=0)


# ---------------------------------------------------------------------- #
# Streaming input (satellite: any iterable, single pass)                 #
# ---------------------------------------------------------------------- #
def test_generator_input_streams():
    trace = first_racy_trace()
    golden = sequential(trace)

    def one_shot():
        for event in trace:
            yield event

    gen = one_shot()
    assert not hasattr(gen, "__len__")
    result = check_trace_parallel(gen, jobs=2, backend="inline")
    assert result.summary() == golden.report.summary()
    # The generator is exhausted: a second pass would see nothing, so a
    # passing check proves single-pass streaming.
    assert next(gen, None) is None


def test_replay_trace_accepts_generator():
    trace = first_racy_trace()
    golden = sequential(trace)
    det = DeterminacyRaceDetector()
    replay_trace((event for event in trace), [det])
    assert det.report.summary() == golden.report.summary()


# ---------------------------------------------------------------------- #
# Result surface                                                         #
# ---------------------------------------------------------------------- #
def test_names_override():
    trace = first_racy_trace()
    default = check_trace_parallel(trace, jobs=1)
    named = check_trace_parallel(
        trace, jobs=1,
        names={tid: f"T{tid}" for tid in range(200)},
    )
    assert default.racy_locations == named.racy_locations
    assert any(
        r.prev_name.startswith("T") or r.current_name.startswith("T")
        for r in named.races
    )


def test_shard_and_timing_surface():
    trace = first_racy_trace()
    result = check_trace_parallel(trace, jobs=2, backend="inline")
    assert sum(s["events"] for s in result.shards) \
        == result.num_access_events
    for key in ("build_seconds", "freeze_seconds", "check_seconds",
                "merge_seconds", "total_seconds"):
        assert result.timings[key] >= 0.0
    assert result.num_events == len(trace) + 0  # structure + access split
    assert result.num_access_events + result.num_structure_events \
        == result.num_events


def test_obs_hooks_fire():
    from repro.obs import Observability, RingTracer

    obs = Observability(tracer=RingTracer())
    trace = first_racy_trace()
    check_trace_parallel(trace, jobs=2, obs=obs, backend="inline")
    dump = obs.registry.as_dict()
    assert dump["counters"]["parallel_checks"] == 1
    assert dump["histograms"]["parallel_shard_events"]["count"] >= 1
    assert dump["histograms"]["parallel_check_ns"]["count"] == 1
    names = {e["name"] for e in obs.tracer.events()}
    assert {"parallel.plan", "parallel.build", "parallel.freeze",
            "parallel.check", "parallel.merge"} <= names
