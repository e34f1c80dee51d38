"""Sharded parallel checking ≡ sequential replay, under fuzzing.

Three properties over ≥200 generated programs (ALGORITHM.md §12):

1. **Graph fidelity** — the flat-array graph every shard replays
   (:class:`~repro.core.array_dtrg.ArrayDTRG`, as left by the fast
   kernel) answers ``precede`` exactly like the object DTRG on *every*
   task pair of the finished graph.
2. **Sharded equivalence** — ``check_trace_parallel`` at jobs ∈ {1, 2, 4}
   reproduces the sequential replay detector byte-for-byte: same race
   list in the same order, same ``summary()`` text, same racy locations.
   Its job-count-invariant ``DetectorPerf`` counters equal
   ``check_trace_fast``'s; against the reference replay (plain
   Algorithms 8/9, no fast paths) ``mutation_epoch`` is equal and the
   query counts obey ``precede_queries(reference) == precede_queries +
   precede_calls_saved``.
3. **Encoded-input equivalence** — feeding the same trace as an
   :class:`~repro.core.events.EncodedTrace` reproduces the event-list
   build byte-for-byte at every job count.

Shards split the locations and each replays the whole structure stream
independently, so any soundness slip (e.g. answering from the post-merge
final state — the masked-race trap), any location-filter slip or any
ordering slip in the merge shows up as a seed-numbered counterexample
here.
"""

import random

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.testing.generator import random_program, run_program

NUM_SEEDS = 240
JOBS = (1, 2, 4)
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved",
)


def _sequential(trace):
    det = DeterminacyRaceDetector(engine="object")
    replay_trace(trace, [det])
    return det


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, 40))
def test_parallel_equivalence_fuzz(band):
    racy_seeds = 0
    for seed in range(band, band + 40):
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)), [rec])
        trace = rec.trace
        det = _sequential(trace)
        # Capture the golden counters *before* the all-pairs sweep below:
        # each live-graph precede() bumps the detector's query counters.
        golden_summary = det.report.summary()
        golden_order = [r.pair_key for r in det.races]
        golden_perf = det.perf_stats

        fast = check_trace_fast(trace)
        fast_perf = fast.perf_stats
        assert fast_perf["mutation_epoch"] == golden_perf["mutation_epoch"]
        assert golden_perf["precede_queries"] == (
            fast_perf["precede_queries"] + fast_perf["precede_calls_saved"]
        ), f"seed {seed}: query identity broken"
        arr = fast.dtrg
        for a in arr.keys:
            for b in arr.keys:
                assert arr.precede(a, b) == det.dtrg.precede(a, b), (
                    f"seed {seed}: ArrayDTRG diverges on ({a}, {b})"
                )
        racy_seeds += bool(golden_order)
        for jobs in JOBS:
            result = check_trace_parallel(trace, jobs=jobs,
                                          backend="inline")
            assert result.summary() == golden_summary, (
                f"seed {seed} jobs={jobs}: summary diverges"
            )
            assert [r.pair_key for r in result.races] == golden_order, (
                f"seed {seed} jobs={jobs}: race order diverges"
            )
            assert result.racy_locations == det.racy_locations, (
                f"seed {seed} jobs={jobs}: racy locations diverge"
            )
            perf = result.perf_stats
            for key in INVARIANT_PERF:
                assert perf[key] == fast_perf[key], (
                    f"seed {seed} jobs={jobs}: counter {key} diverges "
                    f"({perf[key]} vs {fast_perf[key]})"
                )
    # The generator must actually exercise the racy path in every band,
    # or the equivalence above is vacuous.
    assert racy_seeds > 0


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, 40))
def test_encoded_trace_input_equivalence_fuzz(band):
    """``check_trace_parallel`` consumes :class:`EncodedTrace` blocks
    as is (no second encoding pass) and must stay byte-identical to the
    event-list path at every job count: same ``summary()`` text, same
    ordered race list, same racy locations, the *whole* ``perf_stats``
    dict, and the same event totals."""
    from repro.core.events import encode_trace

    racy_seeds = 0
    for seed in range(band, band + 40):
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)), [rec])
        trace = rec.trace
        encoded = encode_trace(trace)
        for jobs in JOBS:
            want = check_trace_parallel(trace, jobs=jobs, backend="inline")
            got = check_trace_parallel(encoded, jobs=jobs, backend="inline")
            assert got.summary() == want.summary(), (
                f"seed {seed} jobs={jobs}: encoded summary diverges"
            )
            assert ([r.pair_key for r in got.races]
                    == [r.pair_key for r in want.races]), (
                f"seed {seed} jobs={jobs}: encoded race order diverges"
            )
            assert got.racy_locations == want.racy_locations
            assert got.perf_stats == want.perf_stats, (
                f"seed {seed} jobs={jobs}: encoded perf counters diverge"
            )
            assert got.num_events == want.num_events
            assert got.num_access_events == want.num_access_events
            racy_seeds += bool(got.races)
    assert racy_seeds > 0


def test_fork_backend_equivalence_sample():
    """A smaller sweep through real worker processes (fork), so the
    pickle-free inherit path is fuzzed too, not just the inline one."""
    checked = 0
    for seed in range(30):
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)), [rec])
        det = _sequential(rec.trace)
        result = check_trace_parallel(rec.trace, jobs=2, backend="fork")
        assert result.summary() == det.report.summary(), f"seed {seed}"
        checked += 1
    assert checked == 30
