"""Flat-array engine ≡ object-graph engine, under fuzzing.

Three properties over 200 generated programs (ALGORITHM.md §13):

1. **Query equivalence** — ``ArrayDTRG.precede()`` (driven as the
   detector's ``engine="array"``) is bit-equivalent to the object DTRG
   on *every* task pair of the finished graph.
2. **Fast-path equivalence** — ``check_trace_fast`` over the batched
   ``EncodedTrace`` reproduces the sequential replay byte-for-byte:
   same ``summary()``, same race list in the same order, same racy
   locations, same invariant ``DetectorPerf`` counters, same
   ``#AvgReaders``.
3. **Sharded equivalence** — ``check_trace_parallel`` at jobs ∈
   {1, 2, 4} (the same kernel, split by location) stays byte-identical
   to the sequential replay.

The internal verdict memo in ``ArrayDTRG`` and the inlined shadow loops
in ``fastcheck`` are exactly the machinery these sweeps exist to keep
honest: any verdict or counter drift shows up as a seed-numbered
counterexample.
"""

import random

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.testing.generator import random_program, run_program

NUM_SEEDS = 200
BAND = 40
JOBS = (1, 2, 4)
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved",
)


def _replay(trace, **options):
    det = DeterminacyRaceDetector(**options)
    replay_trace(trace, [det])
    return det


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_array_engine_equivalence_fuzz(band):
    racy_seeds = 0
    for seed in range(band, band + BAND):
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)), [rec])
        trace = rec.trace

        golden = _replay(trace)
        # Capture before the all-pairs sweeps below: every live-graph
        # precede() bumps the query counters.
        golden_summary = golden.report.summary()
        golden_order = [r.pair_key for r in golden.races]
        golden_perf = golden.perf_stats
        racy_seeds += bool(golden_order)

        arr = _replay(trace, engine="array")
        assert arr.report.summary() == golden_summary, (
            f"seed {seed}: array-engine summary diverges"
        )
        assert [r.pair_key for r in arr.races] == golden_order, (
            f"seed {seed}: array-engine race order diverges"
        )
        assert arr.racy_locations == golden.racy_locations
        arr_perf = arr.perf_stats
        for key in INVARIANT_PERF:
            assert arr_perf[key] == golden_perf[key], (
                f"seed {seed}: array-engine counter {key} diverges "
                f"({arr_perf[key]} vs {golden_perf[key]})"
            )

        fast = check_trace_fast(encode_trace(trace))
        assert fast.summary() == golden_summary, (
            f"seed {seed}: fastcheck summary diverges"
        )
        assert [r.pair_key for r in fast.races] == golden_order, (
            f"seed {seed}: fastcheck race order diverges"
        )
        assert fast.racy_locations == golden.racy_locations
        fast_perf = fast.perf_stats
        for key in INVARIANT_PERF:
            assert fast_perf[key] == golden_perf[key], (
                f"seed {seed}: fastcheck counter {key} diverges "
                f"({fast_perf[key]} vs {golden_perf[key]})"
            )
        assert abs(fast.avg_readers - golden.shadow.avg_readers) < 1e-12

        # All-pairs: live array graph vs live object graph.
        for a in arr.dtrg.keys:
            for b in arr.dtrg.keys:
                assert arr.dtrg.precede(a, b) == golden.dtrg.precede(a, b), (
                    f"seed {seed}: ArrayDTRG diverges on ({a}, {b})"
                )

        for jobs in JOBS:
            result = check_trace_parallel(trace, jobs=jobs,
                                          backend="inline")
            assert result.summary() == golden_summary, (
                f"seed {seed} jobs={jobs}: summary diverges"
            )
            assert [r.pair_key for r in result.races] == golden_order, (
                f"seed {seed} jobs={jobs}: race order diverges"
            )
            perf = result.perf_stats
            for key in INVARIANT_PERF:
                assert perf[key] == golden_perf[key], (
                    f"seed {seed} jobs={jobs}: counter {key} diverges"
                )
    # A sweep where nothing races would vacuously pass the report
    # comparisons; every band is expected to surface racy programs.
    assert racy_seeds > 0
