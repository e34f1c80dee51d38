"""The one kernel agrees with itself over every graph and every path.

Properties over 200 generated programs (ALGORITHM.md §12, §13); the
values of the plain Algorithms 8/9 are pinned separately, by
``test_engine_golden.py``:

1. **Graph equivalence, live** — attached to the running ``Runtime``,
   the kernel over the fully ablated graph (``AblatedArrayDTRG``: parent
   chase, every ancestor, unmemoized VISIT) and over vector clocks
   (``engine="vc"``) report what the kernel over the default graph
   reports: the same ``summary()`` with live task names, the same race
   list in the same order, the same ``race_rows`` (the access-row
   ordinal of each race, where ``explain_races`` stops) and the same
   ``#AvgReaders``.  The ablated graph also issues the same queries in
   the same epochs; only its ``num_visits`` differs.
2. **Replay equivalence** — the default detector under ``replay_trace``
   reproduces the live run's race list and rows and every counter, with
   ``dedupe`` on and off.
3. **Query equivalence** — the kernel's ``ArrayDTRG`` answers like the
   fully ablated graph on *every* task pair of the finished graph.
4. **Fast-path equivalence** — ``check_trace_fast`` over the recorded
   columns reproduces the replay byte-for-byte, every counter included.
5. **Sharded equivalence** — ``check_trace_parallel`` at jobs ∈
   {1, 2, 4} (the same kernel, split by location) stays byte-identical
   to ``check_trace_fast``, every counter included.

The inlined shadow loops of the kernel and the graphs' verdict memo are
exactly the machinery these sweeps exist to keep honest: any verdict or
counter drift shows up as a seed-numbered counterexample.
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
#: Counters every kernel path (live, replayed, fast, sharded) agrees on.
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved", "num_visits",
)
#: Counters the kernel keeps whatever the Algorithm 10 strategy.
STRATEGY_PERF = INVARIANT_PERF[:-1]


def _replay(trace, **options):
    det = DeterminacyRaceDetector(**options)
    replay_trace(trace, [det])
    return det


def _perf(checked) -> dict:
    return dict(checked.perf_stats, num_visits=checked.num_visits)


def _assert_same(got, golden, what, seed, keys=INVARIANT_PERF):
    assert got.summary() == golden.summary(), (
        f"seed {seed}: {what} summary diverges")
    assert [r.pair_key for r in got.races] == [
        r.pair_key for r in golden.races], (
        f"seed {seed}: {what} race order diverges")
    assert list(got.race_rows) == list(golden.race_rows), (
        f"seed {seed}: {what} race_rows diverge")
    assert got.racy_locations == golden.racy_locations
    got_perf, golden_perf = _perf(got), _perf(golden)
    for key in keys:
        assert got_perf[key] == golden_perf[key], (
            f"seed {seed}: {what} counter {key} diverges "
            f"({got_perf[key]} vs {golden_perf[key]})")
    assert abs(got.avg_readers - golden.avg_readers) < 1e-12, (
        f"seed {seed}: {what} #AvgReaders diverges")


class _Report:
    """A detector seen through a check result's comparison surface, its
    counters captured at construction."""

    def __init__(self, det):
        self.det = det
        self.races = det.races
        self.race_rows = det.race_rows
        self.racy_locations = det.racy_locations
        self.perf_stats = det.perf_stats
        self.num_visits = det.dtrg.num_visits
        self.avg_readers = det.avg_readers

    def summary(self):
        return self.det.report.summary()


ALL_OFF = dict(use_lsa=False, memoize_visit=False, use_intervals=False)


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_array_engine_equivalence_fuzz(band):
    racy_seeds = saved = 0
    for seed in range(band, band + BAND):
        program = random_program(random.Random(seed))
        rec = TraceRecorder()
        live = DeterminacyRaceDetector()
        ablated = DeterminacyRaceDetector(**ALL_OFF)
        vc = DeterminacyRaceDetector(engine="vc")
        run_program(program, [rec, live, ablated, vc])
        trace = rec.trace
        golden = _Report(live)
        _assert_same(_Report(ablated), golden, "ablated graph", seed,
                     STRATEGY_PERF)
        _assert_same(_Report(vc), golden, "vc", seed, ())
        racy_seeds += bool(golden.races)
        saved += golden.perf_stats["precede_calls_saved"]

        # Captured at construction, before the all-pairs sweep below:
        # every precede() bumps the query counters.
        arr = _Report(_replay(trace))
        assert [r.pair_key for r in arr.races] == [
            r.pair_key for r in golden.races], (
            f"seed {seed}: replayed race order diverges")
        assert arr.race_rows == golden.race_rows, (
            f"seed {seed}: replayed race_rows diverge")
        for key in INVARIANT_PERF:
            assert _perf(arr)[key] == _perf(golden)[key], (
                f"seed {seed}: replayed counter {key} diverges")
        undeduped = _replay(trace, dedupe=False)
        undeduped_ablated = _replay(trace, dedupe=False, **ALL_OFF)
        assert [r.pair_key for r in undeduped.races] == [
            r.pair_key for r in undeduped_ablated.races], (
            f"seed {seed}: dedupe=False race list diverges")
        assert undeduped.race_rows == undeduped_ablated.race_rows, (
            f"seed {seed}: dedupe=False race_rows diverge")
        assert len(undeduped.races) >= len(golden.races)

        fast = check_trace_fast(encode_trace(trace))
        _assert_same(fast, arr, "fastcheck", seed)

        # All-pairs: the kernel's graph vs the fully ablated one.
        ref = _replay(trace, **ALL_OFF).dtrg
        for a in arr.det.dtrg.keys:
            for b in arr.det.dtrg.keys:
                assert arr.det.dtrg.precede(a, b) == ref.precede(a, b), (
                    f"seed {seed}: ArrayDTRG diverges on ({a}, {b})")

        for jobs in JOBS:
            result = check_trace_parallel(trace, jobs=jobs,
                                          backend="inline")
            # num_visits is summed over shards, each with its own memo.
            keys = INVARIANT_PERF if jobs == 1 else INVARIANT_PERF[:-1]
            _assert_same(result, fast, f"jobs={jobs}", seed, keys)
    # A sweep where nothing races would vacuously pass the report
    # comparisons, and one where no call is saved would leave the fast
    # paths unexercised; every band is expected to exercise both.
    assert racy_seeds > 0
    assert saved > 0
