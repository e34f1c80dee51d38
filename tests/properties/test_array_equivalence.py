"""The one kernel ≡ the reference engine, under fuzzing.

Properties over 200 generated programs (ALGORITHM.md §12, §13), each
against the reference engine (``engine="object"``: the object DTRG plus
``ShadowMemory``) replaying the recorded trace:

1. **Live equivalence** — the default detector, attached to the running
   ``Runtime``, reports what the reference engine attached to the same
   run reports: the same ``summary()`` with live task names, the same
   race list in the same order, the same ``race_rows`` (the access-row
   ordinal of each race, where ``explain_races`` stops), the same
   ``mutation_epoch`` and ``num_visits``, the same ``#AvgReaders``, and
   query counts tied by the closed-form identity below.
2. **Replay equivalence** — the default detector under ``replay_trace``
   matches the reference replay the same way, with ``dedupe`` on and
   off.
3. **Query equivalence** — the kernel's ``ArrayDTRG`` is bit-equivalent
   to the object DTRG on *every* task pair of the finished graph.
4. **Fast-path equivalence** — ``check_trace_fast`` over the recorded
   columns reproduces the reference replay byte-for-byte.
5. **Sharded equivalence** — ``check_trace_parallel`` at jobs ∈
   {1, 2, 4} (the same kernel, split by location) stays byte-identical
   to ``check_trace_fast``, every counter included.

The reference engine runs the plain Algorithms 8/9; the fast paths exist
only in the kernel.  Every ``PRECEDE`` call they skip repeats a query
made earlier in the same mutation epoch, so it is answered at level 0 or
from the verdict memo and costs no VISIT: the reference engine's
``precede_queries`` equals the kernel's ``precede_queries +
precede_calls_saved``, and everything else matches exactly.

The verdict memo both graphs keep and the inlined shadow loops of the
kernel are exactly the machinery these sweeps exist to keep honest: any
verdict or counter drift shows up as a seed-numbered counterexample.
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
#: Counters the reference engine's plain Algorithms 8/9 share with the
#: kernel; its query count obeys the identity in ``_assert_reference``.
SHARED_PERF = ("mutation_epoch", "num_visits")


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


def _assert_reference(got, ref, what, seed):
    """``got`` (the kernel) against ``ref`` (the reference engine)."""
    _assert_same(got, ref, what, seed, SHARED_PERF)
    got_perf, ref_perf = _perf(got), _perf(ref)
    assert ref_perf["precede_queries"] == (
        got_perf["precede_queries"] + got_perf["precede_calls_saved"]), (
        f"seed {seed}: {what} breaks the query identity "
        f"({ref_perf['precede_queries']} != "
        f"{got_perf['precede_queries']} + "
        f"{got_perf['precede_calls_saved']})")
    assert ref_perf["shadow_fast_hits"] == 0
    assert ref_perf["precede_calls_saved"] == 0
    return got_perf["precede_calls_saved"]


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


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_array_engine_equivalence_fuzz(band):
    racy_seeds = saved = 0
    for seed in range(band, band + BAND):
        program = random_program(random.Random(seed))
        rec = TraceRecorder()
        live = DeterminacyRaceDetector()
        live_ref = DeterminacyRaceDetector(engine="object")
        run_program(program, [rec, live, live_ref])
        assert live.engine == "array"
        trace = rec.trace
        saved += _assert_reference(_Report(live), _Report(live_ref),
                                   "live kernel", seed)

        golden = _Report(_replay(trace, engine="object"))
        # Captured above, before the all-pairs sweep below: every
        # live-graph precede() bumps the query counters.
        racy_seeds += bool(golden.races)

        arr = _replay(trace)
        _assert_reference(_Report(arr), golden, "replayed kernel", seed)
        undeduped = _replay(trace, dedupe=False)
        undeduped_ref = _replay(trace, engine="object", dedupe=False)
        assert [r.pair_key for r in undeduped.races] == [
            r.pair_key for r in undeduped_ref.races], (
            f"seed {seed}: dedupe=False race list diverges")
        assert undeduped.race_rows == undeduped_ref.race_rows, (
            f"seed {seed}: dedupe=False race_rows diverge")
        assert len(undeduped.races) >= len(golden.races)

        fast = check_trace_fast(encode_trace(trace))
        _assert_reference(fast, golden, "fastcheck", seed)

        # All-pairs: the kernel's array graph vs the live object graph.
        for a in arr.dtrg.keys:
            for b in arr.dtrg.keys:
                assert arr.dtrg.precede(a, b) == golden.det.dtrg.precede(
                    a, b), f"seed {seed}: ArrayDTRG diverges on ({a}, {b})"

        for jobs in JOBS:
            result = check_trace_parallel(trace, jobs=jobs,
                                          backend="inline")
            # num_visits is summed over shards, each with its own memo.
            keys = INVARIANT_PERF if jobs == 1 else INVARIANT_PERF[:-1]
            _assert_same(result, fast, f"jobs={jobs}", seed, keys)
    # A sweep where nothing races would vacuously pass the report
    # comparisons, and one where no call is saved would vacuously pass
    # the query identity; every band is expected to exercise both.
    assert racy_seeds > 0
    assert saved > 0
