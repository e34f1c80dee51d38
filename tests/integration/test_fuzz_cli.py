"""End-to-end tests for the ``repro-fuzz`` differential fuzzer."""

import json
from pathlib import Path

import pytest

import repro.tools.fuzz as fuzz
from repro.core.array_dtrg import AblatedArrayDTRG, ArrayDTRG
from repro.obs.validate import validate_witness_report
from repro.testing.codec import entry_from_data
from repro.testing.generator import (
    Async,
    Finish,
    Future,
    Get,
    Program,
    Read,
    Write,
    count_stmts,
)
from repro.tools.racecheck import DETECTORS

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

#: Minimal reproducer for the Lemma-4 future-covered-reader soundness bug.
FUTURE_COVERED_REPRO = Program(
    body=(
        Future((Finish((Async((Read(0),)),)),)),
        Async((Read(0),)),
        Async((Get(0.0), Write(0))),
    ),
    num_locs=1,
)


def plant_future_covered_bug(monkeypatch):
    """Plant a Lemma-4-style reader-policy bug in the ``vector-clock`` row:
    each cell keeps only its first reader, so a parallel reader that a
    later ``get`` cannot order is dropped.  The detector checks a task's
    buffered accesses once per segment, so the bug sits at that check:
    after it, every cell the segment touched keeps its first reader only
    (a segment adds at most one reader per cell, its own task).  (The
    kernel behind every ``dtrg`` row keeps the correct policy, so only
    the ``vector-clock`` row goes red.)"""
    vc_cls = DETECTORS["vector-clock"]

    class OneReaderVC(vc_cls):
        def _check(self, tid):
            locs = self._buffers[tid][::2]
            super()._check(tid)
            for loc in locs:
                readers = self._cells[loc].readers
                if len(readers) > 1:
                    first = next(iter(readers))
                    self._cells[loc].readers = {first: readers[first]}

    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", OneReaderVC)


# ---------------------------------------------------------------------- #
# Clean runs                                                             #
# ---------------------------------------------------------------------- #
def test_small_fuzz_run_is_clean(capsys):
    assert fuzz.main(["--seeds", "0:6"]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert "brute-force" in out and "dtrg" in out
    assert "fuzz run summary" in out


def test_scoped_only_mode(capsys):
    assert fuzz.main(["--seeds", "0:4", "--mode", "scoped"]) == 0
    out = capsys.readouterr().out
    # restricted detectors only run in scoped mode, so they must appear
    assert "spd3" in out and "offset-span" in out


def test_replay_corpus_cli(capsys):
    assert fuzz.main(["--replay-corpus", str(CORPUS_DIR)]) == 0
    out = capsys.readouterr().out
    assert "corpus replay clean" in out
    assert "dtrg_future_covered_reader: ok" in out


@pytest.mark.parametrize("bad", ["5", "3:3", "4:1", "a:b"])
def test_bad_seed_range_is_a_usage_error(bad):
    with pytest.raises(SystemExit) as excinfo:
        fuzz.main(["--seeds", bad])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------- #
# Planted bugs must be caught, minimized, and gated by the corpus        #
# ---------------------------------------------------------------------- #
def test_planted_soundness_bug_is_flagged_and_minimized(monkeypatch, tmp_path):
    plant_future_covered_bug(monkeypatch)
    failures = fuzz.check_seed(0, FUTURE_COVERED_REPRO, modes=("scoped",))
    sigs = [f.signature for f in failures]
    assert "scoped:divergence:vector-clock:missing" in sigs
    assert not any(f.detector.startswith("dtrg") for f in failures)

    failure = next(f for f in failures if f.detector == "vector-clock")
    fuzz._shrink_failure(failure, budget=600)
    assert failure.minimized is not None
    assert count_stmts(failure.minimized.body) <= count_stmts(
        FUTURE_COVERED_REPRO.body
    )

    fuzz.write_corpus_entries([failure], tmp_path)
    paths = sorted(tmp_path.glob("*.json"))
    # The entry, and the witness report of the race the planted engine
    # misses: triage explains the default detector's races.
    assert [p.name.endswith(".witness.json") for p in paths] == [
        False, True]
    with open(paths[0]) as fh:
        entry = entry_from_data(json.load(fh))
    assert entry.racy_locs == (0,)  # the oracle's (correct) verdict
    with open(paths[1]) as fh:
        assert validate_witness_report(json.load(fh)) == []

    # The regression gate now fails while the bug is planted...
    assert fuzz.main(["--replay-corpus", str(tmp_path)]) == 1


def test_corpus_gate_catches_the_planted_bug(monkeypatch, capsys):
    """With the pre-fix detector planted, the checked-in corpus goes red —
    exactly the regression the corpus exists to catch."""
    plant_future_covered_bug(monkeypatch)
    assert fuzz.main(["--replay-corpus", str(CORPUS_DIR)]) == 1
    out = capsys.readouterr().out
    assert "dtrg_future_covered_reader: FAIL" in out


def test_planted_verdict_divergence_in_fuzz_range(monkeypatch):
    """A detector that drops one racy location diverges on racy seeds."""
    vc_cls = DETECTORS["vector-clock"]

    class MissingOneVC(vc_cls):
        @property
        def racy_locations(self):
            full = set(vc_cls.racy_locations.fget(self))
            if full:
                full.discard(min(full))
            return full

    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", MissingOneVC)
    stats, failures = fuzz.fuzz_range(
        range(0, 8), modes=("scoped",), shrink=False
    )
    signatures = {f.signature for f in failures}
    assert "scoped:divergence:vector-clock:missing" in signatures
    assert stats.failures > 0


def test_planted_wild_divergence_is_flagged(monkeypatch):
    """The wild leg compares the vector-clock row with the oracle: the
    planted one-reader cell misses the race a wild get leaves."""
    plant_future_covered_bug(monkeypatch)
    program = Program(
        body=(
            Async((Read(0), Future(()))),
            Async((Read(0),)),
            Get(0.6),
            Write(0),
        ),
        num_locs=1,
    )
    stats = fuzz.FuzzStats()
    sigs = {f.signature for f in fuzz.check_seed(0, program,
                                                 modes=("wild",),
                                                 stats=stats)}
    assert sigs == {"wild:divergence:vector-clock:missing"}
    # Wild runs are tallied like scoped ones, racy verdicts included.
    assert stats.per_detector["brute-force"]["racy"] == 1
    assert stats.per_detector["vector-clock"]["racy"] == 0


class CrashingVC(DETECTORS["vector-clock"]):
    def on_write(self, task, loc):
        raise RuntimeError("injected fault")


def test_planted_crash_is_flagged(monkeypatch):
    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", CrashingVC)
    stats, failures = fuzz.fuzz_range(
        range(0, 2), modes=("scoped",), shrink=False
    )
    assert any(
        f.kind == "crash" and f.detector == "vector-clock"
        and "RuntimeError" in f.signature
        for f in failures
    )


def test_fuzz_range_dedupes_signatures(monkeypatch):
    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", CrashingVC)
    stats, failures = fuzz.fuzz_range(
        range(0, 6), modes=("scoped",), shrink=False
    )
    crash_sigs = [f.signature for f in failures
                  if f.detector == "vector-clock"]
    assert len(crash_sigs) == len(set(crash_sigs))  # deduplicated
    assert stats.failures >= len(crash_sigs)  # raw count keeps every hit


# ---------------------------------------------------------------------- #
# Optimization-flag ablations are cross-checked like any other detector  #
# ---------------------------------------------------------------------- #
def test_ablation_rows_in_scoped_summary(capsys):
    assert fuzz.main(["--seeds", "0:4", "--mode", "scoped"]) == 0
    out = capsys.readouterr().out
    for name in fuzz.ABLATIONS:
        assert name in out


def test_make_detector_applies_ablation_options():
    assert fuzz._make_detector("dtrg[no-lsa]").dtrg.use_lsa is False
    assert fuzz._make_detector("dtrg[no-memo]").dtrg.memoize_visit is False
    assert (fuzz._make_detector("dtrg[no-intervals]").dtrg.use_intervals
            is False)
    # Every row runs the kernel; the plain dtrg row over the plain graph.
    full = fuzz._make_detector("dtrg")
    assert full.engine == "array" and type(full.dtrg) is ArrayDTRG


def test_planted_lsa_ablation_bug_is_flagged(monkeypatch):
    """Break the backward search *only when use_lsa=False*: the stock dtrg
    stays green, so only the ablation sweep can catch the regression."""
    orig = AblatedArrayDTRG._explore

    def broken_explore(self, *a, **kw):
        if not self.use_lsa:
            return False  # never finds a backward path
        return orig(self, *a, **kw)

    monkeypatch.setattr(AblatedArrayDTRG, "_explore", broken_explore)
    # Sibling future join: the write is ordered before the read *only*
    # through the non-tree get edge, which the broken search can't find.
    program = Program(
        body=(Future((Write(0),)), Async((Get(0.0), Read(0)))),
        num_locs=1,
    )
    failures = fuzz.check_seed(0, program, modes=("scoped",))
    sigs = {f.signature for f in failures}
    assert "scoped:divergence:dtrg[no-lsa]:extra" in sigs
    # The full-featured config must NOT diverge from the oracle.
    assert not any(
        f.detector == "dtrg" and f.kind == "divergence" for f in failures
    )


def test_corpus_gate_covers_ablations(monkeypatch, capsys):
    """The checked-in corpus replays through the ablated configs too."""
    orig = AblatedArrayDTRG._explore

    def broken_explore(self, *a, **kw):
        if not self.use_lsa:
            return False
        return orig(self, *a, **kw)

    monkeypatch.setattr(AblatedArrayDTRG, "_explore", broken_explore)
    assert fuzz.main(["--replay-corpus", str(CORPUS_DIR)]) == 1
    assert "dtrg[no-lsa]" in capsys.readouterr().out


def test_fuzz_obs_artifacts(tmp_path, capsys):
    from repro.obs.validate import validate_chrome_trace

    trace = tmp_path / "fuzz-trace.json"
    metrics = tmp_path / "fuzz-metrics.json"
    assert fuzz.main([
        "--seeds", "0:3", "--mode", "scoped",
        "--perfetto", str(trace), "--metrics-json", str(metrics),
    ]) == 0
    data = json.loads(trace.read_text())
    assert validate_chrome_trace(data) == []
    stats = json.loads(metrics.read_text())
    assert stats["counters"]["tasks_spawned"] > 0


# ---------------------------------------------------------------------- #
# Parallel-parity leg (--jobs)                                           #
# ---------------------------------------------------------------------- #
def test_fuzz_with_jobs_is_clean(capsys):
    assert fuzz.main(["--seeds", "0:6", "--mode", "scoped",
                      "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert "dtrg[parallel]" in out


def test_planted_parallel_divergence_is_flagged(monkeypatch):
    """A sharded checker that loses races must surface as a
    parallel-divergence failure, not pass silently."""
    from io import StringIO

    from repro.core import parallel_check as parallel_mod

    class _LyingResult:
        racy_locations = frozenset()

        def summary(self):
            return "no determinacy races detected"

    monkeypatch.setattr(
        parallel_mod, "check_trace_parallel",
        lambda trace, **kwargs: _LyingResult(),
    )
    stats, failures = fuzz.fuzz_range(
        range(0, 8), modes=("scoped",), shrink=False, jobs=2,
        out=StringIO(),
    )
    assert any(f.kind == "parallel-divergence" for f in failures)
    row = stats.per_detector[fuzz.PARALLEL_NAME]
    assert row["divergences"] > 0


# ---------------------------------------------------------------------- #
# Malformed traces: a pointed error or the oracle's verdict, nothing else #
# ---------------------------------------------------------------------- #
def test_malformed_leg_over_a_seed_band():
    """Every mutation kind runs on the seed band; most mutants are
    refused with ``TraceFormatError``, and those that stay valid traces
    check as the oracle does on their decoded events."""
    stats, failures = fuzz.fuzz_range(
        range(0, 40), modes=("scoped",), shrink=False
    )
    assert failures == []
    row = stats.per_detector[fuzz.MALFORMED_NAME]
    assert row["runs"] > 5 * 40 * 0.9
    assert 0 < row["refusals"] < row["runs"]  # both outcomes occur
    assert row["crashes"] == row["divergences"] == 0


@pytest.mark.parametrize("kind", fuzz.MUTATIONS)
def test_each_mutation_breaks_the_columns(kind):
    import random

    from repro.core.events import encode_trace

    _, trace = fuzz._run_live(fuzz.ORACLE, FUTURE_COVERED_REPRO,
                              scoped=True, record=True)
    enc = encode_trace(trace)
    mutant = fuzz.mutate_columns(enc, kind, random.Random(0))
    assert mutant is not None and mutant is not enc
    assert (list(mutant.access), mutant.structure) != (
        list(enc.access), enc.structure)


def test_planted_bare_exception_in_the_checker_is_flagged(monkeypatch):
    """A malformed trace that escapes as a bare exception fails the
    seed."""
    real = fuzz.check_trace_fast

    def checker(enc):
        if len(enc) != len(checker.whole):
            raise IndexError("planted")
        return real(enc)

    def record(name, program, **kwargs):
        det, trace = real_run(name, program, **kwargs)
        if trace is not None:
            checker.whole = trace
        return det, trace

    real_run = fuzz._run_live
    monkeypatch.setattr(fuzz, "_run_live", record)
    monkeypatch.setattr(fuzz, "check_trace_fast", checker)
    stats, failures = fuzz.fuzz_range(
        range(0, 3), modes=("scoped",), shrink=False
    )
    assert any(f.detector == fuzz.MALFORMED_NAME
               and f.signature.startswith("scoped:malformed-crash:")
               and f.signature.endswith(":IndexError") for f in failures)
    assert stats.per_detector[fuzz.MALFORMED_NAME]["crashes"] > 0


# ---------------------------------------------------------------------- #
# The RAISE leg: the eager resume rule stops at the batched run's first race
# ---------------------------------------------------------------------- #
def test_raise_leg_over_a_seed_band():
    stats, failures = fuzz.fuzz_range(
        range(0, 20), modes=("scoped",), shrink=False
    )
    assert failures == []
    row = stats.per_detector[fuzz.RAISE_NAME]
    assert row["runs"] == 20 and row["racy"] > 0
    assert row["crashes"] == row["divergences"] == 0


def test_planted_raise_that_never_raises_is_flagged(monkeypatch):
    """A ``policy="raise"`` run that collects instead of raising diverges
    on every racy seed, and its repro shrinks."""
    from io import StringIO

    from repro import DeterminacyRaceDetector

    monkeypatch.setitem(
        fuzz.DETECTORS, "dtrg",
        lambda policy=None, **options: DeterminacyRaceDetector(**options))
    stats, failures = fuzz.fuzz_range(
        range(0, 6), modes=("scoped",), shrink=True, out=StringIO()
    )
    flagged = [f for f in failures if f.detector == fuzz.RAISE_NAME]
    assert flagged and all(f.kind == "divergence" for f in flagged)
    assert "raised nothing" in flagged[0].detail
    assert count_stmts(flagged[0].repro.body) < count_stmts(
        flagged[0].program.body)
    # Failures are deduplicated by signature; the row counts every seed.
    assert stats.per_detector[fuzz.RAISE_NAME]["divergences"] > 1
