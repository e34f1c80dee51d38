"""``repro-fuzz`` legs: one runner books every leg, one predicate
shrinks them.

The runner books the oracle's own run like any other leg.  The shrink
predicate re-runs the failing leg on each candidate program and keeps
the candidate only if the failure's exact signature comes back.  These
tests plant faults that only those rules handle: an oracle crash, a
divergence or crash that shows in the replay alone (so re-running the
live detector does not bring it back), a crash whose exception type
depends on the program, and a failure that does not recur at all (which
must not be reported as minimized).
"""

import pytest

import repro.tools.fuzz as fuzz
from repro.core.events import TraceFormatError, WriteEvent
from repro.testing.generator import (
    Async,
    Finish,
    Program,
    Read,
    Write,
    count_stmts,
    run_program,
)
from repro.tools.racecheck import DETECTORS

#: A write-write race on x0 (child vs main) amid accesses that do not
#: matter to it: every planted failure below shrinks to a part of it.
PROGRAM = Program(
    body=(
        Async((Write(0), Read(1))),
        Write(0),
        Read(1),
        Finish((Read(2), Write(2))),
    ),
    num_locs=3,
)


def _signatures(program, modes):
    return {f.signature for f in fuzz.check_seed(0, program, modes=modes)}


def test_an_oracle_crash_is_booked_not_raised(monkeypatch):
    """The legs that read the oracle's trace are skipped, the others run
    without a comparison, and the crash itself shrinks."""

    class CrashingOracle(DETECTORS[fuzz.ORACLE]):
        def on_write(self, task, loc):
            raise RuntimeError("planted oracle fault")

    monkeypatch.setitem(fuzz.DETECTORS, fuzz.ORACLE, CrashingOracle)
    stats = fuzz.FuzzStats()
    failures = fuzz.check_seed(0, PROGRAM, modes=("scoped",), stats=stats)
    assert [f.signature for f in failures] == [
        "scoped:crash:brute-force:RuntimeError"]
    assert stats.per_detector[fuzz.ORACLE]["crashes"] == 1
    assert stats.per_detector["dtrg"]["runs"] == 1
    assert fuzz.MALFORMED_NAME not in stats.per_detector

    fuzz._shrink_failure(failures[0], budget=400)
    assert count_stmts(failures[0].minimized.body) == 1  # one write


def _plant_replay(monkeypatch, fault):
    """Route every replay into a ``vc``-engine detector through
    ``fault(trace, observers, replay)``; other replays run as recorded."""
    real = fuzz.replay_trace

    def replay(trace, observers):
        if any(getattr(o, "engine", None) == "vc" for o in observers):
            return fault(trace, observers, real)
        return real(trace, observers)

    monkeypatch.setattr(fuzz, "replay_trace", replay)


def test_a_replay_only_divergence_in_the_vc_row_shrinks(monkeypatch):
    """The replayed ``vc`` detector never sees a write, so it misses every
    race the live run reports."""
    _plant_replay(monkeypatch, lambda trace, observers, replay: replay(
        [e for e in trace if not isinstance(e, WriteEvent)], observers))
    failures = fuzz.check_seed(0, PROGRAM, modes=("scoped",))
    failure = next(f for f in failures if f.signature == "scoped:replay:vc")
    assert failure.kind == "replay-divergence"

    fuzz._shrink_failure(failure, budget=400)
    assert failure.minimized is not None
    assert count_stmts(failure.minimized.body) < count_stmts(PROGRAM.body)
    assert "scoped:replay:vc" in _signatures(failure.minimized, ("scoped",))


def test_a_wild_replay_only_crash_shrinks(monkeypatch):
    """The replay of a ``vc`` trace that holds a write raises; the live
    run never does."""

    def crash(trace, observers, replay):
        if any(isinstance(e, WriteEvent) for e in trace):
            raise RuntimeError("planted replay fault")
        return replay(trace, observers)

    _plant_replay(monkeypatch, crash)
    failures = fuzz.check_seed(0, PROGRAM, modes=("wild",))
    failure = next(f for f in failures
                   if f.signature == "wild:replay-crash:vc:RuntimeError")

    fuzz._shrink_failure(failure, budget=400)
    assert failure.minimized is not None
    assert count_stmts(failure.minimized.body) == 1  # one write
    assert ("wild:replay-crash:vc:RuntimeError"
            in _signatures(failure.minimized, ("wild",)))


def test_a_failure_that_does_not_recur_is_not_minimized(monkeypatch):
    """The planted ``vector-clock`` row loses its races on its first
    instance only, so the re-run in the shrink predicate is clean: the
    repro is the program as found, not labelled minimized."""
    vc_cls = DETECTORS["vector-clock"]
    made = []

    class FirstRunLosesRaces(vc_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        @property
        def racy_locations(self):
            if self is made[0]:
                return set()
            return vc_cls.racy_locations.fget(self)

    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", FirstRunLosesRaces)
    failures = fuzz.check_seed(0, PROGRAM, modes=("scoped",))
    failure = next(f for f in failures
                   if f.signature == "scoped:divergence:vector-clock:missing")

    fuzz._shrink_failure(failure, budget=400)
    assert failure.minimized is None
    assert failure.repro is PROGRAM


class TwoErrorsVC(DETECTORS["vector-clock"]):
    """Raises ``TraceFormatError`` on a write and ``ValueError`` (its base
    class) on a read."""

    def on_write(self, task, loc):
        raise TraceFormatError(0, "planted write fault")

    def on_read(self, task, loc):
        raise ValueError("planted read fault")


def test_a_crash_repro_keeps_its_exception_type(monkeypatch):
    """A program with a read and a write crashes at the write first; a
    smaller program of the read alone crashes too, but with another
    exception, so it is no repro of this failure."""
    monkeypatch.setitem(fuzz.DETECTORS, "vector-clock", TwoErrorsVC)
    program = Program(body=(Write(0), Read(0)), num_locs=1)
    failures = fuzz.check_seed(0, program, modes=("scoped",))
    failure = next(
        f for f in failures
        if f.signature == "scoped:crash:vector-clock:TraceFormatError")

    fuzz._shrink_failure(failure, budget=400)
    assert failure.minimized is not None
    assert count_stmts(failure.minimized.body) == 1
    with pytest.raises(TraceFormatError):
        run_program(failure.repro, [DETECTORS["vector-clock"]()])


def test_unshrinkable_legs_leave_their_repro_alone(monkeypatch):
    """A malformed-trace failure belongs to one recorded trace: it is
    reported as found, never minimized."""

    def checker(enc):
        raise IndexError("planted")

    monkeypatch.setattr(fuzz, "check_trace_fast", checker)
    failures = fuzz.check_seed(0, PROGRAM, modes=("scoped",))
    failure = next(f for f in failures
                   if f.detector == fuzz.MALFORMED_NAME)
    fuzz._shrink_failure(failure, budget=400)
    assert failure.minimized is None
