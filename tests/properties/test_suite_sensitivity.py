"""Does the verification methodology actually have teeth?

Each test here *breaks* the detector in a way a plausible implementation
bug would, and asserts that the differential corpus catches it.  If one of
these ever passes silently, the ground-truth suite has gone vacuous — the
meta-failure mode of differential testing.
"""

from repro.baselines import BruteForceDetector
from repro.core.detector import DeterminacyRaceDetector
from repro.testing.programs import CORPUS, run_corpus_program


def corpus_disagrees_with(detector_factory) -> bool:
    """True if any corpus program exposes the broken detector.  The
    mutants break the reference engine's hooks and shadow memory, so they
    run on it; the kernel is held to the reference by the equivalence
    sweeps."""
    for program in CORPUS:
        det = detector_factory(engine="object")
        oracle = BruteForceDetector()
        try:
            run_corpus_program(program, [det, oracle])
        except Exception:
            return True  # crashing counts as caught
        if det.racy_locations != oracle.racy_locations:
            return True
    return False


class _NoNonTreeEdges(DeterminacyRaceDetector):
    """Bug: forget to record non-tree joins (Algorithm 4 else-branch)."""

    def on_get(self, consumer, producer) -> None:
        dtrg = self.dtrg
        c, p = dtrg._nodes[consumer.tid], dtrg._nodes[producer.tid]
        if p.parent is not None and dtrg._sets.same_set(c, p.parent):
            dtrg.merge(consumer.tid, producer.tid)
        # else: silently dropped


class _NoFinishMerges(DeterminacyRaceDetector):
    """Bug: forget Algorithm 6 (end-finish merges)."""

    def on_finish_end(self, scope) -> None:
        pass


class _NoReaderSet(DeterminacyRaceDetector):
    """Bug: never store readers (write-after-read races vanish)."""

    def on_read(self, task, loc) -> None:
        pass


class _AlwaysOrdered(DeterminacyRaceDetector):
    """Bug: precede() returns True unconditionally."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.shadow._precede = lambda a, b: True


class _NeverOrderedAcrossTasks(DeterminacyRaceDetector):
    """Bug: precede() is just identity (pure per-task program order)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.shadow._precede = lambda a, b: a == b


def test_dropped_non_tree_edges_caught():
    assert corpus_disagrees_with(_NoNonTreeEdges)


def test_dropped_finish_merges_caught():
    assert corpus_disagrees_with(_NoFinishMerges)


def test_dropped_reader_set_caught():
    assert corpus_disagrees_with(_NoReaderSet)


def test_always_ordered_caught():
    assert corpus_disagrees_with(_AlwaysOrdered)


def test_never_ordered_caught():
    assert corpus_disagrees_with(_NeverOrderedAcrossTasks)


def test_unbroken_detector_passes_the_same_gauntlet():
    assert not corpus_disagrees_with(DeterminacyRaceDetector)
