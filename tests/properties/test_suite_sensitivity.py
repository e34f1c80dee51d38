"""Does the verification methodology actually have teeth?

Each test here *breaks* the detector in a way a plausible implementation
bug would, and asserts that the differential corpus catches it.  If one of
these ever passes silently, the ground-truth suite has gone vacuous — the
meta-failure mode of differential testing.
"""

from repro.baselines import BruteForceDetector
from repro.core.array_dtrg import ArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.testing.programs import CORPUS, run_corpus_program


def corpus_disagrees_with(detector_factory) -> bool:
    """True if any corpus program exposes the broken detector."""
    for program in CORPUS:
        det = detector_factory()
        oracle = BruteForceDetector()
        try:
            run_corpus_program(program, [det, oracle])
        except Exception:
            return True  # crashing counts as caught
        if det.racy_locations != oracle.racy_locations:
            return True
    return False


def _on_graph(graph_cls):
    """The kernel over a broken graph: the detector's hooks are bound
    when it is built, so the mutants break the graph the kernel drives
    (the kernel takes ``det.dtrg`` when the run starts)."""

    class Mutant(DeterminacyRaceDetector):
        def __init__(self):
            super().__init__()
            self.dtrg = graph_cls()

    return Mutant


class _NoNonTreeEdgesGraph(ArrayDTRG):
    """Bug: forget to record non-tree joins (Algorithm 4 else-branch)."""

    def record_join_idx(self, consumer_idx, producer_idx):
        par = self.parent[producer_idx]
        rc = self.find(consumer_idx)
        if rc != self.find(producer_idx) and par >= 0 \
                and self.find(par) == rc:
            self.merge_idx(consumer_idx, producer_idx)
        # else: silently dropped


class _NoFinishMergesGraph(ArrayDTRG):
    """Bug: forget Algorithm 6 (end-finish merges); a tree-join ``get``
    still merges."""

    def record_join_idx(self, consumer_idx, producer_idx):
        self.in_get = True
        super().record_join_idx(consumer_idx, producer_idx)
        self.in_get = False

    def merge_idx(self, ancestor_idx, descendant_idx):
        if getattr(self, "in_get", False):
            super().merge_idx(ancestor_idx, descendant_idx)


class _AlwaysOrderedGraph(ArrayDTRG):
    """Bug: precede() returns True unconditionally."""

    def precede_idx(self, ia, ib):
        return True


class _NeverOrderedGraph(ArrayDTRG):
    """Bug: precede() is just identity (pure per-task program order)."""

    def precede_idx(self, ia, ib):
        return ia == ib


_NoNonTreeEdges = _on_graph(_NoNonTreeEdgesGraph)
_NoFinishMerges = _on_graph(_NoFinishMergesGraph)
_AlwaysOrdered = _on_graph(_AlwaysOrderedGraph)
_NeverOrderedAcrossTasks = _on_graph(_NeverOrderedGraph)


class _NoReaderSet(DeterminacyRaceDetector):
    """Bug: drop every read, so no reader is ever stored (write-after-read
    races vanish)."""

    def __init__(self):
        super().__init__()
        self.on_read = lambda task, loc: None


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
