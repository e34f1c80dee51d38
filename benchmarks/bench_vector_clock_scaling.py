"""§1's motivation bench: vector clocks "have to be allocated with a size
proportional to the maximum number of simultaneously live tasks (which can
be unboundedly large)".

An interleaved spawn/join loop makes main's clock accumulate one component
per joined task, so every subsequent spawn copies an ever-larger clock:
total copied entries grow quadratically for the vector-clock detector
while the DTRG detector's per-task state stays constant-size.  The
assertions pin the qualitative shape (clock width tracks task count;
copied entries superlinear); the benchmark timings show the wall-clock
consequence.
"""

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.parallel_detector import ParallelRaceDetector
from repro.runtime.runtime import Runtime

SIZES = [64, 128, 256]


def spawn_join_interleaved(n):
    def entry(rt):
        for _ in range(n):
            rt.future(lambda: None).get()

    return entry


@pytest.mark.parametrize("n", SIZES)
def test_vector_clock_spawn_join(benchmark, n):
    def run():
        det = ParallelRaceDetector()
        rt = Runtime(observers=[det])
        rt.run(spawn_join_interleaved(n))
        return det

    det = benchmark(run)
    assert det.max_clock_size >= n  # clock width tracks task count
    # copies grow superlinearly (~n^2/2 entries overall)
    assert det.total_clock_entries_copied >= n * (n - 1) // 4


@pytest.mark.parametrize("n", SIZES)
def test_dtrg_spawn_join(benchmark, n):
    def run():
        det = DeterminacyRaceDetector()
        rt = Runtime(observers=[det])
        rt.run(spawn_join_interleaved(n))
        return det

    det = benchmark(run)
    # constant-size per-task state: one label + one set entry per task
    assert det.dtrg.num_tree_merges == n
    assert det.dtrg.num_non_tree_edges == 0
