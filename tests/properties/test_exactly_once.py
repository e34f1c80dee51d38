"""Each task runs exactly once on ThreadRuntime, inlined or popped.

ThreadRuntime claims every spawned task exactly once: either the worker
that pops it runs it, or a thread blocked at a ``get`` or finish exit
runs it inline (try-unfork) and the popped copy is dropped.  For
generated programs (scoped handles) at every pool size and several steal
seeds, require that

* every created task's ``on_task_end`` fires exactly once;
* the online :class:`ParallelRaceDetector`'s racy-location set equals
  the brute-force oracle's on the serial elision;
* a race-free program's final memory equals the serial elision's (every
  statement writes its path token, so a task run twice or never shows).
"""

import collections
import random

import pytest

from repro.baselines.brute_force import BruteForceDetector
from repro.core.events import ExecutionObserver
from repro.core.parallel_detector import ParallelRaceDetector
from repro.testing.generator import (
    random_program,
    run_program_threads,
    run_program_values,
)

SEEDS = 100
CHUNK = 25


class _TaskEnds(ExecutionObserver):
    """Counts ``on_task_end`` per created task."""

    def __init__(self) -> None:
        self.created = []
        self.ends = collections.Counter()

    def on_init(self, main) -> None:
        self.created.append(main.tid)

    def on_task_create(self, parent, child) -> None:
        self.created.append(child.tid)

    def on_task_end(self, task) -> None:
        self.ends[task.tid] += 1


@pytest.mark.parametrize("chunk", range(SEEDS // CHUNK))
def test_each_task_runs_exactly_once(chunk):
    inlined = 0
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = random_program(random.Random(seed))
        oracle = BruteForceDetector()
        _rt, serial_mem = run_program_values(program, [oracle])
        want = set(oracle.racy_locations)
        for workers in (1, 2, 4):
            for steal_seed in (0, 1, 2):
                ends, det = _TaskEnds(), ParallelRaceDetector()
                rt, mem = run_program_threads(
                    program, [ends, det], workers=workers,
                    steal_seed=steal_seed,
                )
                where = f"seed {seed} workers {workers} steal {steal_seed}"
                assert len(ends.created) == rt.num_tasks, where
                assert ends.ends == collections.Counter(ends.created), where
                assert set(det.racy_locations) == want, where
                if not want:
                    assert mem == serial_mem, where
                inlined += rt.inlined
    assert inlined > 0  # the sweep exercises the inline path
