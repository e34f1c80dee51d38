"""Stress tests: larger random programs and deep recursion.

These run one order of magnitude beyond the property suite's program
sizes to catch scaling-dependent bugs (recursion limits, quadratic
cliffs, memo-set growth) while staying in CI-friendly time.
"""

import random

from repro import DeterminacyRaceDetector, Runtime, SharedArray
from repro.baselines import BruteForceDetector
from repro.core.parallel_detector import ParallelRaceDetector
from repro.testing.generator import count_stmts, random_program, run_program


def test_large_random_programs_detector_vs_oracle():
    rng = random.Random(987)
    total_stmts = 0
    for _ in range(12):
        program = random_program(
            rng, num_locs=6, max_depth=6, max_block=8, p_task=0.4
        )
        total_stmts += count_stmts(program.body)
        det = DeterminacyRaceDetector()
        oracle = BruteForceDetector()
        run_program(program, [det, oracle])
        assert det.racy_locations == oracle.racy_locations
    assert total_stmts > 500  # actually exercised something sizeable


def test_large_wild_programs_exact_vs_oracle():
    rng = random.Random(5150)
    for _ in range(8):
        program = random_program(
            rng, num_locs=5, max_depth=5, max_block=8, p_task=0.4
        )
        det = ParallelRaceDetector()
        oracle = BruteForceDetector()
        run_program(program, [det, oracle], scoped_handles=False)
        assert det.racy_locations == oracle.racy_locations


def test_thousand_task_flat_fanout():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 1000)

    def prog(rt):
        with rt.finish():
            for i in range(1000):
                rt.async_(lambda i=i: mem.write(i, i))
        return sum(mem.read(i) for i in range(1000))

    total = rt.run(prog)
    assert total == sum(range(1000))
    assert not det.report.has_races
    assert det.dtrg.num_tree_merges == 1000


def test_thousand_future_chain():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 1)

    def prog(rt):
        for i in range(1000):
            rt.future(lambda i=i: mem.write(0, i)).get()
        return mem.read(0)

    assert rt.run(prog) == 999
    assert not det.report.has_races


def test_deep_future_nesting_within_recursion_limit():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    out = {}

    def prog(rt):
        def level(d):
            if d == 0:
                return 0
            return rt.future(level, d - 1).get() + 1

        out["depth"] = level(60)

    rt.run(prog)
    assert out["depth"] == 60
    assert not det.report.has_races


def test_many_readers_single_location():
    """500 parallel future readers of one cell, then an ordered write."""
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 1)

    def prog(rt):
        mem.write(0, 1)
        handles = [rt.future(lambda: mem.read(0)) for _ in range(500)]
        for h in handles:
            h.get()
        mem.write(0, 2)

    rt.run(prog)
    assert not det.report.has_races
    # the reader set actually populated (multi-reader regime)
    assert det.avg_readers > 10
