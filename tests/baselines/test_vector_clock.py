"""Unit tests for the precise vector-clock detector of the paper's §1
(:class:`~repro.core.parallel_detector.ParallelRaceDetector`)."""

import random

from repro import (
    DeterminacyRaceDetector,
    ParallelRaceDetector,
    Runtime,
    SharedArray,
)
from repro.testing.generator import random_program, run_program
from repro.testing.programs import CORPUS, run_corpus_program


def run(builder, locs=4):
    det = ParallelRaceDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return det


def test_basic_race_and_order():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))
        mem.write(0, 3)  # ordered by the finish

    det = run(prog)
    assert det.racy_locations == {("x", 0)}
    assert len(det.races) == 1


def test_future_joins_supported():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1), name="p")

        def consumer():
            f.get()
            mem.read(0)

        g = rt.future(consumer)
        g.get()
        mem.write(0, 2)

    det = run(prog)
    assert not det.report.has_races


def test_agreement_with_dtrg_on_corpus():
    for program in CORPUS:
        vc = ParallelRaceDetector()
        ref = DeterminacyRaceDetector()
        run_corpus_program(program, [vc, ref])
        assert vc.racy_locations == ref.racy_locations == program.racy, (
            program.name
        )


def test_agreement_with_dtrg_on_random_programs():
    for seed in range(40):
        prog = random_program(random.Random(seed + 1000))
        vc = ParallelRaceDetector()
        ref = DeterminacyRaceDetector()
        run_program(prog, [vc, ref])
        assert vc.racy_locations == ref.racy_locations, seed


def test_clock_size_grows_with_live_tasks():
    """The paper's impracticality argument: clock width tracks the number
    of tasks ever live, not the processor count."""

    def prog(rt, mem):
        handles = [rt.future(lambda: None) for _ in range(32)]
        for h in handles:
            h.get()

    det = run(prog)
    # main joined 32 futures: its clock has one entry per task + itself
    assert det.max_clock_size >= 33
    assert det.total_clock_entries_copied >= 32


def test_copy_cost_grows_quadratically_with_joined_spawns():
    def cost(n):
        def prog(rt, mem):
            for _ in range(n):
                rt.future(lambda: None).get()

        det = run(prog)
        return det.total_clock_entries_copied

    c1, c2 = cost(10), cost(20)
    # joining k futures makes main's clock size ~k; each spawn copies it:
    # doubling n should roughly quadruple the copied entries.
    assert c2 > 3 * c1
