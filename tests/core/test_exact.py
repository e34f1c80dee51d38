"""Exactness of the access-stamp vector-clock detector under any handle flow.

:class:`~repro.core.parallel_detector.ParallelRaceDetector` (``racecheck
--detector exact``) stamps every access with its task's own clock
component, so it orders a task's prefix and suffix around a spawn or a
join separately — the refinement the task-granularity DTRG cannot
express outside the language's reference-flow discipline (DESIGN.md
deviation #4).  The first cases drive its hooks directly, in orders no
serial elision produces; the rest run programs.
"""

from types import SimpleNamespace

import pytest

from repro import ParallelRaceDetector, Runtime, SharedArray
from repro.baselines import BruteForceDetector
from repro.core.detector import DeterminacyRaceDetector
from repro.testing.generator import (
    Async,
    Future,
    Get,
    Program,
    Read,
    Write,
    run_program,
)
from repro.testing.programs import CORPUS, run_corpus_program


def run(builder, locs=4):
    det = ParallelRaceDetector()
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", locs)
    rt.run(lambda _rt: builder(rt, mem))
    return det


# ---------------------------------------------------------------------- #
# Access stamps, driven hook by hook                                     #
# ---------------------------------------------------------------------- #
def task(tid):
    return SimpleNamespace(tid=tid, name=f"t{tid}")


def started(*tids):
    """A detector past ``on_init(main)`` and the tasks named by ``tids``
    (0 is main)."""
    det = ParallelRaceDetector()
    det.on_init(task(0))
    return det, [task(tid) for tid in tids]


def test_program_order():
    det, (main,) = started(0)
    det.on_write(main, "x")
    det.on_read(main, "x")
    det.on_write(main, "x")
    assert det.racy_locations == set()


def test_spawn_prefix_bound():
    det, (main, child) = started(0, 1)
    det.on_write(main, "before")
    det.on_task_create(main, child)
    det.on_write(main, "after")
    # the parent's access BEFORE the spawn precedes the child...
    det.on_read(child, "before")
    # ...but its access AFTER the spawn does not.
    det.on_read(child, "after")
    assert det.racy_locations == {"after"}


def test_join_orders_whole_producer():
    det, (main, child) = started(0, 1)
    det.on_task_create(main, child)
    det.on_write(child, "x")
    det.on_task_end(child)
    det.on_get(main, child)
    det.on_read(main, "x")
    assert det.racy_locations == set()


def test_join_time_bounds_consumer_suffix_only():
    """A join into X orders the producer before X's steps after the join,
    not before a task X spawned earlier."""
    det, (main, p, c) = started(0, 1, 2)
    det.on_task_create(main, p)        # producer P
    det.on_write(p, "x")               # accesses inside P
    det.on_write(p, "z")
    det.on_task_end(p)
    det.on_task_create(main, c)        # consumer C (sibling)
    det.on_get(main, p)                # main joins P *after* spawning C
    # P's access does not precede C: C was spawned before the join...
    det.on_read(c, "x")
    # ...but it does precede main's current step.
    det.on_read(main, "z")
    assert det.racy_locations == {"x"}


def test_bound_upgrade_reexpansion():
    """An access after a consumer's spawn reaches it through a later join
    path (access -> spawn(F) -> F end -> C joins F), while an access after
    F's spawn stays unordered with C."""
    det, (main, c, f) = started(0, 1, 2)
    det.on_task_create(main, c)        # consumer C
    det.on_write(main, "x")            # main's access AFTER spawning C
    det.on_task_create(main, f)        # F, spawned after the access
    det.on_write(main, "y")            # and an access after F's spawn
    det.on_task_end(f)
    det.on_get(c, f)                   # C joins F (wild flow)
    det.on_read(c, "x")
    det.on_read(c, "y")
    assert det.racy_locations == {"y"}


def test_query_counters_populate():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        f.get()
        mem.read(0)

    det = run(prog)
    assert det.num_accesses == 2
    assert det.total_clock_entries_copied >= 2  # the spawn and the join
    assert det.mutation_epoch >= 3
    assert det.max_clock_size == 2


# ---------------------------------------------------------------------- #
# Regressions: the shrunk wild-mode counterexamples                      #
# ---------------------------------------------------------------------- #
def wild_verdicts(program):
    det = ParallelRaceDetector()
    dtrg = DeterminacyRaceDetector()
    oracle = BruteForceDetector()
    run_program(program, [det, dtrg, oracle], scoped_handles=False)
    return det.racy_locations, dtrg.racy_locations, oracle.racy_locations


def test_prefix_escape_false_positive_fixed():
    """DESIGN.md deviation #4, FP case: `async { write x; future{} };
    /*wild*/ get; write x` — ordered through the future's prefix path; the
    task-level DTRG reports a spurious race, the exact detector does not."""
    program = Program(
        body=(
            Async(body=(Write(loc=3), Future(body=()))),
            Get(selector=0.9),
            Write(loc=3),
        ),
        num_locs=4,
    )
    exact, dtrg, oracle = wild_verdicts(program)
    assert oracle == frozenset()
    assert exact == set()          # exact matches ground truth
    assert dtrg == {("x", 3)}      # the documented task-level imprecision


def test_suffix_escape_false_negative_fixed():
    """DESIGN.md deviation #4, FN case: the write after the future spawn
    stays parallel with the wild getter; task-level containment hides it."""
    program = Program(
        body=(
            Async(body=(Future(body=()), Write(loc=2))),
            Future(body=(Get(selector=0.4), Read(loc=2))),
        ),
        num_locs=4,
    )
    exact, dtrg, oracle = wild_verdicts(program)
    assert oracle == {("x", 2)}
    assert exact == {("x", 2)}
    assert dtrg == set()           # the documented task-level miss


def test_lemma4_breakdown_under_wild_flow():
    """Keeping a single async reader is unsound without the discipline:
    a wild get of a future spawned inside async A orders A's *prefix* with
    the getter, so a retained reader can be ordered while a dropped one
    still races.  The vector-clock cell keeps every reader task."""
    program = Program(
        body=(
            Async(body=(Read(loc=2), Future(body=()))),
            Async(body=(Read(loc=2),)),
            Get(selector=0.6),
            Write(loc=2),
        ),
        num_locs=4,
    )
    exact, _, oracle = wild_verdicts(program)
    assert oracle == {("x", 2)}
    assert exact == {("x", 2)}


# ---------------------------------------------------------------------- #
# Agreement on the in-model corpus                                       #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_corpus_agreement(program):
    det = ParallelRaceDetector()
    run_corpus_program(program, [det])
    assert det.racy_locations == program.racy


def test_basic_detection_and_policies():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))

    det = run(prog)
    assert det.racy_locations == {("x", 0)}
    from repro import RaceError

    strict = ParallelRaceDetector(policy="raise")
    rt = Runtime(observers=[strict])
    mem = SharedArray(rt, "x", 2)
    with pytest.raises(RaceError):
        rt.run(lambda _rt: prog(rt, mem))
