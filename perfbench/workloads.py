"""Benchmark workloads: seeded inputs, how to run them, and their answers.

A workload is a list of *units*, each one program run.  ``stencil`` is
one unit; ``racy-dag`` is a fixed number of small generated
programs of about the same size, so a run's cost does not swing with the
size of whichever programs a seed happens to draw.

Every unit runs on either runtime the checking paths need: the serial
depth-first ``Runtime`` or the work-stealing ``ThreadRuntime``.  The known
answer for each unit is exact: the race-free Table 2 program must pass
its ``verify()`` against the serial elision and report no races, and a
generated program's racy locations come from the brute-force oracle
(:func:`oracle_racy_locations`, which is kept out of every timed process).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro import Runtime, ThreadRuntime
from repro.testing.generator import (
    Async,
    Finish,
    Future,
    Read,
    Write,
    count_stmts,
    random_program,
    run_program,
    run_program_threads,
)
from repro.workloads import jacobi

NAMES = ("stencil", "racy-dag")
SIZES = ("bench", "tiny")


class Workload:
    """Seeded inputs for one workload at one size.

    ``run(unit, observers, threads_workers)`` executes one unit with the
    given observers attached, on the serial runtime when
    ``threads_workers`` is ``None`` and on a ``ThreadRuntime`` with that
    many workers otherwise.  It returns ``(runtime, result)``.
    ``verify(unit, result)`` raises ``AssertionError`` when a race-free
    unit computed the wrong answer.  ``seq(unit)`` runs the serial
    elision: the program with no runtime and no instrumentation.
    """

    name: str
    race_free: bool

    def __init__(self, seed: int, size: str) -> None:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.units: List = []

    def run(self, unit, observers: Sequence, threads_workers: Optional[int]):
        raise NotImplementedError

    def verify(self, unit, result) -> None:
        raise NotImplementedError

    def seq(self, unit) -> None:
        raise NotImplementedError


def _run_entry(entry: Callable, observers, threads_workers, steal_seed):
    if threads_workers is None:
        rt = Runtime(observers=list(observers))
    else:
        rt = ThreadRuntime(
            observers=list(observers), workers=threads_workers,
            steal_seed=steal_seed,
        )
    return rt, rt.run(entry)


class Stencil(Workload):
    """Jacobi ``run_future``: tile tasks ``get`` the previous sweep's
    neighbour futures (non-tree joins) over a seeded random grid."""

    name = "stencil"
    race_free = True

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        if size == "tiny":
            params = jacobi.JacobiParams(interior=8, tile=4, sweeps=2, seed=seed)
        else:
            params = jacobi.JacobiParams(interior=64, tile=16, sweeps=4,
                                         seed=seed)
        self.units = [params]

    def run(self, unit, observers, threads_workers):
        return _run_entry(lambda rt: jacobi.run_future(rt, unit), observers,
                          threads_workers, self.seed)

    def verify(self, unit, result) -> None:
        jacobi.verify(unit, result)

    def seq(self, unit) -> None:
        jacobi.serial(unit)


class RacyDag(Workload):
    """Seeded random async/finish/future programs with scoped handles:
    irregular nesting, non-tree ``get``s, reads beside writes on a few
    shared cells, and races."""

    name = "racy-dag"
    race_free = False
    #: How many generated programs every seed gets, and the statement
    #: counts a program must fall between to be kept.  Every seed runs the
    #: same number of programs of about the same size, so per-program
    #: costs (a fork pool per check on the jobs path, a thread pool per
    #: run on the threads path) and total work do not swing with the
    #: seed.  When any program size was kept up to a fixed statement
    #: total, the program count ranged from 74 to 132 over seeds and the
    #: jobs path's time followed it.  With 50 programs, the serial path's
    #: time for some seeds stayed 15% off the others in every run.  The
    #: cap also keeps checking cost,
    #: which grows faster than linearly in a program's size (VISIT
    #: searches; the oracle's closure grows with the square of the step
    #: count), from being dominated by one large program.
    PROGRAMS = {"tiny": 2, "bench": 100}
    PROGRAM_STMTS = (130, 190)

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        rng = random.Random(seed)
        low, high = self.PROGRAM_STMTS
        while len(self.units) < self.PROGRAMS[size]:
            program = random_program(rng, num_locs=8, max_depth=6,
                                     max_block=8)
            if low <= count_stmts(program.body) <= high:
                self.units.append(program)

    def run(self, unit, observers, threads_workers):
        if threads_workers is None:
            return run_program(unit, observers), None
        rt, _memory = run_program_threads(
            unit, observers, workers=threads_workers, steal_seed=self.seed,
        )
        return rt, None

    def verify(self, unit, result) -> None:
        """Generated programs compute nothing; the race verdict is the
        whole answer."""

    def seq(self, unit) -> None:
        memory = [None] * unit.num_locs
        _elide(unit.body, memory)


def _elide(body, memory: list) -> None:
    # Depth-first execution is a valid serial schedule: every spawned body
    # runs to completion where it is spawned, so a get is a no-op.
    for stmt in body:
        if type(stmt) is Read:
            memory[stmt.loc]
        elif type(stmt) is Write:
            memory[stmt.loc] = None
        elif type(stmt) in (Async, Future, Finish):
            _elide(stmt.body, memory)


WORKLOADS = {cls.name: cls for cls in (Stencil, RacyDag)}


def make(name: str, seed: int, size: str = "bench") -> Workload:
    """Build the named workload's inputs from ``seed``."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return cls(seed, size)


def location_keys(locations) -> List[str]:
    """A racy-location set as sorted ``repr`` strings, the form results
    are compared and shipped between processes in."""
    return sorted(repr(loc) for loc in locations)


def oracle_racy_locations(workload: Workload) -> List[List[str]]:
    """Exact racy-location set of every unit, from the brute-force
    transitive-closure detector.  Race-free workloads are known to have
    none, so only ``racy-dag`` runs the oracle."""
    if workload.race_free:
        return [[] for _ in workload.units]
    from repro.baselines import BruteForceDetector

    answers = []
    for program in workload.units:
        detector = BruteForceDetector()
        run_program(program, [detector])
        answers.append(location_keys(detector.racy_location_set()))
    return answers


__all__ = ["NAMES", "SIZES", "Workload", "make", "location_keys",
           "oracle_racy_locations"]
