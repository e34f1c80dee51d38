"""The default detector runs the one kernel live, block by block.

Covers what the equivalence sweeps do not: engine selection, the
``RAISE`` timing and inertness, the dropped columns, the counters the
live sampler reads, ``flush`` after an aborted run, and the race count
``check_trace_fast`` reports to a progress counter.
"""

import random

import pytest

from repro import (
    DeterminacyRaceDetector,
    Observability,
    RaceError,
    Runtime,
    SharedVar,
)
from repro.core.events import (
    ReadEvent, TaskCreateEvent, TaskEndEvent, Trace, WriteEvent,
)
from repro.core.fastcheck import check_trace_fast
from repro.memory.tracer import replay_trace
from repro.obs.live import ProgressCounter
from repro.testing.generator import random_program, run_program


def test_engine_selection():
    assert DeterminacyRaceDetector().engine == "array"
    assert DeterminacyRaceDetector(engine="dtrg").engine == "object"
    assert DeterminacyRaceDetector(
        obs=Observability()).engine == "array"
    assert DeterminacyRaceDetector(
        memoize_visit=False).engine == "object"
    assert DeterminacyRaceDetector(engine="vc").engine == "vc"


def _racy_seeds(count):
    seeds = []
    seed = 0
    while len(seeds) < count:
        program = random_program(random.Random(seed))
        det = DeterminacyRaceDetector(engine="object")
        run_program(program, [det])
        if det.races:
            seeds.append(seed)
        seed += 1
    return seeds


def _first_race(program, **options):
    det = DeterminacyRaceDetector(policy="raise", **options)
    with pytest.raises(RaceError) as excinfo:
        run_program(program, [det])
    return det, excinfo.value.race


@pytest.mark.parametrize("seed", _racy_seeds(20))
def test_raise_stops_at_the_first_race(seed):
    program = random_program(random.Random(seed))
    kernel, race = _first_race(program)
    reference, reference_race = _first_race(program, engine="object")
    assert race == reference_race
    assert kernel.races == [race] == reference.races


def test_raise_waits_for_the_block_then_turns_inert():
    """The racing write's block closes at the next spawn; the error
    carries the race, and nothing is checked after it, even when the
    program catches the error and races again."""
    det = DeterminacyRaceDetector(policy="raise")
    rt = Runtime(observers=[det])
    x = SharedVar(rt, "x")
    y = SharedVar(rt, "y")
    seen = []

    def program(r):
        r.async_(lambda: x.write(1))
        x.write(2)               # races with the child ...
        seen.append(len(det.races))
        try:
            r.async_(lambda: None)   # ... reported when this spawn arrives
        except RaceError as exc:
            seen.append(exc.race)
        r.async_(lambda: y.write(1))
        y.write(2)               # a second race, never checked

    rt.run(program)
    assert seen[0] == 0
    assert seen[1].loc == x.key
    assert det.races == [seen[1]]


def test_columns_hold_no_consumed_rows():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    x = SharedVar(rt, "x")
    sizes = []

    def child():
        columns = det._columns
        sizes.append((len(columns.access), len(columns.structure),
                      len(columns.runs)))

    def program(r):
        for i in range(50):
            x.write(i)
            x.read()
        r.async_(child)

    rt.run(program)
    assert sizes == [(0, 0, 0)]
    columns = det._columns
    assert (len(columns.access), len(columns.structure),
            len(columns.runs)) == (0, 0, 0)
    assert det.num_accesses == 100
    assert det.num_locations == 1


def test_live_counters_lag_by_at_most_one_block():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    x = SharedVar(rt, "x")
    counts = []

    def program(r):
        x.write(1)
        x.write(2)
        counts.append(det.num_accesses)   # block still open
        r.async_(lambda: None)
        counts.append(det.num_accesses)   # closed by the spawn

    rt.run(program)
    assert counts == [0, 2]


def test_flush_checks_the_block_an_aborted_run_left_open():
    racy = []
    for engine in ("array", "object"):
        det = DeterminacyRaceDetector(engine=engine)
        rt = Runtime(observers=[det])
        x = SharedVar(rt, "x")

        def program(r):
            r.future(lambda: x.write(1))
            x.read()  # races with the unjoined future's write
            raise RuntimeError("abort before any event closes the block")

        with pytest.raises(RuntimeError):
            rt.run(program)
        det.flush()
        det.flush()  # nothing left: a second flush checks nothing
        racy.append(([r.pair_key for r in det.races], det.race_rows,
                     det.num_accesses))
    assert racy[0] == racy[1]
    assert len(racy[0][0]) == 1 and racy[0][2] == 2


def _duplicate_race_trace():
    """An unjoined child writes ``x``; main then reads it twice.  Both
    reads race with the write, and the deduplicating report keeps one."""
    return Trace(events=[
        TaskCreateEvent(parent=0, child=1, is_future=False, ief=0),
        WriteEvent(task=1, loc="x"),
        TaskEndEvent(task=1),
        ReadEvent(task=0, loc="x"),
        ReadEvent(task=0, loc="x"),
    ])


def test_progress_counts_only_reported_races():
    trace = _duplicate_race_trace()
    progress = ProgressCounter()
    result = check_trace_fast(trace, progress=progress)
    assert len(result.races) == 1
    assert progress.races == 1
    assert progress.events == len(trace)


def test_dedupe_false_keeps_every_report():
    trace = _duplicate_race_trace()
    kernel = DeterminacyRaceDetector(dedupe=False)
    reference = DeterminacyRaceDetector(engine="object", dedupe=False)
    replay_trace(trace, [kernel, reference])
    assert len(kernel.races) == 2
    assert kernel.races == reference.races
