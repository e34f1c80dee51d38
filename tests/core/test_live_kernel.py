"""The default detector runs the one kernel live: block by block under
``RAISE`` or an enabled ``obs``, in batches of ``RESUME_ENTRIES`` column
entries otherwise.

Covers what the equivalence sweeps do not: engine selection, the
``RAISE`` timing and inertness, the dropped columns and the counters the
live sampler reads under both resume rules, ``flush`` after an aborted
run and in mid-run, and the race count ``check_trace_fast`` reports to a
progress counter.
"""

import random

import pytest

from repro import (
    DeterminacyRaceDetector,
    Observability,
    RaceError,
    Runtime,
    SharedVar,
    UnsupportedConstructError,
)
from repro.baselines import BruteForceDetector
from repro.core.array_dtrg import AblatedArrayDTRG
from repro.core.detector import RESUME_ENTRIES
from repro.core.events import (
    ExecutionObserver, ReadEvent, TaskCreateEvent, TaskEndEvent, Trace, WriteEvent,
)
from repro.core.fastcheck import check_trace_fast
from repro.memory.shared import SharedArray
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.obs.provenance import explain_races
from repro.obs.live import ProgressCounter
from repro.testing.generator import random_program, run_program


def test_engine_selection():
    assert DeterminacyRaceDetector().engine == "array"
    assert DeterminacyRaceDetector(engine="dtrg").engine == "array"
    assert DeterminacyRaceDetector(
        obs=Observability()).engine == "array"
    ablated = DeterminacyRaceDetector(memoize_visit=False)
    assert ablated.engine == "array"
    assert isinstance(ablated.dtrg, AblatedArrayDTRG)
    assert DeterminacyRaceDetector(engine="vc").engine == "vc"
    with pytest.raises(ValueError, match="reference engine"):
        DeterminacyRaceDetector(engine="object")


def _racy_seeds(count):
    seeds = []
    seed = 0
    while len(seeds) < count:
        program = random_program(random.Random(seed))
        det = DeterminacyRaceDetector()
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
    reference, reference_race = _first_race(program, engine="vc")
    assert race == reference_race
    assert kernel.races == [race] == reference.races
    # The batched COLLECT run checks the same blocks at the same epochs.
    collected = DeterminacyRaceDetector()
    run_program(program, [collected])
    assert race == collected.races[0]
    assert kernel.race_rows[0] == collected.race_rows[0]


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


#: The two consumers that see check timing resume the kernel at every
#: block: ``RAISE`` (the error is raised when the racing block closes) and
#: an enabled ``obs`` (its instants are emitted when a block is checked).
EAGER = {
    "raise": lambda: {"policy": "raise"},
    "obs": lambda: {"obs": Observability()},
}


@pytest.mark.parametrize("eager", sorted(EAGER))
def test_columns_hold_no_consumed_rows(eager):
    det = DeterminacyRaceDetector(**EAGER[eager]())
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


@pytest.mark.parametrize("eager", sorted(EAGER))
def test_live_counters_lag_by_at_most_one_block(eager):
    det = DeterminacyRaceDetector(**EAGER[eager]())
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


#: Per iteration of ``_batched_program``: a write, a read, and the end
#: and create between two blocks.
_ITERATION = 4


def _batched_program(det, observe):
    """Main writes and reads ``x`` and spawns an empty child, 3 *
    RESUME_ENTRIES / _ITERATION + 1 times; ``observe(accesses)`` runs in
    each child, with the count of accesses made so far."""
    rt = Runtime(observers=[det])
    x = SharedVar(rt, "x")
    made = [0]

    def program(r):
        for i in range(3 * RESUME_ENTRIES // _ITERATION + 1):
            x.write(i)
            x.read()
            made[0] += 2
            r.async_(lambda: observe(made[0]))

    rt.run(program)
    return made[0]


def test_collect_columns_hold_at_most_the_bound_plus_one_block():
    det = DeterminacyRaceDetector()
    columns = det._columns
    sizes = []

    def observe(_accesses):
        sizes.append(len(columns.access) + len(columns.structure))

    accesses = _batched_program(det, observe)
    assert accesses + 2 * len(sizes) >= 3 * RESUME_ENTRIES
    assert max(sizes) <= RESUME_ENTRIES + _ITERATION
    assert max(sizes) >= RESUME_ENTRIES - _ITERATION  # batched, not eager
    assert sizes.count(0) >= 3                           # resumed mid-run
    assert (len(columns.access), len(columns.structure),
            len(columns.runs)) == (0, 0, 0)
    assert det.num_accesses == accesses
    assert det.num_locations == 1


def test_collect_counters_lag_by_at_most_the_bound():
    det = DeterminacyRaceDetector()
    lags = []

    def observe(accesses):
        lags.append(accesses - det.num_accesses)

    accesses = _batched_program(det, observe)
    assert 0 <= min(lags) and max(lags) <= RESUME_ENTRIES
    assert max(lags) > 2 and lags.count(0) >= 3
    assert det.num_accesses == accesses
    columns = det._columns
    assert (len(columns.access), len(columns.structure),
            len(columns.runs)) == (0, 0, 0)


@pytest.mark.parametrize("policy", ["collect", "raise"])
def test_a_structure_only_stretch_is_bounded_too(policy):
    """A loop of empty finishes closes no access block; the columns still
    resume once RESUME_ENTRIES structure tuples wait."""
    det = DeterminacyRaceDetector(policy=policy)
    rt = Runtime(observers=[det])
    x = SharedVar(rt, "x")
    sizes = []

    def program(r):
        for i in range(RESUME_ENTRIES):
            with r.finish():
                pass
            if i % 256 == 0:
                sizes.append(len(det._columns.structure))
        x.write(1)
        x.read()

    rt.run(program)
    assert max(sizes) < RESUME_ENTRIES
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # resumed
    assert det.num_accesses == 2 and not det.races


def test_flush_checks_the_block_an_aborted_run_left_open():
    racy = []
    for engine in ("array", "vc"):
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


class _Flusher(ExecutionObserver):
    """Flushes ``det`` after every spawn, get and finish end (attached
    after it, so ``det`` has lowered the event first)."""

    def __init__(self, det):
        self.det = det
        self.flushes = 0

    def _flush(self, *_):
        self.det.flush()
        self.flushes += 1

    on_task_create = on_get = on_finish_end = _flush


def _outcome(det):
    return (det.report.summary(), list(det.race_rows), det.perf_stats,
            det.avg_readers, det.dtrg.num_visits, det.dtrg.mutation_epoch)


def test_mid_run_flush_changes_no_result():
    """A flush checks the open block at the current epoch, which is
    where the next structure event would have checked it; Figure 3's
    snapshots rely on that."""
    flushes = racy = 0
    for seed in range(200):
        program = random_program(random.Random(seed))
        plain, flushed = DeterminacyRaceDetector(), DeterminacyRaceDetector()
        flusher = _Flusher(flushed)
        run_program(program, [plain, flushed, flusher])
        assert _outcome(flushed) == _outcome(plain), f"seed {seed}"
        flushes += flusher.flushes
        racy += bool(plain.races)
    assert racy > 50 and flushes > 1000


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
    reference = DeterminacyRaceDetector(engine="vc", dedupe=False)
    replay_trace(trace, [kernel, reference])
    assert len(kernel.races) == 2
    assert kernel.races == reference.races


def _caught_child_error(rt, data, in_finish):
    """A child writes ``x[0]`` and raises (from inside a finish it opened
    with a grandchild writing ``x[1]``, if ``in_finish``); main catches
    the error, writes ``x[0]``, then spawns a reader of ``x[1]``."""
    def boom():
        if in_finish:
            with rt.finish():
                rt.async_(lambda: data.write(1, 1))
                data.write(0, 1)
                raise ValueError("boom")
        data.write(0, 1)
        raise ValueError("boom")

    try:
        rt.async_(boom)
    except ValueError:
        pass
    data.write(0, 2)
    rt.async_(lambda: data.read(1))


def _race_tuples(races):
    return [(r.loc, r.kind.value, r.prev_task, r.current_task) for r in races]


@pytest.mark.parametrize("in_finish", [False, True])
def test_a_caught_child_error_leaves_the_parent_running(in_finish):
    # Main's write after the caught child's write is main's own: a
    # write-write race, under the live kernel and a recorded trace's
    # fast check alike, and the oracle agrees.  No TraceFormatError.
    live, oracle, recorder = (
        DeterminacyRaceDetector(), BruteForceDetector(), TraceRecorder())
    rt = Runtime(observers=[live, oracle, recorder])
    data = SharedArray(rt, "x", [0, 0])
    rt.run(lambda rt: _caught_child_error(rt, data, in_finish))
    expected = [(("x", 0), "write-write", 1, 0)]
    if in_finish:  # the grandchild joined the child, not main
        expected.append((("x", 1), "write-read", 2, 3))
    assert _race_tuples(live.races) == expected
    assert sorted(_race_tuples(oracle.report.races)) == sorted(expected)
    trace = recorder.trace
    fast = check_trace_fast(trace)
    assert _race_tuples(fast.races) == expected
    assert fast.race_rows == live.race_rows
    assert len(list(trace)) == len(trace)
    sited, _ = explain_races(trace, fast.races, fast.race_rows)
    assert _race_tuples(sited) == expected


class _Refuse(ExecutionObserver):
    """Raises ``UnsupportedConstructError`` at the first call of ``hook``
    (the root finish aside)."""

    def __init__(self, hook):
        def refuse(arg, *args):
            if getattr(arg, "enclosing", True) is None:
                return
            setattr(self, hook, lambda *a: None)
            raise UnsupportedConstructError("refused")
        setattr(self, hook, refuse)


@pytest.mark.parametrize("hook", ["on_task_create", "on_finish_start"])
def test_a_caught_refusal_leaves_the_streams_in_step(hook):
    # The detectors ahead of a refusing observer see the refused spawn or
    # finish taken back, so the program that catches the refusal is
    # checked on: main's write races the async's.
    live, oracle, recorder = (
        DeterminacyRaceDetector(), BruteForceDetector(), TraceRecorder())
    rt = Runtime(observers=[live, oracle, recorder, _Refuse(hook)])
    data = SharedArray(rt, "x", [0, 0])

    def prog(rt):
        try:
            with rt.finish():
                rt.async_(lambda: data.write(0, 1))
        except UnsupportedConstructError:
            pass
        rt.async_(lambda: data.write(1, 1))
        data.write(1, 2)

    rt.run(prog)
    expected = [(("x", 1), "write-write", 2, 0)]
    if hook == "on_finish_start":  # no finish ran; task ids moved up
        expected = [(("x", 1), "write-write", 1, 0)]
    assert _race_tuples(live.races) == expected
    assert _race_tuples(oracle.report.races) == expected
    assert _race_tuples(check_trace_fast(recorder.trace).races) == expected
