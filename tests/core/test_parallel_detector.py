"""Unit tests for ParallelRaceDetector — schedule-robust online detection.

The detector's location-level verdict must agree with the serial DTRG
detector under the serial elision (where both are well-defined); its
scheduling-robustness under real parallelism is covered by
tests/properties/test_runtime_parity.py.
"""

import random

import pytest

from repro import (
    AccessKind,
    DeterminacyRaceDetector,
    ParallelRaceDetector,
    RaceError,
    ReportPolicy,
    Runtime,
    SharedArray,
    SharedVar,
)
from repro.runtime.task import Task, TaskKind


def _run(program, det):
    rt = Runtime(observers=[det])
    data = SharedArray(rt, "data", 4)
    rt.run(lambda r: program(r, data))
    return det


def test_sibling_write_write_race():
    det = _run(_sibling_writes, ParallelRaceDetector())
    assert set(det.racy_locations) == {("data", 0)}
    assert det.races[0].kind is AccessKind.WRITE_WRITE


def _sibling_writes(rt, d):
    with rt.finish():
        rt.async_(lambda: d.write(0, 1))
        rt.async_(lambda: d.write(0, 2))


def test_write_read_and_read_write_kinds():
    def prog_wr(rt, d):
        with rt.finish():
            rt.async_(lambda: d.write(0, 1))
            rt.async_(lambda: d.read(0))

    det = _run(prog_wr, ParallelRaceDetector())
    kinds = {r.kind for r in det.races}
    assert kinds == {AccessKind.WRITE_READ}

    def prog_rw(rt, d):
        with rt.finish():
            rt.async_(lambda: d.read(0))
            rt.async_(lambda: d.write(0, 1))

    det = _run(prog_rw, ParallelRaceDetector())
    kinds = {r.kind for r in det.races}
    assert kinds == {AccessKind.READ_WRITE}


def test_future_join_orders_accesses():
    def prog(rt, d):
        f = rt.future(lambda: d.write(0, 1))
        f.get()
        d.read(0)
        d.write(0, 2)

    det = _run(prog, ParallelRaceDetector())
    assert det.races == []


def test_finish_join_orders_accesses():
    def prog(rt, d):
        with rt.finish():
            rt.async_(lambda: d.write(0, 1))
        d.write(0, 2)  # ordered by the finish join

    det = _run(prog, ParallelRaceDetector())
    assert det.races == []


def test_raise_policy_raises_race_error():
    det = ParallelRaceDetector(policy=ReportPolicy.RAISE)
    with pytest.raises(RaceError):
        _run(_sibling_writes, det)


def test_string_policy_accepted():
    det = ParallelRaceDetector(policy="collect")
    assert det.policy is ReportPolicy.COLLECT


def test_dedupe_collapses_repeated_pairs():
    # Each racy read re-checks the stored writer, so the same
    # (loc, pair, kind) triple reports once per read without dedupe.
    def prog(rt, d):
        with rt.finish():
            rt.async_(lambda: d.write(0, 1))
            rt.async_(lambda: [d.read(0) for _ in range(3)])

    det = _run(prog, ParallelRaceDetector(dedupe=True))
    assert len(det.races) == 1
    det = _run(prog, ParallelRaceDetector(dedupe=False))
    assert len(det.races) == 3


def test_precede_query_and_live_task_guard():
    det = ParallelRaceDetector()

    def prog(rt, d):
        f = rt.future(lambda: d.write(0, 1))
        f.get()
        # f (tid 1) has ended and was joined: it precedes main now.
        assert det.precede(1, 0)
        with pytest.raises(RuntimeError, match="live"):
            det.precede(0, 1)  # main is still live

    _run(prog, det)
    assert det.precede(0, 0)  # reflexive


def test_join_before_task_end_violates_contract():
    """A runtime that delivers on_get before the producer's on_task_end
    breaks the RuntimeBase ordering contract — loudly."""
    det = ParallelRaceDetector()
    main = Task(0, TaskKind.MAIN, parent=None, ief=None)
    det.on_init(main)
    child = Task(1, TaskKind.FUTURE, parent=main, ief=None)
    det.on_task_create(main, child)
    with pytest.raises(RuntimeError, match="on_task_end"):
        det.on_get(main, child)


def test_mutation_epoch_and_perf_stats():
    det = ParallelRaceDetector()
    before = det.mutation_epoch
    _run(_sibling_writes, det)
    stats = det.perf_stats
    assert det.mutation_epoch > before
    assert stats["num_accesses"] == 2
    assert stats["num_locations"] == 1
    assert stats["num_tasks"] == 3


def test_agrees_with_dtrg_detector_on_random_programs():
    from repro.testing.generator import random_program, run_program

    for seed in range(30):
        program = random_program(random.Random(seed), max_depth=3)
        dtrg = DeterminacyRaceDetector()
        par = ParallelRaceDetector()
        run_program(program, [dtrg, par])
        assert set(par.racy_locations) == set(dtrg.report.racy_locations), (
            f"seed {seed}"
        )


# ---------------------------------------------------------------------- #
# Per-task buffers: checked once per segment                             #
# ---------------------------------------------------------------------- #
def test_accesses_wait_in_the_task_buffer_until_a_query():
    det = ParallelRaceDetector()
    main = Task(0, TaskKind.MAIN, parent=None, ief=None)
    det.on_init(main)
    det.on_write(main, "x")
    det.on_read(main, "x")
    assert det.num_accesses == 0  # buffered, not yet checked
    assert det.perf_stats["num_accesses"] == 2  # a query checks first
    assert det.num_accesses == 2


def test_a_full_buffer_is_checked_early():
    from repro.core.detector import RESUME_ENTRIES

    det = ParallelRaceDetector()
    main = Task(0, TaskKind.MAIN, parent=None, ief=None)
    det.on_init(main)
    for i in range(RESUME_ENTRIES // 2):
        det.on_write(main, i)
    # Two flat items per access: the last append reached the bound.
    assert det.num_accesses == RESUME_ENTRIES // 2
    assert det._buffers[main.tid] == []


def test_raise_checks_at_the_access():
    det = ParallelRaceDetector(policy=ReportPolicy.RAISE)
    main = Task(0, TaskKind.MAIN, parent=None, ief=None)
    det.on_init(main)
    child = Task(1, TaskKind.ASYNC, parent=main, ief=None)
    det.on_task_create(main, child)
    det.on_write(child, "x")
    with pytest.raises(RaceError):
        det.on_write(main, "x")  # raises here, not at a later hook


def _run_with_timeout(target, seconds=60.0):
    """Run ``target()`` on a daemon thread; return what it raised, and
    fail if it is still running after ``seconds``."""
    import threading

    outcome = {}

    def body():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"run did not return within {seconds}s"
    return outcome.get("error")


@pytest.mark.parametrize("runtime", ["threads", "asyncio"])
def test_raise_policy_raises_out_of_a_concurrent_run(runtime):
    from repro import AsyncioRuntime, ThreadRuntime

    det = ParallelRaceDetector(policy=ReportPolicy.RAISE)

    def writer(d):
        for _ in range(50):
            d.write(0, 1)

    if runtime == "threads":
        rt = ThreadRuntime(observers=[det], workers=2)
        data = SharedArray(rt, "data", 1)

        def run():
            def program(r):
                with r.finish():
                    for _ in range(4):
                        r.async_(writer, data)
            rt.run(program)
    else:
        rt = AsyncioRuntime(observers=[det])
        data = SharedArray(rt, "data", 1)

        def run():
            async def program(r):
                async with r.finish():
                    for _ in range(4):
                        r.async_(writer, data)
            rt.run(program)

    error = _run_with_timeout(run)
    assert isinstance(error, RaceError), error
    assert error.race.loc == ("data", 0)


def test_a_query_leaves_a_half_appended_access_in_place():
    """A query on another thread may run between the two appends of one
    access: it consumes whole pairs only."""
    det = ParallelRaceDetector()
    main = Task(0, TaskKind.MAIN, parent=None, ief=None)
    det.on_init(main)
    det.on_write(main, "x")
    det._buffers[main.tid].append("y")  # the location, not yet its kind
    det.flush()
    assert det.num_accesses == 1
    det._buffers[main.tid].append(True)
    assert det.perf_stats["num_accesses"] == 2
    assert det.perf_stats["num_locations"] == 2


def test_queries_from_another_thread_while_tasks_append():
    """The live sampler queries the detector mid-run: every access is
    still checked exactly once, and the verdict is the serial one.  More
    workers than cores and a short switch interval make a thread switch
    between a task's appends and a query likely."""
    import sys
    import threading

    from repro import ThreadRuntime

    def program(rt, d):
        def body(i):
            for j in range(200):
                d.write(i, j)
                d.read(8)
                d.read((i + 1) % 8)
        with rt.finish():
            for i in range(8):
                rt.async_(body, i)
        d.write(8, 0)

    serial = ParallelRaceDetector()
    rt = Runtime(observers=[serial])
    data = SharedArray(rt, "data", 9)
    rt.run(lambda r: program(r, data))

    det = ParallelRaceDetector()
    rt = ThreadRuntime(observers=[det], workers=4)
    data = SharedArray(rt, "data", 9)
    done = threading.Event()
    queries = 0

    def sampler():
        nonlocal queries
        while not done.is_set():
            det.perf_stats
            queries += 1

    thread = threading.Thread(target=sampler, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        error = _run_with_timeout(lambda: rt.run(lambda r: program(r, data)))
    finally:
        sys.setswitchinterval(interval)
        done.set()
        thread.join(10)
    assert error is None, error
    assert not thread.is_alive()
    assert queries > 0
    assert det.num_accesses == serial.num_accesses == 8 * 200 * 3 + 1
    assert det.racy_locations == serial.racy_locations
