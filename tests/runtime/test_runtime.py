"""Unit tests for the serial depth-first runtime semantics (Section 2),
and for the error-path rules every runtime shares."""

import collections

import pytest

from repro import (
    AsyncioRuntime,
    ParallelRaceDetector,
    Runtime,
    RuntimeStateError,
    SharedArray,
    TaskKind,
    ThreadRuntime,
)
from repro.core.events import ExecutionObserver


class Recorder(ExecutionObserver):
    """Flat log of every hook invocation, for order assertions."""

    def __init__(self):
        self.log = []

    def on_init(self, main):
        self.log.append(("init", main.tid))

    def on_task_create(self, parent, child):
        self.log.append(("create", parent.tid, child.tid))

    def on_task_end(self, task):
        self.log.append(("end", task.tid))

    def on_get(self, consumer, producer):
        self.log.append(("get", consumer.tid, producer.tid))

    def on_finish_start(self, scope):
        self.log.append(("fstart", scope.fid))

    def on_finish_end(self, scope):
        self.log.append(("fend", scope.fid))

    def on_read(self, task, loc):
        self.log.append(("read", task.tid, loc))

    def on_write(self, task, loc):
        self.log.append(("write", task.tid, loc))

    def on_shutdown(self, main):
        self.log.append(("shutdown", main.tid))


def test_run_returns_program_result():
    rt = Runtime()
    assert rt.run(lambda _rt: 42) == 42


def test_main_task_identity():
    rt = Runtime()
    seen = {}

    def prog(rt):
        task = rt.current_task
        seen["tid"] = task.tid
        seen["kind"] = task.kind
        seen["ief"] = task.ief

    rt.run(prog)
    assert seen["tid"] == 0
    assert seen["kind"] is TaskKind.MAIN
    assert seen["ief"] is None
    assert rt.current_task is None  # cleared after the run


def test_depth_first_execution_order():
    order = []
    rt = Runtime()

    def prog(rt):
        order.append("pre")
        rt.async_(lambda: order.append("child"))
        order.append("post")

    rt.run(prog)
    assert order == ["pre", "child", "post"]


def test_nested_spawns_depth_first():
    order = []
    rt = Runtime()

    def prog(rt):
        def outer():
            order.append("outer-start")
            rt.async_(lambda: order.append("inner"))
            order.append("outer-end")

        rt.async_(outer)
        order.append("main")

    rt.run(prog)
    assert order == ["outer-start", "inner", "outer-end", "main"]


def test_task_ids_are_spawn_order():
    rt = Runtime()
    tids = []

    def prog(rt):
        tids.append(rt.async_(lambda: None).tid)
        tids.append(rt.future(lambda: None).task.tid)
        tids.append(rt.async_(lambda: None).tid)

    rt.run(prog)
    assert tids == [1, 2, 3]
    assert rt.num_tasks == 4  # + main


def test_event_bracket_order():
    rec = Recorder()
    rt = Runtime(observers=[rec])

    def prog(rt):
        with rt.finish():
            rt.async_(lambda: None)

    rt.run(prog)
    assert rec.log == [
        ("init", 0),
        ("fstart", 0),   # implicit root finish
        ("fstart", 1),
        ("create", 0, 1),
        ("end", 1),
        ("fend", 1),
        ("fend", 0),
        ("end", 0),
        ("shutdown", 0),
    ]


def test_ief_assignment_follows_dynamic_scope():
    rt = Runtime()
    iefs = {}

    def prog(rt):
        with rt.finish() as outer:
            def parent():
                # no finish in between: child escapes to `outer`
                child = rt.async_(lambda: None)
                iefs["escaping"] = child.ief.fid
                with rt.finish() as inner:
                    child2 = rt.async_(lambda: None)
                    iefs["inner"] = child2.ief.fid
                iefs["inner_fid"] = inner.fid

            rt.async_(parent)
            iefs["outer_fid"] = outer.fid

    rt.run(prog)
    assert iefs["escaping"] == iefs["outer_fid"]
    assert iefs["inner"] == iefs["inner_fid"]


def test_finish_joins_record_registered_tasks():
    rt = Runtime()
    joined = {}

    def prog(rt):
        with rt.finish() as scope:
            rt.async_(lambda: None, name="a")
            rt.async_(lambda: None, name="b")
        joined["names"] = [t.name for t in scope.joins]

    rt.run(prog)
    assert joined["names"] == ["a", "b"]


def test_spawn_outside_run_rejected():
    rt = Runtime()
    with pytest.raises(RuntimeStateError):
        rt.async_(lambda: None)


def test_finish_outside_run_rejected():
    rt = Runtime()
    with pytest.raises(RuntimeStateError):
        with rt.finish():
            pass


def test_runtime_is_single_use():
    rt = Runtime()
    rt.run(lambda _rt: None)
    with pytest.raises(RuntimeStateError):
        rt.run(lambda _rt: None)


def test_add_observer_after_start_rejected():
    rt = Runtime()

    def prog(rt):
        with pytest.raises(RuntimeStateError):
            rt.add_observer(Recorder())

    rt.run(prog)


def test_child_exception_propagates_and_marks_task():
    rt = Runtime()
    tasks = {}

    def prog(rt):
        def boom():
            raise ValueError("boom")

        try:
            rt.async_(boom)
        except ValueError:
            tasks["raised"] = True

    rt.run(prog)
    assert tasks.get("raised")


# The error-path rules are the RuntimeBase contract: each check runs on
# every runtime, the serial one under the test's plain name and the
# concurrent ones under its "_concurrently" twin.  The serial runtime's
# log is exact; a concurrent one must send the same hook calls, in any
# order.
CONCURRENT_RUNTIMES = [
    pytest.param(lambda observers: ThreadRuntime(observers, workers=1),
                 id="threads-1"),
    pytest.param(lambda observers: ThreadRuntime(observers, workers=2),
                 id="threads-2"),
    pytest.param(AsyncioRuntime, id="asyncio"),
]
RUNTIMES = [pytest.param(Runtime, id="serial"), *CONCURRENT_RUNTIMES]


def _run(rt, program, async_program):
    rt.run(async_program if isinstance(rt, AsyncioRuntime) else program)


def _assert_log(rt, log, want):
    if isinstance(rt, Runtime):
        assert log == want
    else:
        assert collections.Counter(log) == collections.Counter(want)


def test_a_raising_child_and_finish_still_end_for_observers():
    _check_a_raising_child_and_finish_still_end_for_observers(Runtime)


@pytest.mark.parametrize("make", CONCURRENT_RUNTIMES)
def test_a_raising_child_and_finish_still_end_for_observers_concurrently(make):
    _check_a_raising_child_and_finish_still_end_for_observers(make)


def _check_a_raising_child_and_finish_still_end_for_observers(make):
    # Observers see the child end, and both finishes end, before the
    # error reaches the parent, so the stream stays whole when the error
    # is caught.
    rec = Recorder()

    def program(rt):
        def boom():
            with rt.finish():
                rt.async_(lambda: None)
                raise ValueError("boom")

        with pytest.raises(ValueError):
            with rt.finish():
                rt.async_(boom)
        rt.async_(lambda: None)

    async def async_program(rt):
        async def boom():
            async with rt.finish():
                rt.async_(lambda: None)
                raise ValueError("boom")

        with pytest.raises(ValueError):
            async with rt.finish():
                rt.async_(boom)
        rt.async_(lambda: None)

    rt = make([rec])
    _run(rt, program, async_program)
    _assert_log(rt, rec.log, [
        ("init", 0), ("fstart", 0), ("fstart", 1), ("create", 0, 1),
        ("fstart", 2), ("create", 1, 2), ("end", 2), ("fend", 2),
        ("end", 1), ("fend", 1), ("create", 0, 3), ("end", 3),
        ("fend", 0), ("end", 0), ("shutdown", 0),
    ])


def test_a_refused_spawn_is_taken_back():
    _check_a_refused_spawn_is_taken_back(Runtime)


@pytest.mark.parametrize("make", CONCURRENT_RUNTIMES)
def test_a_refused_spawn_is_taken_back_concurrently(make):
    _check_a_refused_spawn_is_taken_back(make)


def _check_a_refused_spawn_is_taken_back(make):
    # An observer refuses a spawn: the child never runs, the observers
    # that saw it created see it end, and the refusal propagates.
    class RefuseGrandchild(ExecutionObserver):
        def on_task_create(self, parent, child):
            if parent.parent is not None:
                raise RuntimeStateError("refused")

    rec = Recorder()
    scopes, ran = [], []

    def child():
        rt.async_(lambda: ran.append("grandchild"))

    def program(rt):
        with rt.finish() as scope:
            scopes.append(scope)
            rt.async_(child)

    async def async_program(rt):
        async with rt.finish() as scope:
            scopes.append(scope)
            rt.async_(child)

    rt = make([rec, RefuseGrandchild()])
    with pytest.raises(RuntimeStateError, match="refused"):
        _run(rt, program, async_program)
    _assert_log(rt, rec.log, [
        ("init", 0), ("fstart", 0), ("fstart", 1), ("create", 0, 1),
        ("create", 1, 2), ("end", 2), ("end", 1), ("fend", 1),
    ])
    assert [t.tid for t in scopes[0].joins] == [1]
    assert ran == []


def test_an_end_hook_error_unwinds_without_abnormal_ends():
    _check_an_end_hook_error_unwinds_without_abnormal_ends(Runtime)


@pytest.mark.parametrize("make", CONCURRENT_RUNTIMES)
def test_an_end_hook_error_unwinds_without_abnormal_ends_concurrently(make):
    _check_an_end_hook_error_unwinds_without_abnormal_ends(make)


def _check_an_end_hook_error_unwinds_without_abnormal_ends(make):
    # Once an observer raises at an end, the observers' streams disagree,
    # so no further end is dispatched while the error propagates.
    class FailAtEnd(ExecutionObserver):
        def on_task_end(self, task):
            if task.tid == 2:
                raise RuntimeStateError("failed")

    rec = Recorder()

    def program(rt):
        def child():
            with rt.finish():
                rt.async_(lambda: None)

        with rt.finish():
            rt.async_(child)

    async def async_program(rt):
        async def child():
            async with rt.finish():
                rt.async_(lambda: None)

        async with rt.finish():
            rt.async_(child)

    rt = make([rec, FailAtEnd()])
    with pytest.raises(RuntimeStateError, match="failed"):
        _run(rt, program, async_program)
    _assert_log(rt, rec.log, [
        ("init", 0), ("fstart", 0), ("fstart", 1), ("create", 0, 1),
        ("fstart", 2), ("create", 1, 2), ("end", 2),
    ])


@pytest.mark.parametrize("make", RUNTIMES)
@pytest.mark.parametrize("raiser", ["finish-body", "child"])
def test_a_caught_finish_error_still_joins_the_children(make, raiser):
    # The scope waited for its children, so reading what they wrote after
    # catching its error is no race, on any runtime.
    det = ParallelRaceDetector()
    rt = make([det])
    data = SharedArray(rt, "d", 1)

    def child():
        data.write(0, 1)
        if raiser == "child":
            raise ValueError("child")

    def program(rt):
        with pytest.raises(ValueError):
            with rt.finish():
                rt.async_(child)
                if raiser == "finish-body":
                    raise ValueError("body")
        data.read(0)

    async def async_program(rt):
        with pytest.raises(ValueError):
            async with rt.finish():
                rt.async_(child)
                if raiser == "finish-body":
                    raise ValueError("body")
        data.read(0)

    _run(rt, program, async_program)
    assert det.racy_locations == set()


def test_args_and_kwargs_forwarded():
    rt = Runtime()
    out = {}

    def prog(rt):
        f = rt.future(lambda a, b=0: a + b, 40, b=2)
        out["v"] = f.get()

    rt.run(prog)
    assert out["v"] == 42


def test_task_value_and_completed_flags():
    rt = Runtime()
    info = {}

    def prog(rt):
        t = rt.async_(lambda: "ret")
        info["completed"] = t.completed
        info["value"] = t.value

    rt.run(prog)
    assert info == {"completed": True, "value": "ret"}


def test_depth_tracking():
    rt = Runtime()
    depths = []

    def prog(rt):
        def level(d):
            depths.append(rt.current_task.depth)
            if d:
                rt.async_(level, d - 1)

        rt.async_(level, 2)

    rt.run(prog)
    assert depths == [1, 2, 3]
