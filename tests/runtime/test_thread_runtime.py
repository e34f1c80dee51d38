"""Unit tests for ThreadRuntime — the work-stealing threaded executor."""

import collections
import os
import subprocess
import sys
import textwrap
import threading
import time
from typing import List

import pytest

from repro import (
    NullFutureError,
    ParallelRaceDetector,
    Runtime,
    RuntimeStateError,
    SharedArray,
    SharedVar,
    ThreadRuntime,
)
from repro.runtime.base import RuntimeBase
from repro.runtime.executor import _WAIT_TICK


def test_satisfies_runtime_protocol():
    assert isinstance(ThreadRuntime(workers=1), RuntimeBase)
    assert isinstance(Runtime(), RuntimeBase)


def test_future_value_propagation():
    rt = ThreadRuntime(workers=2)

    def program(rt):
        f = rt.future(lambda: 21)
        g = rt.future(lambda: f.get() * 2)
        return g.get()

    assert rt.run(program) == 42
    assert rt.num_tasks == 3  # main + 2 futures


def test_finish_waits_for_transitive_children():
    rt = ThreadRuntime(workers=4)
    seen = []
    lock = threading.Lock()

    def leaf(i):
        with lock:
            seen.append(i)

    def mid(rt, i):
        rt.async_(leaf, i)

    def program(rt):
        with rt.finish():
            for i in range(8):
                rt.async_(mid, rt, i)
        # finish drained: every transitively spawned leaf ran
        assert sorted(seen) == list(range(8))

    rt.run(program)


def test_child_exception_raised_at_finish_exit():
    rt = ThreadRuntime(workers=2)

    def program(rt):
        with rt.finish():
            rt.async_(lambda: 1 / 0)

    with pytest.raises(ZeroDivisionError):
        rt.run(program)


def test_future_exception_raised_at_get():
    rt = ThreadRuntime(workers=2)

    def program(rt):
        f = rt.future(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            f.get()
        return "survived"

    assert rt.run(program) == "survived"


def test_get_on_none_raises_null_future_error():
    rt = ThreadRuntime(workers=1)

    def program(rt):
        with pytest.raises(NullFutureError):
            rt.get(None)

    rt.run(program)


def test_single_use_and_construct_outside_task():
    rt = ThreadRuntime(workers=1)
    rt.run(lambda rt: None)
    with pytest.raises(RuntimeStateError):
        rt.run(lambda rt: None)
    with pytest.raises(RuntimeStateError):
        rt.async_(lambda: None)  # no running task on this thread


def test_invalid_workers_and_provenance_rejected():
    with pytest.raises(ValueError):
        ThreadRuntime(workers=0)

    class _Prov:
        enabled = True

    with pytest.raises(ValueError, match="provenance"):
        ThreadRuntime(provenance=_Prov())
    # disabled provenance objects are fine (null-object protocol)
    ThreadRuntime(workers=1, provenance=None)


def test_compensation_thread_unblocks_single_worker_pool():
    """workers=1: a get of a future nobody has started runs it inline and
    needs no spare thread; a get of a future already running elsewhere
    blocks the only worker, which must start a compensation thread."""
    rt = ThreadRuntime(workers=1)

    def outer(rt):
        inner = rt.future(lambda: 7)
        return inner.get() + 1

    def program(rt):
        f = rt.future(outer, rt)
        return f.get()

    assert rt.run(program) == 8
    assert rt.compensation_threads == 0
    assert rt.pool_size == 1
    assert rt.inlined >= 1

    _run_compensating_program()


def _run_compensating_program() -> None:
    """A ``workers=1`` run whose only worker blocks on a task the caller
    thread runs, so it must start a compensation thread."""
    rt = ThreadRuntime(workers=1)
    consumer_running = threading.Event()
    producer_started = threading.Event()
    box = {}

    def consumer():
        consumer_running.set()
        assert producer_started.wait(10)
        return box["p"].get() + 1  # p runs on the caller thread: block

    def producer(rt):
        producer_started.set()
        deadline = time.monotonic() + 10
        while rt.compensation_threads == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        return 7

    def program(rt):
        c = rt.future(consumer)
        assert consumer_running.wait(10)  # the only worker is in c
        box["p"] = rt.future(producer, rt)
        assert rt.get(box["p"]) == 7  # unstarted, so it runs on this thread
        return c.get()

    assert rt.run(program) == 8
    assert rt.compensation_threads >= 1
    assert rt.pool_size >= 2  # initial worker + at least one spare


def test_each_task_runs_once_under_a_short_switch_interval():
    """Owners inlining at get and finish exit race thieves popping the
    same tasks; with more workers than cores and a tiny switch interval,
    every body still runs exactly once."""
    runs = collections.Counter()
    lock = threading.Lock()

    def leaf(i):
        with lock:
            runs[i] += 1

    def spawner(rt, base):
        with rt.finish():
            for j in range(10):
                rt.async_(leaf, base + j)
        handles = [rt.future(leaf, base + 10 + j) for j in range(10)]
        for handle in reversed(handles):
            handle.get()

    def program(rt):
        with rt.finish():
            for k in range(30):
                rt.async_(spawner, rt, 20 * k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            runs.clear()
            ThreadRuntime(workers=4, steal_seed=seed).run(program)
            assert runs == collections.Counter(range(600))
    finally:
        sys.setswitchinterval(old)


def test_online_detection_racy_writes():
    det = ParallelRaceDetector()
    rt = ThreadRuntime(observers=[det], workers=2)
    data = SharedArray(rt, "data", 2)

    def program(rt):
        with rt.finish():
            rt.async_(lambda: data.write(0, 1))
            rt.async_(lambda: data.write(0, 2))

    rt.run(program)
    assert set(det.racy_locations) == {("data", 0)}


def test_online_detection_race_free_future_chain():
    det = ParallelRaceDetector()
    rt = ThreadRuntime(observers=[det], workers=4)
    v = SharedVar(rt, "v")

    def program(rt):
        f = rt.future(lambda: v.write(1))
        g = rt.future(lambda: (f.get(), v.read())[1])
        g.get()
        v.write(2)

    rt.run(program)
    assert det.races == []
    assert det.num_accesses == 3


def test_many_tasks_stress_all_execute():
    rt = ThreadRuntime(workers=4, steal_seed=3)
    counter = [0]
    lock = threading.Lock()

    def bump():
        with lock:
            counter[0] += 1

    def spawner(rt, n):
        for _ in range(n):
            rt.async_(bump)

    def program(rt):
        with rt.finish():
            for _ in range(8):
                rt.async_(spawner, rt, 25)

    rt.run(program)
    assert counter[0] == 200
    assert rt.num_tasks == 1 + 8 + 200
    assert rt.steals >= 0 and rt.failed_steals >= 0


def test_current_task_is_thread_local():
    rt = ThreadRuntime(workers=2)
    tids = []
    lock = threading.Lock()

    def body(rt):
        with lock:
            tids.append(rt.current_task.tid)

    def program(rt):
        assert rt.current_task is rt.main_task
        with rt.finish():
            for _ in range(4):
                rt.async_(body, rt)

    rt.run(program)
    assert sorted(tids) == [1, 2, 3, 4]


def test_serial_parity_on_deterministic_pipeline():
    """The same program yields the same final memory on both runtimes."""

    def make_program(mem):
        def program(rt):
            stages = []
            f = rt.future(lambda: mem.write(0, 1))
            for i in range(1, 6):
                prev = stages[-1] if stages else f
                stages.append(
                    rt.future(
                        lambda p=prev, i=i: (p.get(), mem.write(i, i + 1))
                    )
                )
            stages[-1].get()
            return mem.to_list()

        return program

    serial_rt = Runtime()
    serial_mem = SharedArray(serial_rt, "m", 6)
    want = serial_rt.run(make_program(serial_mem))

    thread_rt = ThreadRuntime(workers=3)
    thread_mem = SharedArray(thread_rt, "m", 6)
    got = thread_rt.run(make_program(thread_mem))
    assert got == want == [1, 2, 3, 4, 5, 6]


def _get_chain(rt, depth):
    if depth == 0:
        return 0
    return rt.future(lambda: _get_chain(rt, depth - 1)).get() + 1


def test_nested_get_chain_runs_at_default_max_threads():
    rt = ThreadRuntime(workers=1)
    assert rt.run(lambda rt: _get_chain(rt, 3)) == 3


def _run_script(script: str, timeout: float = 60) -> List[str]:
    """Run ``script`` in a subprocess, so a hang fails the calling test
    instead of the job; return its stdout lines."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
        text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_deep_chains_run_and_shallow_ones_inline():
    def finish_chain(rt, depth, out):
        if depth:
            with rt.finish():
                rt.async_(lambda: finish_chain(rt, depth - 1, out))
            out.append(depth)

    rt = ThreadRuntime(workers=1)
    assert rt.run(lambda rt: _get_chain(rt, 100)) == 100
    assert rt.compensation_threads == 0
    # Past the inline budget a chain falls back to blocking waits.
    rt = ThreadRuntime(workers=1)
    assert rt.run(lambda rt: _get_chain(rt, 200)) == 200
    out = []
    ThreadRuntime(workers=1).run(lambda rt: finish_chain(rt, 200, out))
    assert out == list(range(1, 201))


def test_starved_pool_raises_instead_of_hanging():
    """Nested get/finish chains deeper than ``max_threads`` now run inline;
    two *running* tasks that get each other pin every worker, which
    inlining cannot resolve, so the starved pool raises."""
    lines = _run_script("""
        import threading
        from repro import RuntimeStateError, ThreadRuntime

        def get_chain(rt, d):
            return rt.future(lambda: get_chain(rt, d - 1)).get() + 1 if d else 0

        def finish_chain(rt, d, out):
            if d:
                with rt.finish():
                    rt.async_(lambda: finish_chain(rt, d - 1, out))
                out.append(d)

        print(ThreadRuntime(workers=1, max_threads=2).run(
            lambda rt: get_chain(rt, 3)))
        out = []
        ThreadRuntime(workers=1, max_threads=2).run(
            lambda rt: finish_chain(rt, 4, out))
        print(out)

        handles = {}
        published = threading.Event()
        started = {"a": threading.Event(), "b": threading.Event()}

        def body(me, other):
            started[me].set()
            assert published.wait(10) and started[other].wait(10)
            return handles[other].get()

        def program(rt):
            handles["a"] = rt.future(body, "a", "b")
            handles["b"] = rt.future(body, "b", "a")
            published.set()
            for event in started.values():  # both run on the two workers
                assert event.wait(10)

        try:
            ThreadRuntime(workers=2, max_threads=2).run(program)
        except RuntimeStateError as exc:
            print(exc)
    """)
    assert lines[:2] == ["3", "[1, 2, 3, 4]"], lines
    assert len(lines) == 3, lines
    assert "max_threads=2" in lines[2]
    assert "all 2 workers are blocked (2 get)" in lines[2]


def test_cyclic_get_on_own_stack_raises_instead_of_hanging():
    """A future that gets its own handle — directly, or from a task it
    inlined — raises at once; at the parent this hung at any max_threads."""
    lines = _run_script("""
        import threading
        from repro import RuntimeStateError, ThreadRuntime

        def run(program, max_threads):
            try:
                ThreadRuntime(workers=1, max_threads=max_threads).run(program)
            except RuntimeStateError as exc:
                print(exc)

        for max_threads in (2, 256):
            box = {}
            published = threading.Event()

            def self_get():
                assert published.wait(10)
                return box["f"].get()

            def direct(rt):
                box["f"] = rt.future(self_get)
                published.set()
                return box["f"].get()

            run(direct, max_threads)

            started = threading.Event()

            def outer(rt):
                started.set()
                assert published.wait(10)
                # g is on this worker's own deque: it runs inline above f.
                return rt.future(lambda: box["f"].get()).get()

            def below(rt):
                published.clear()
                box["f"] = rt.future(outer, rt)
                published.set()
                assert started.wait(10)  # f runs on the worker

            run(below, max_threads)
    """)
    assert len(lines) == 4, lines
    for line in lines:
        assert "cannot wait for itself" in line, line


def test_an_end_hook_error_on_a_worker_raises_instead_of_hanging():
    """An observer that raises in ``on_task_end`` on a worker: the task
    still completes and the join that waits for it (finish exit, get or
    ``run``) raises the hook's error; at the parent the worker died and
    ``run()`` hung."""
    lines = _run_script("""
        import threading
        from repro import ThreadRuntime
        from repro.core.events import ExecutionObserver

        class FailAtEnd(ExecutionObserver):
            def on_task_end(self, task):
                if task.tid == 1:
                    raise ValueError("hook failed")

        for join in ("finish", "get", "run"):
            started = threading.Event()

            def program(rt):
                # The caller waits until the worker runs the task.
                if join == "finish":
                    with rt.finish():
                        rt.async_(started.set)
                        assert started.wait(10)
                elif join == "get":
                    f = rt.future(started.set)
                    assert started.wait(10)
                    f.get()
                else:
                    rt.async_(started.set)
                    assert started.wait(10)

            try:
                ThreadRuntime([FailAtEnd()], workers=1).run(program)
            except ValueError as exc:
                print(join, exc)
    """)
    assert lines == ["finish hook failed", "get hook failed",
                     "run hook failed"]


def test_worker_waiting_on_a_caller_inlined_task_is_not_starved():
    """At the cap, a worker blocked on a task the caller thread runs
    inline is waiting on live work: the pool must not report starvation."""
    rt = ThreadRuntime(workers=1, max_threads=1)
    gate = threading.Event()

    def producer(rt):
        gate.set()  # frees the worker, which then blocks on this task
        deadline = time.monotonic() + 10
        while rt.blocked == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(4 * _WAIT_TICK)  # several starvation ticks pass
        return 1

    def program(rt):
        blocker = rt.future(lambda: gate.wait(10))
        p = rt.future(producer, rt)
        c = rt.future(lambda: p.get() + 1)
        assert p.get() == 1  # the worker is in blocker: p runs here
        blocker.get()
        return c.get()

    assert rt.run(program) == 2
    assert rt.blocked == 0


# ---------------------------------------------------------------------- #
# The process-wide pool of parked worker threads                         #
# ---------------------------------------------------------------------- #
def _worker_threads(workers: int) -> set:
    """Run one task per worker, all at once, and return the threads that
    ran them (the caller only polls, so it inlines none of them)."""
    seen = set()
    lock = threading.Lock()
    together = threading.Barrier(workers, timeout=10)

    def body():
        together.wait()  # each task holds its worker until all have one
        with lock:
            seen.add(threading.current_thread())

    def program(rt):
        with rt.finish():
            for _ in range(workers):
                rt.async_(body)
            deadline = time.monotonic() + 10
            while len(seen) < workers and time.monotonic() < deadline:
                time.sleep(0.001)

    ThreadRuntime(workers=workers).run(program)
    assert len(seen) == workers
    return seen


def test_a_second_run_reuses_the_first_runs_threads():
    """Threads are compared as objects, which the test keeps alive: a
    thread that ended can leave its ident to a new one."""
    first = _worker_threads(2)
    assert threading.main_thread() not in first
    second = _worker_threads(2)
    assert second <= first
    assert {t.name for t in second} == {"repro-exec-0", "repro-exec-1"}


def test_parked_threads_are_bounded_by_the_runs_workers():
    """A compensation thread beyond ``workers`` ends, and ``run()``
    joins it, so none accumulate."""
    before = threading.active_count()
    for _ in range(20):
        _run_compensating_program()
        assert threading.active_count() <= before + 1


def test_a_failed_run_leaves_nothing_behind_on_the_parked_threads():
    """The end-hook-error runs above, then a racy program on the threads
    they parked, in one process: its racy set is the serial runtime's."""
    lines = _run_script("""
        import threading, time
        from repro import (ParallelRaceDetector, Runtime, SharedArray,
                           ThreadRuntime)
        from repro.core.events import ExecutionObserver

        class FailAtEnd(ExecutionObserver):
            def on_task_end(self, task):
                if task.tid == 1:
                    raise ValueError("hook failed")

        failed_on = set()
        for join in ("finish", "get", "run"):
            started = threading.Event()

            def body():
                failed_on.add(threading.current_thread())
                started.set()

            def program(rt):
                if join == "finish":
                    with rt.finish():
                        rt.async_(body)
                        assert started.wait(10)
                elif join == "get":
                    f = rt.future(body)
                    assert started.wait(10)
                    f.get()
                else:
                    rt.async_(body)
                    assert started.wait(10)

            try:
                ThreadRuntime([FailAtEnd()], workers=1).run(program)
            except ValueError as exc:
                print(join, exc)

        def racy_set(rt_class, ran):
            det = ParallelRaceDetector()
            rt = rt_class([det], workers=1) if rt_class is ThreadRuntime \\
                else rt_class([det])
            data = SharedArray(rt, "data", 3)

            def writer(i, v):
                ran.add(threading.current_thread())
                data.write(i, v)

            def program(rt):
                f = rt.future(writer, 2, 1)
                with rt.finish():
                    rt.async_(writer, 0, 1)
                    rt.async_(writer, 0, 2)
                    rt.async_(writer, 1, 1)
                    deadline = time.monotonic() + 10
                    while len(ran) < 1 and time.monotonic() < deadline:
                        time.sleep(0.001)
                data.read(1)
                f.get()
                data.read(2)

            rt.run(program)
            return sorted(det.racy_locations)

        ran = set()
        threaded = racy_set(ThreadRuntime, ran)
        print(threaded, threaded == racy_set(Runtime, set()))
        print(bool(ran & failed_on))
    """)
    assert lines == ["finish hook failed", "get hook failed",
                     "run hook failed", "[('data', 0)] True", "True"]


def test_parked_threads_do_not_keep_the_process_alive():
    lines = _run_script("""
        from repro import ThreadRuntime
        print(ThreadRuntime(workers=2).run(
            lambda rt: rt.future(lambda: 41).get() + 1))
    """, timeout=20)
    assert lines == ["42"]


def test_a_forked_child_runs_on_a_fresh_pool():
    """The child inherits an idle list whose threads do not exist in it;
    without the fork reset its next run would wait on them forever."""
    lines = _run_script("""
        import os, signal, time
        from repro import ParallelRaceDetector, SharedArray, ThreadRuntime

        def racy(rt):
            with rt.finish():
                rt.async_(lambda: data.write(0, 1))
                rt.async_(lambda: data.write(0, 2))

        ThreadRuntime(workers=2).run(lambda rt: rt.future(lambda: 1).get())
        pid = os.fork()
        if pid == 0:
            det = ParallelRaceDetector()
            rt = ThreadRuntime([det], workers=2)
            data = SharedArray(rt, "data", 1)
            rt.run(racy)
            os._exit(0 if set(det.racy_locations) == {("data", 0)} else 3)
        deadline = time.monotonic() + 20
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                print("exit", os.waitstatus_to_exitcode(status))
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                print("hung")
                break
            time.sleep(0.01)
    """)
    assert lines == ["exit 0"]


def test_empty_runs_never_wait_out_a_tick():
    ThreadRuntime(workers=2).run(lambda rt: None)  # the pool is warm
    start = time.perf_counter()
    for _ in range(50):
        ThreadRuntime(workers=2).run(lambda rt: None)
    assert time.perf_counter() - start < 50 * _WAIT_TICK / 10


def test_concurrent_runs_share_the_pool_under_a_short_switch_interval():
    """Four caller threads run programs at once, borrowing and parking on
    the one idle list: every run completes, and the list holds each live
    thread once."""
    from repro.runtime import executor

    results = collections.defaultdict(list)

    def caller(k):
        for i in range(10):
            rt = ThreadRuntime(workers=2, steal_seed=k)
            results[k].append(rt.run(lambda rt: sum(
                rt.future(lambda j=j: rt.future(lambda: j).get()).get()
                for j in range(8)) + i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,))
                   for k in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert dict(results) == {k: [28 + i for i in range(10)]
                             for k in range(4)}
    idle = list(executor._idle)
    assert len({id(p) for p in idle}) == len(idle) <= 4 * 2
    assert all(p.thread.is_alive() for p in idle)
