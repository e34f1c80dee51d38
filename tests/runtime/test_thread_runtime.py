"""Unit tests for ThreadRuntime — the work-stealing threaded executor."""

import os
import subprocess
import sys
import textwrap
import threading

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
    """workers=1: a pool task blocking on get() must spawn a spare so the
    producer can run — otherwise this test deadlocks."""
    rt = ThreadRuntime(workers=1)

    def outer(rt):
        inner = rt.future(lambda: 7)
        return inner.get() + 1

    def program(rt):
        f = rt.future(outer, rt)
        return f.get()

    assert rt.run(program) == 8
    assert rt.compensation_threads >= 1
    assert rt.pool_size >= 2  # initial worker + at least one spare


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


def test_starved_pool_raises_instead_of_hanging():
    """A nested get chain deeper than ``max_threads`` pins every worker.
    Runs in a subprocess so a hang fails this test instead of the job."""
    script = textwrap.dedent("""
        from repro import RuntimeStateError, ThreadRuntime

        def run(body):
            rt = ThreadRuntime(workers=1, max_threads=2)
            try:
                rt.run(body)
            except RuntimeStateError as exc:
                print(exc)

        def get_chain(rt, d):
            if d:
                rt.future(lambda: get_chain(rt, d - 1)).get()

        def finish_chain(rt, d):
            if d:
                with rt.finish():
                    rt.async_(lambda: finish_chain(rt, d - 1))

        run(lambda rt: get_chain(rt, 3))
        run(lambda rt: finish_chain(rt, 4))
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    for line, kind in zip(lines, ("get", "finish")):
        assert "max_threads=2" in line
        assert f"all 2 workers are blocked (2 {kind})" in line
