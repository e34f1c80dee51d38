"""ThreadRuntime — a work-stealing threaded executor with online detection.

The serial :class:`~repro.runtime.runtime.Runtime` is the *elision* of
the async/finish/future model; this module is the model run for real.
The model — ids, the implicit bracket, the front doors and the observer
dispatch with its error-path rules — is
:class:`~repro.runtime.base.RuntimeBase`; this module adds the schedule.
Tasks execute on a pool of ``threading`` workers scheduled by the
Blumofe–Leiserson discipline the simulator
(:class:`repro.graph.schedule.WorkStealingSimulator`) models in virtual
time:

* each worker owns a LIFO deque — it pushes and pops freshly spawned
  tasks at the *newest* end (depth-first locally, like the serial
  elision);
* an idle worker steals from a uniformly random victim (never itself) at
  the *oldest* end — breadth-first globally, which is what bounds space
  and exposes parallelism;
* tasks spawned by non-worker threads (the caller running ``main``)
  land on a shared FIFO inject queue that every worker also polls.

**Try-unfork, blocking and compensation.**  ``get()`` on an incomplete
future and finish-scope exit first try to run the awaited work on the
calling thread, as java.util.concurrent's ForkJoinPool does with
try-unfork.  Each spawned task is *claimed* exactly once: by the worker
that pops it or by a thread that inlines it (a popped task that was
already claimed is dropped, not run and not counted as a steal).

* ``get()`` of a future no thread has started claims the producer and
  runs its body on the calling thread, worker or caller alike, then
  restores the consumer's context.
* Finish exit claims and runs the scope's unstarted registered tasks in
  registration (= spawn) order, including tasks registered while the
  loop is inlining, and then blocks for the rest.

Inlining is safe because the inlined task runs on top of a frame that
already waits for exactly that task (the producer, or a member of the
scope being exited), and every frame below waits in turn for the one
above it: stacking adds no wait-for edge, so it cannot deadlock.  Running
an *arbitrary* queued task on a blocked stack would add one (the queued
task may transitively ``get`` the very future the pinned frame below it
must produce), which is why a thread never "helps" with other work.  A
per-thread inline depth bounded by a budget derived from
``sys.getrecursionlimit()`` keeps deep chains off the Python recursion
limit: past it, the wait takes the blocking path below.

A wait on a task that has already started is a real blocking wait.  The
pool keeps its parallelism with compensation threads (the managed-blocker
idea from ForkJoinPool): before a worker blocks, it starts a spare worker
whenever the runnable-worker count would drop below the configured
parallelism (bounded by ``max_threads``).  Because the task DAG is
acyclic, some runnable task always exists while anything is blocked, and
a spare's randomized-victim scan covers *every* deque before sleeping,
so progress is guaranteed — up to the cap.  A chain of nested blocking
waits deeper than ``max_threads`` pins every worker; when the pool is at
the cap, every worker and the caller thread wait on an unsatisfied
``get``/``finish`` and no task has completed for a full wait tick, the
waiting workers raise :class:`~repro.runtime.errors.RuntimeStateError`
instead of hanging.  A ``get`` whose producer is running on the calling
thread's own stack (the current task or one it inlined below) can never
complete and raises ``RuntimeStateError`` at once.

**Threads outlive a run.**  A run's worker loops, compensation included,
run on threads borrowed from one process-wide pool of parked daemon
threads (ALGORITHM.md §15): starting a loop hands it to an idle thread,
or to a new one when none is idle, and renames the thread
``repro-exec-<wid>``.  ``run()`` returns only once every loop it handed
out has returned, so no thread touches a runtime after its ``run()``.
A returned thread parks on an untimed wait unless its run has already
parked ``workers`` threads; then it ends.  A forked child starts from an
empty pool.  ``pool_size`` counts the loops a run started, whether their
threads were new or reused; deques, steal RNGs and counters stay per run.

**Online detection.**  Observers are dispatched during the parallel
execution (ALGORITHM.md §15.1):

* *structural* events (init/spawn/task-end/get/finish) are rare; the
  base's dispatch methods run under one exclusive lock, so every
  observer sees a single consistent structural order;
* *access* events (read/write — the hot path) take no lock at all.  A
  task runs on one thread at a time, so its access hooks run in program
  order on that thread, and hooks of different tasks overlap freely.
  :class:`~repro.core.parallel_detector.ParallelRaceDetector` appends
  each access to the running task's own buffer and checks the buffer
  under its own lock at the task's next structural event.

Pair this runtime with schedule-robust observers only — the DTRG
detector family assumes depth-first event order and is rejected by
``tools/racecheck.py`` for ``--runtime threads``; the supported engine
is :class:`~repro.core.parallel_detector.ParallelRaceDetector`, whose
location-level verdict is exact under any schedule (README "Choosing a
runtime").

Event-ordering guarantees (the :class:`~repro.runtime.base.RuntimeBase`
contract detectors rely on):

* a task's ``on_task_end`` is dispatched *before* its completion flag /
  done signal, hence before any ``on_get`` naming it as producer and
  before its IEF's pending count can reach zero — vector-clock engines
  always join against a frozen producer clock;
* the completion is published however ``on_task_end`` returns: an
  observer's error there becomes the task's error, raised at the join
  that waits for it (``get``, the finish exit or ``run``), so no waiter
  hangs on a task whose end hook failed;
* ``on_finish_end`` is dispatched only after every task registered in
  the scope (including transitively spawned ones with the same IEF) has
  completed, and also when the scope exits by an error;
* a refused spawn is never queued, so no thread runs its body.
"""

from __future__ import annotations

import collections
import contextlib
import os
import random
import sys
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from repro.core.events import ExecutionObserver
from repro.runtime.base import RuntimeBase
from repro.runtime.errors import RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["ThreadRuntime"]

T = TypeVar("T")

#: Seconds between a blocked waiter's re-checks (lost-wakeup guard and
#: starvation detection period).
_WAIT_TICK = 0.1

#: Python frames one inlined level may stack (the runtime's own ~5 —
#: get/finish exit, ``_on_get``/``_wait_scope``, ``_execute`` — plus room
#: for the body's); the inline budget is the recursion limit over this.
_FRAMES_PER_INLINE = 8


class _TaskCtx:
    """Per-task execution context, owned by the thread running the task.

    ``below`` is the context this task was inlined on top of (``None`` for
    a task a worker popped, and for main); ``depth`` counts the inlined
    levels on the thread, so the chain is the thread's stack of tasks.
    """

    __slots__ = ("task", "finish_stack", "below", "depth")

    def __init__(self, task: Task, below: Optional["_TaskCtx"] = None) -> None:
        self.task = task
        self.finish_stack: List[FinishScope] = (
            [] if task.ief is None else [task.ief]
        )
        self.below = below
        self.depth = 0 if below is None else below.depth + 1


class _Slot:
    """One worker's deque plus its lock (appended atomically as a pair)."""

    __slots__ = ("lock", "deque")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.deque: collections.deque = collections.deque()


class _Loop:
    """One worker loop handed to a pool thread.  ``done`` is held until
    the loop has returned; ``exiting`` says the thread ends instead of
    parking, so the runtime joins it (it is set before ``done`` is
    released)."""

    __slots__ = ("thread", "done", "exiting")

    def __init__(self, thread: threading.Thread) -> None:
        self.thread = thread
        self.done = threading.Lock()
        self.done.acquire()
        self.exiting = False


class _PooledThread:
    """A daemon thread of the process-wide pool: it runs one runtime's
    worker loop at a time and parks on an untimed lock wait between."""

    __slots__ = ("thread", "wake", "job")

    def __init__(self) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        #: ``(runtime, wid, loop)``, set by whoever releases ``wake``.
        self.job: Optional[tuple] = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while self._run_one():
            pass

    def _run_one(self) -> bool:
        """Park until handed a loop, run it, then park again or end:
        True if parked.  The job dies with this frame, so a parked thread
        keeps no runtime alive.  A loop that raises still releases
        ``done``, and its error ends the thread."""
        self.wake.acquire()
        runtime, wid, loop = self.job
        self.job = None
        parked = False
        try:
            runtime._worker_loop(wid)
            parked = runtime._park(self)
        finally:
            loop.exiting = not parked
            loop.done.release()
        return parked


#: Parked pool threads, most recently parked last (shared by every run).
_idle: List[_PooledThread] = []
_idle_lock = threading.Lock()


def _reset_pool_after_fork() -> None:
    """A forked child has none of the parent's pool threads, and the
    parent may have held the lock at the fork: start from empty."""
    global _idle, _idle_lock
    _idle = []
    _idle_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


class ThreadRuntime(RuntimeBase):
    """Work-stealing threaded executor for async/finish/future programs.

    Parameters
    ----------
    observers:
        Instrumentation consumers.  Must be schedule-robust (see the
        module docstring); dispatched under the locking discipline above.
    workers:
        Target parallelism (worker thread count).  Defaults to
        ``min(4, os.cpu_count())``.  Compensation threads may temporarily
        exceed it while tasks block.
    obs:
        Optional :class:`repro.obs.Observability` sink: task/finish spans
        and get instants like the serial runtime, plus real-thread worker
        spans, per-task run spans and steal instants on
        ``exec-worker-<n>`` tracks (tasks the caller thread runs inline
        land on an ``exec-caller`` track; inlined runs nest inside the
        run they were inlined into).
    max_threads:
        Hard cap on :attr:`pool_size`: the worker loops this run starts,
        compensation included, on new or reused threads.  A program
        whose nested blocking waits need more threads than this fails
        with :class:`~repro.runtime.errors.RuntimeStateError`.
    steal_seed:
        Seed for the per-worker victim-selection RNGs (reproducible
        steal *attempt* sequences; the schedule itself remains
        nondeterministic, which is the point).
    provenance:
        Rejected when enabled: call-site flight recording assumes the
        serial depth-first runtime.  Use the serial ``Runtime`` (or
        ``racecheck --runtime serial --explain``).
    """

    def __init__(
        self,
        observers: Iterable[ExecutionObserver] = (),
        *,
        workers: Optional[int] = None,
        obs=None,
        max_threads: int = 256,
        steal_seed: int = 0,
        provenance=None,
    ) -> None:
        super().__init__(observers, obs=obs, provenance=provenance)
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._max_threads = max(max_threads, workers)
        self._steal_seed = steal_seed
        # --- scheduling state -----------------------------------------
        self._slots: List[_Slot] = []
        self._inject: collections.deque = collections.deque()
        self._inject_lock = threading.Lock()
        self._work_cv = threading.Condition()
        self._work_version = 0
        self._shutdown = False
        #: One entry per worker loop handed to a pool thread this run.
        self._loops: List[_Loop] = []
        #: Threads this run may still park when their loops return.
        self._parkable = workers
        self._tls = threading.local()
        #: tid -> (body, args, kwargs) of every spawned task nobody has
        #: claimed yet.  Deques hold tasks; whoever pops a task's entry
        #: (one atomic ``dict.pop``) runs it, so each task runs once.
        self._bodies: Dict[int, tuple] = {}
        self._inline_budget = 0
        # --- pool accounting (compensation) ---------------------------
        self._pool_lock = threading.Lock()
        self._live = 0
        #: worker id -> (wait kind, wait predicate) while blocked.
        self._waiting: Dict[int, tuple] = {}
        #: The caller thread's (wait kind, wait predicate) while blocked:
        #: until it blocks it may still inline a task, so the pool is not
        #: starved.
        self._caller_wait: Optional[tuple] = None
        # --- structural event lock ------------------------------------
        self._struct_lock = threading.Lock()
        # --- join/finish signalling -----------------------------------
        self._join_cv = threading.Condition()
        #: fid -> tasks registered in the scope and not yet completed.
        self._pending: Dict[int, int] = collections.defaultdict(int)
        #: Tasks completed so far (guarded by _join_cv).
        self._completions = 0
        # --- stats ----------------------------------------------------
        self._stats_lock = threading.Lock()
        self.steals = 0
        self.failed_steals = 0
        self.compensation_threads = 0
        #: Tasks run inline by a blocked get or finish exit (try-unfork).
        self.inlined = 0

    # ------------------------------------------------------------------ #
    # Program execution                                                  #
    # ------------------------------------------------------------------ #
    def run(self, program: Callable[["ThreadRuntime"], T]) -> T:
        """Execute ``program(self)`` as the main task on the caller thread.

        Spawned tasks run on the worker pool; the caller thread blocks at
        joins like any task.  Single-use, like the serial runtime.
        """
        main = self._begin()
        self._inline_budget = sys.getrecursionlimit() // _FRAMES_PER_INLINE
        ctx = self._tls.ctx = _TaskCtx(main)
        try:
            root = self._open_finish(main, ctx.finish_stack)
            self._start_workers()
            try:
                result = program(self)
            finally:
                # Children are genuinely in flight: drain them before
                # the pool is torn down, however the program exits.
                self._wait_scope(root)
                root.closed = True
            ctx.finish_stack.pop()
            failure = self._child_failure(root)
            if failure is not None:
                raise failure
            with self._struct_lock:
                self._end_run(main, root)
            return result
        finally:
            self._stop_workers()
            self._tls.ctx = None

    @contextlib.contextmanager
    def finish(self):
        """``finish { ... }`` — scope exit blocks until every task spawned
        inside (transitively, with this scope as IEF) has completed."""
        ctx = self._require_ctx()
        stack = ctx.finish_stack
        with self._struct_lock:
            scope = self._open_finish(ctx.task, stack)
        try:
            yield scope
        except BaseException:
            for open_scope in stack[stack.index(scope):]:
                self._wait_scope(open_scope)
            with self._struct_lock:
                self._exit_finish(stack, scope, True)
            raise
        self._wait_scope(scope)
        failure = self._child_failure(scope)
        with self._struct_lock:
            self._exit_finish(stack, scope, failure is not None)
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------ #
    # Shared-memory instrumentation entry points                         #
    # ------------------------------------------------------------------ #
    def record_read(self, loc) -> None:
        """Report a read of ``loc`` by the task this thread runs (no
        lock: see the module docstring)."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise RuntimeStateError("shared read outside a running task")
        task = ctx.task
        for hook in self._read_hooks:
            hook(task, loc)

    def record_write(self, loc) -> None:
        """Report a write of ``loc`` by the task this thread runs (no
        lock: see the module docstring)."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise RuntimeStateError("shared write outside a running task")
        task = ctx.task
        for hook in self._write_hooks:
            hook(task, loc)

    # ------------------------------------------------------------------ #
    # Spawning and joining                                               #
    # ------------------------------------------------------------------ #
    def _spawn(
        self,
        kind: TaskKind,
        body: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: Optional[str],
    ) -> Task:
        ctx = self._require_ctx()
        with self._struct_lock:
            child = self._create(ctx.task, ctx.finish_stack[-1], kind, name)
            self._bodies[child.tid] = (body, args, kwargs)
            self._pending[child.ief.fid] += 1
        self._push(child)
        return child

    def _on_get(self, handle: FutureHandle) -> Any:
        ctx = self._require_ctx()
        producer = handle.task
        if not producer.completed and not self._try_inline(ctx, producer):
            below: Optional[_TaskCtx] = ctx
            while below is not None:
                if below.task is producer:
                    raise RuntimeStateError(
                        f"get() of {producer.name} inside its own execution "
                        f"(by {ctx.task.name} on thread "
                        f"{threading.current_thread().name}): a future "
                        "cannot wait for itself"
                    )
                below = below.below
            self._blocking_wait("get", lambda: producer.completed)
        with self._struct_lock:
            return self._got(ctx.task, producer)

    def _wait_scope(self, scope: FinishScope) -> None:
        fid = scope.fid
        pending = self._pending
        ctx = self._tls.ctx
        joins = scope.joins
        # Registration order is spawn order; ``len`` is re-read so tasks
        # registered while an earlier one runs inline are included.
        i = 0
        while pending[fid] and i < len(joins):
            self._try_inline(ctx, joins[i])
            i += 1
        if pending[fid]:
            self._blocking_wait("finish", lambda: pending[fid] == 0)

    def _try_inline(self, ctx: _TaskCtx, task: Task) -> bool:
        """Claim ``task`` and run it on the calling thread on top of
        ``ctx``; False if another thread claimed it first or the thread's
        inline depth is at the budget."""
        if ctx.depth >= self._inline_budget:
            return False
        item = self._bodies.pop(task.tid, None)
        if item is None:
            return False
        with self._stats_lock:
            self.inlined += 1
        self._execute(getattr(self._tls, "worker_id", None), task, item)
        return True

    def _blocking_wait(self, kind: str, predicate: Callable[[], bool]) -> None:
        """Block the calling thread until ``predicate`` holds.

        Worker threads register as blocked first, which may start a
        compensation worker so the pool keeps ``workers`` runnable
        threads (see the module docstring).  The timeout re-check is a
        belt-and-braces guard against lost wakeups, not a spin loop; on
        a worker it also detects a starved pool (:meth:`_check_starved`).
        """
        wid = getattr(self._tls, "worker_id", None)
        if wid is not None:
            self._before_block(wid, kind, predicate)
        else:
            self._caller_wait = (kind, predicate)
        try:
            with self._join_cv:
                while not predicate():
                    completions = self._completions
                    if (
                        not self._join_cv.wait(_WAIT_TICK)
                        and wid is not None
                        and self._completions == completions
                    ):
                        self._check_starved()
        finally:
            if wid is not None:
                self._after_block(wid)
            else:
                self._caller_wait = None

    def _check_starved(self) -> None:
        """Raise if no worker can ever run again (caller holds _join_cv
        and saw no task complete for a full wait tick).

        Starved means the pool is at ``max_threads`` and every live
        worker and the caller thread wait on a predicate that is still
        false.  Evaluating the predicates, not just counting waiters,
        keeps a waiter that was woken but has not yet run from counting
        as blocked.  Only a task completion can satisfy a predicate, and
        every thread that could complete one is waiting (a caller thread
        that is not waiting may still inline a task), so the state is
        permanent.
        """
        with self._pool_lock:
            waits = list(self._waiting.values())
            caller = self._caller_wait
            if (
                self._live < self._max_threads
                or len(waits) < self._live
                or caller is None
            ):
                return
        if caller[1]() or any(predicate() for _, predicate in waits):
            return
        kinds = collections.Counter(kind for kind, _ in waits)
        raise RuntimeStateError(
            f"ThreadRuntime starved at max_threads={self._max_threads}: "
            f"all {len(waits)} workers are blocked ("
            + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
            + f") and no task completed for {_WAIT_TICK}s; nested "
            "get/finish waits need more threads than max_threads allows"
        )

    def _before_block(
        self, wid: int, kind: str, predicate: Callable[[], bool]
    ) -> None:
        spawn = False
        with self._pool_lock:
            self._waiting[wid] = (kind, predicate)
            if (
                not self._shutdown
                and self._live - len(self._waiting) < self._workers
                and self._live < self._max_threads
            ):
                self._live += 1
                self.compensation_threads += 1
                spawn = True
        if self._obs is not None:
            self._obs.exec_block(wid, kind)
        if spawn:
            self._start_one_worker()

    def _after_block(self, wid: int) -> None:
        with self._pool_lock:
            del self._waiting[wid]

    # ------------------------------------------------------------------ #
    # The work-stealing pool                                             #
    # ------------------------------------------------------------------ #
    def _start_workers(self) -> None:
        with self._pool_lock:
            self._live = self._workers
        for _ in range(self._workers):
            self._start_one_worker()

    def _start_one_worker(self) -> None:
        """Hand worker loop ``wid`` to a parked pool thread, or to a new
        one when none is idle."""
        with self._pool_lock:  # two blocking workers may get here at once
            wid = len(self._slots)
            self._slots.append(_Slot())
        with _idle_lock:
            pooled = _idle.pop() if _idle else None
        if pooled is None:
            pooled = _PooledThread()
        loop = _Loop(pooled.thread)
        self._loops.append(loop)
        pooled.thread.name = f"repro-exec-{wid}"
        pooled.job = (self, wid, loop)
        pooled.wake.release()

    def _park(self, pooled: "_PooledThread") -> bool:
        """Put ``pooled``, whose loop for this run has returned, on the
        idle list; False once this run has parked ``workers`` threads."""
        with _idle_lock:
            if self._parkable == 0:
                return False
            self._parkable -= 1
            _idle.append(pooled)
            return True

    def _stop_workers(self) -> None:
        """Wake every loop to return and wait until each has: after this,
        no thread touches this runtime."""
        self._shutdown = True
        with self._work_cv:
            self._work_version += 1
            self._work_cv.notify_all()
        with self._join_cv:
            self._join_cv.notify_all()
        for loop in self._loops:
            loop.done.acquire()
            if loop.exiting:
                loop.thread.join()

    def _push(self, task: Task) -> None:
        wid = getattr(self._tls, "worker_id", None)
        if wid is None:
            with self._inject_lock:
                self._inject.append(task)
        else:
            slot = self._slots[wid]
            with slot.lock:
                slot.deque.append(task)  # newest end (owner LIFO)
        with self._work_cv:
            self._work_version += 1
            self._work_cv.notify_all()

    def _worker_loop(self, wid: int) -> None:
        self._tls.worker_id = wid
        self._tls.ctx = None
        obs = self._obs
        if obs is not None:
            obs.exec_worker_begin(wid)
        rng = random.Random((self._steal_seed << 16) ^ 0x9E3779B1 ^ wid)
        try:
            while True:
                claimed = self._next_item(wid, rng)
                if claimed is None:
                    return  # shutdown
                self._execute(wid, *claimed)
        finally:
            if obs is not None:
                obs.exec_worker_end(wid)

    def _next_item(self, wid: int, rng: random.Random) -> Optional[tuple]:
        while True:
            with self._work_cv:
                version = self._work_version
            item = self._try_pop(wid, rng)
            if item is not None:
                return item
            if self._shutdown:
                return None
            with self._work_cv:
                if self._work_version == version and not self._shutdown:
                    self._work_cv.wait(0.1)

    def _try_pop(self, wid: int, rng: random.Random) -> Optional[tuple]:
        """Claim the next task to run: ``(task, (body, args, kwargs))``."""
        # 1. Own deque, newest end (local depth-first, like the elision).
        slot = self._slots[wid]
        item = self._take(slot.lock, slot.deque, newest=True)
        if item is not None:
            return item
        # 2. The shared inject queue (tasks spawned by the caller thread).
        item = self._take(self._inject_lock, self._inject, newest=False)
        if item is not None:
            return item
        # 3. Steal: visit every other deque in uniformly random order,
        #    taking the *oldest* end (Blumofe–Leiserson).  Scanning all
        #    victims (not one probe) before sleeping guarantees progress.
        n = len(self._slots)
        if n > 1:
            victims = [v for v in range(n) if v != wid]
            rng.shuffle(victims)
            for victim in victims:
                vslot = self._slots[victim]
                item = self._take(vslot.lock, vslot.deque, newest=False)
                if item is not None:
                    with self._stats_lock:
                        self.steals += 1
                    if self._obs is not None:
                        self._obs.exec_steal(wid, victim, hit=True)
                    return item
            with self._stats_lock:
                self.failed_steals += 1
            if self._obs is not None:
                self._obs.exec_steal(wid, victims[-1], hit=False)
        return None

    def _take(
        self, lock: threading.Lock, deque: collections.deque, *, newest: bool
    ) -> Optional[tuple]:
        """Pop tasks from ``deque`` until one is claimed.  A task an
        inlining thread already claimed is dropped: not run, not counted."""
        while True:
            with lock:
                if not deque:
                    return None
                task = deque.pop() if newest else deque.popleft()
            item = self._bodies.pop(task.tid, None)
            if item is not None:
                return task, item

    def _execute(self, wid: Optional[int], task: Task, item: tuple) -> None:
        """Run a claimed task on this thread, on top of the thread's
        current context (``None`` on a worker's scheduling loop), and
        publish its completion.  ``wid`` is None on the caller thread."""
        body, args, kwargs = item
        below = self._tls.ctx
        self._tls.ctx = _TaskCtx(task, below)
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        start = tracer.now_us() if tracer is not None else 0.0
        try:
            task.value = body(*args, **kwargs)
        except BaseException as exc:  # stored, re-raised at join points
            task.exception = exc
        finally:
            self._tls.ctx = below
        try:
            with self._struct_lock:
                self._end_task(task)
        except BaseException as exc:  # an observer's: raised at the join
            task.exception = exc
        finally:
            if obs is not None:
                obs.exec_task_run(wid, task.tid, start)
            # Completion signal strictly after on_task_end: joiners woken
            # here observe a finalized (frozen-clock) producer.
            with self._join_cv:
                task.completed = True
                self._completions += 1
                self._pending[task.ief.fid] -= 1
                self._join_cv.notify_all()

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def _require_ctx(self) -> _TaskCtx:
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise RuntimeStateError(
                "parallel construct used outside a running task"
            )
        return ctx

    @property
    def current_task(self) -> Optional[Task]:
        """The task the *calling thread* is executing, if any."""
        ctx = getattr(self._tls, "ctx", None)
        return ctx.task if ctx is not None else None

    @property
    def workers(self) -> int:
        """Configured target parallelism."""
        return self._workers

    @property
    def pool_size(self) -> int:
        """Worker loops this run has started, compensation included,
        whether their threads were new or reused from the pool."""
        return len(self._loops)

    # ------------------------------------------------------------------ #
    # Live-telemetry introspection (lock-free, approximate)               #
    # ------------------------------------------------------------------ #
    @property
    def blocked(self) -> int:
        """Workers currently parked in a blocking ``get`` or finish wait
        (approximate: read without ``_pool_lock``, so a sampler may see
        a value one transition stale — never negative state corruption,
        since it only ever reads)."""
        return len(self._waiting)

    def deque_depths(self) -> List[int]:
        """Current per-worker deque depths, sampled without taking slot
        locks.  ``len`` of a deque is a single C-level read, so each
        entry is individually coherent; the *vector* is not an atomic
        snapshot (ALGORITHM.md §16) — good enough for gauges, never used
        for scheduling decisions."""
        return [len(slot.deque) for slot in list(self._slots)]
