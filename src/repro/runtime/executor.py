"""ThreadRuntime — a work-stealing threaded executor with online detection.

ROADMAP item 1: the serial :class:`~repro.runtime.runtime.Runtime` is the
*elision* of the async/finish/future model; this module is the model run
for real.  Tasks execute on a pool of ``threading`` workers scheduled by
the Blumofe–Leiserson discipline the simulator
(:mod:`repro.runtime.workstealing`) models in virtual time:

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

**Online detection.**  Observers are dispatched during the parallel
execution under the two-tier locking discipline of ALGORITHM.md §15:

* *structural* events (init/spawn/task-end/get/finish) are rare and
  serialize under one exclusive lock, so every observer sees a single
  consistent structural order and
  :class:`~repro.core.parallel_detector.ParallelRaceDetector`'s
  ``mutation_epoch`` ticks atomically with the mutation;
* *access* events (read/write — the hot path) bypass the structural
  lock entirely and serialize only per location, via 64 striped locks
  (``hash(loc) % 64``), so checks on different locations genuinely
  overlap.

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
* ``on_finish_end`` is dispatched only after every task registered in
  the scope (including transitively spawned ones with the same IEF) has
  completed.
"""

from __future__ import annotations

import collections
import contextlib
import os
import random
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from repro.core.events import ExecutionObserver
from repro.runtime.errors import NullFutureError, RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["ThreadRuntime"]

T = TypeVar("T")

#: Number of striped per-location access locks.
_STRIPES = 64

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


class ThreadRuntime:
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
        Hard cap on pool size including compensation threads.  A program
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
        if provenance is not None and getattr(provenance, "enabled", False):
            raise ValueError(
                "ThreadRuntime does not support provenance: call-site "
                "attribution assumes the serial depth-first elision; run "
                "the serial Runtime for --explain"
            )
        self._observers: List[ExecutionObserver] = list(observers)
        self._obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._max_threads = max(max_threads, workers)
        self._steal_seed = steal_seed
        self._running = False
        self._next_tid = 0
        self._next_fid = 0
        self.main_task: Optional[Task] = None
        # --- scheduling state -----------------------------------------
        self._slots: List[_Slot] = []
        self._inject: collections.deque = collections.deque()
        self._inject_lock = threading.Lock()
        self._work_cv = threading.Condition()
        self._work_version = 0
        self._shutdown = False
        self._threads: List[threading.Thread] = []
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
        # --- detection locking tiers ----------------------------------
        self._struct_lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(_STRIPES)]
        # --- join/finish signalling -----------------------------------
        self._join_cv = threading.Condition()
        self._pending: Dict[int, int] = {}
        #: Tasks completed so far (guarded by _join_cv).
        self._completions = 0
        # --- pre-bound hot-path hook lists (rebuilt at run()) ---------
        self._read_hooks: List[Callable] = []
        self._write_hooks: List[Callable] = []
        #: tids whose exception was already delivered at a get() — the
        #: enclosing finish does not re-raise those (guarded by _join_cv).
        self._delivered: set = set()
        # --- stats ----------------------------------------------------
        self._stats_lock = threading.Lock()
        self.steals = 0
        self.failed_steals = 0
        self.compensation_threads = 0
        #: Tasks run inline by a blocked get or finish exit (try-unfork).
        self.inlined = 0
        #: Per-stripe acquisition tallies for record_read/record_write;
        #: bumped while the stripe lock is held (the index is already in
        #: hand), read lock-free by the telemetry sampler.
        self._stripe_counts = [0] * _STRIPES

    # ------------------------------------------------------------------ #
    # Observer management                                                #
    # ------------------------------------------------------------------ #
    def add_observer(self, observer: ExecutionObserver) -> None:
        """Register an observer; only allowed before :meth:`run`."""
        if self._running:
            raise RuntimeStateError("cannot add observers while running")
        self._observers.append(observer)

    @property
    def observers(self) -> List[ExecutionObserver]:
        return list(self._observers)

    # ------------------------------------------------------------------ #
    # Program execution                                                  #
    # ------------------------------------------------------------------ #
    def run(self, program: Callable[["ThreadRuntime"], T]) -> T:
        """Execute ``program(self)`` as the main task on the caller thread.

        Spawned tasks run on the worker pool; the caller thread blocks at
        joins like any task.  Single-use, like the serial runtime.
        """
        if self._running:
            raise RuntimeStateError("runtime is already running a program")
        if self._next_tid != 0:
            raise RuntimeStateError(
                "runtime instances are single-use; create a new ThreadRuntime"
            )
        self._running = True
        self._read_hooks = [ob.on_read for ob in self._observers]
        self._write_hooks = [ob.on_write for ob in self._observers]
        self._inline_budget = sys.getrecursionlimit() // _FRAMES_PER_INLINE

        main = Task(self._next_tid, TaskKind.MAIN, parent=None, ief=None)
        self._next_tid += 1
        self.main_task = main
        ctx = _TaskCtx(main)
        self._tls.ctx = ctx
        obs = self._obs
        with self._struct_lock:
            for ob in self._observers:
                ob.on_init(main)
            if obs is not None:
                obs.task_begin(main.tid, main.name, False)
            root = FinishScope(self._next_fid, owner=main, enclosing=None)
            self._next_fid += 1
            self._pending[root.fid] = 0
            for ob in self._observers:
                ob.on_finish_start(root)
            if obs is not None:
                obs.finish_begin(root.fid, main.tid)
        ctx.finish_stack.append(root)
        self._start_workers()
        try:
            try:
                result = program(self)
            except BaseException:
                # Abandon the root scope like the serial runtime — but
                # children are genuinely in flight here, so drain them
                # before tearing the pool down.
                self._wait_scope(root)
                root.closed = True
                raise
            ctx.finish_stack.pop()
            self._wait_scope(root)
            root.closed = True
            self._raise_child_failure(root)
            with self._struct_lock:
                for ob in self._observers:
                    ob.on_finish_end(root)
            main.completed = True
            with self._struct_lock:
                for ob in self._observers:
                    ob.on_task_end(main)
                    ob.on_shutdown(main)
                if obs is not None:
                    obs.finish_end(root.fid)
                    obs.task_end(main.tid)
            return result
        finally:
            self._stop_workers()
            self._running = False
            self._tls.ctx = None

    # ------------------------------------------------------------------ #
    # Parallel constructs                                                #
    # ------------------------------------------------------------------ #
    def async_(
        self,
        body: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> Task:
        """``async { body(...) }`` — spawn; the Task runs on the pool."""
        return self._spawn(TaskKind.ASYNC, body, args, kwargs, name)

    def future(
        self,
        body: Callable[..., T],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> FutureHandle[T]:
        """``future<T> f = async<T> body(...)`` — spawn a future task."""
        task = self._spawn(TaskKind.FUTURE, body, args, kwargs, name)
        return FutureHandle(self, task)

    @contextlib.contextmanager
    def finish(self):
        """``finish { ... }`` — scope exit blocks until every task spawned
        inside (transitively, with this scope as IEF) has completed."""
        ctx = self._require_ctx()
        current = ctx.task
        obs = self._obs
        with self._struct_lock:
            scope = FinishScope(
                self._next_fid, owner=current, enclosing=ctx.finish_stack[-1]
            )
            self._next_fid += 1
            self._pending[scope.fid] = 0
            for ob in self._observers:
                ob.on_finish_start(scope)
            if obs is not None:
                obs.finish_begin(scope.fid, current.tid)
        ctx.finish_stack.append(scope)
        try:
            yield scope
        except BaseException:
            while ctx.finish_stack and ctx.finish_stack[-1] is not scope:
                ctx.finish_stack.pop().closed = True
            if ctx.finish_stack and ctx.finish_stack[-1] is scope:
                ctx.finish_stack.pop()
            self._wait_scope(scope)
            scope.closed = True
            raise
        top = ctx.finish_stack.pop()
        if top is not scope:  # pragma: no cover - defensive
            raise RuntimeStateError("finish scopes exited out of order")
        self._wait_scope(scope)
        scope.closed = True
        self._raise_child_failure(scope)
        with self._struct_lock:
            for ob in self._observers:
                ob.on_finish_end(scope)
            if obs is not None:
                obs.finish_end(scope.fid)

    def forall(
        self,
        iterable,
        body: Callable[..., Any],
        *,
        name: Optional[str] = None,
    ) -> None:
        """``forall (item in iterable) { body(item) }``."""
        with self.finish():
            for index, item in enumerate(iterable):
                self.async_(
                    body, item,
                    name=f"{name or 'forall'}[{index}]",
                )

    def get(self, handle: Optional[FutureHandle[T]]) -> T:
        """Null-checked ``get``: blocks until the producer completes."""
        if handle is None:
            raise NullFutureError(
                "get() on a null future reference: the handle's publishing "
                "write raced with this read (Appendix A)"
            )
        return handle.get()

    # ------------------------------------------------------------------ #
    # Shared-memory instrumentation entry points                         #
    # ------------------------------------------------------------------ #
    def record_read(self, loc) -> None:
        """Report a read of ``loc`` — serialized per location (stripe)."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise RuntimeStateError("shared read outside a running task")
        task = ctx.task
        idx = hash(loc) % _STRIPES
        with self._stripes[idx]:
            self._stripe_counts[idx] += 1
            for hook in self._read_hooks:
                hook(task, loc)

    def record_write(self, loc) -> None:
        """Report a write of ``loc`` — serialized per location (stripe)."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise RuntimeStateError("shared write outside a running task")
        task = ctx.task
        idx = hash(loc) % _STRIPES
        with self._stripes[idx]:
            self._stripe_counts[idx] += 1
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
        parent = ctx.task
        ief = ctx.finish_stack[-1]
        obs = self._obs
        with self._struct_lock:
            child = Task(
                self._next_tid, kind, parent=parent, ief=ief, name=name
            )
            self._next_tid += 1
            parent.num_children += 1
            self._bodies[child.tid] = (body, args, kwargs)
            ief.register(child)
            self._pending[ief.fid] += 1
            for ob in self._observers:
                ob.on_task_create(parent, child)
            if obs is not None:
                obs.task_begin(child.tid, child.name, child.is_future)
        self._push(child)
        return child

    def _on_get(self, handle: FutureHandle) -> Any:
        ctx = self._require_ctx()
        consumer = ctx.task
        producer = handle.task
        if not producer.completed and not self._try_inline(ctx, producer):
            below: Optional[_TaskCtx] = ctx
            while below is not None:
                if below.task is producer:
                    raise RuntimeStateError(
                        f"get() of {producer.name} inside its own execution "
                        f"(by {consumer.name} on thread "
                        f"{threading.current_thread().name}): a future "
                        "cannot wait for itself"
                    )
                below = below.below
            self._blocking_wait("get", lambda: producer.completed)
        with self._struct_lock:
            for ob in self._observers:
                ob.on_get(consumer, producer)
            if self._obs is not None:
                self._obs.on_get(consumer.tid, producer.tid)
        if producer.exception is not None:
            with self._join_cv:
                self._delivered.add(producer.tid)
            raise producer.exception
        return producer.value

    def _raise_child_failure(self, scope: FinishScope) -> None:
        # A failed future whose exception was already delivered at a
        # ``get()`` is considered handled; everything else re-raises here.
        for task in scope.joins:
            if task.exception is not None and task.tid not in self._delivered:
                raise task.exception

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
        wid = len(self._slots)
        self._slots.append(_Slot())
        thread = threading.Thread(
            target=self._worker_loop, args=(wid,),
            name=f"repro-exec-{wid}", daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _stop_workers(self) -> None:
        self._shutdown = True
        with self._work_cv:
            self._work_version += 1
            self._work_cv.notify_all()
        with self._join_cv:
            self._join_cv.notify_all()
        for thread in self._threads:
            thread.join()

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
        start = perf_counter() if obs is not None else 0.0
        try:
            value: Any = body(*args, **kwargs)
            exc: Optional[BaseException] = None
        except BaseException as e:  # stored, re-raised at join points
            value, exc = None, e
        finally:
            self._tls.ctx = below
        with self._struct_lock:
            task.value = value
            task.exception = exc
            for ob in self._observers:
                ob.on_task_end(task)
            if obs is not None:
                obs.task_end(task.tid)
        if obs is not None:
            now = perf_counter()
            obs.exec_task_run(
                wid, task.tid, start * 1e6, (now - start) * 1e6
            )
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
    def num_tasks(self) -> int:
        """Total tasks created so far (including main)."""
        return self._next_tid

    @property
    def workers(self) -> int:
        """Configured target parallelism."""
        return self._workers

    @property
    def pool_size(self) -> int:
        """Worker threads started so far (including compensation)."""
        return len(self._threads)

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

    @property
    def stripe_acquisitions(self) -> List[int]:
        """Per-stripe acquisition counts of the record_read/record_write
        per-location locks (a copy; approximate under concurrency)."""
        return list(self._stripe_counts)

    def deque_depths(self) -> List[int]:
        """Current per-worker deque depths, sampled without taking slot
        locks.  ``len`` of a deque is a single C-level read, so each
        entry is individually coherent; the *vector* is not an atomic
        snapshot (ALGORITHM.md §16) — good enough for gauges, never used
        for scheduling decisions."""
        return [len(slot.deque) for slot in list(self._slots)]
