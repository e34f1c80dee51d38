"""The model core shared by the three execution substrates.

The paper's detector is specified against a *serial depth-first elision*
(Section 4.1), but the programming model it checks — ``async`` / ``finish``
/ ``future`` — is a parallel one.  :class:`RuntimeBase` owns everything the
model defines apart from scheduling, so programs, the shared-memory
wrappers (:mod:`repro.memory.shared`) and the DSL interpreters
(:mod:`repro.testing.generator`) are runtime-agnostic:

=========================  ==================================================
Implementation             Schedule
=========================  ==================================================
:class:`~repro.runtime.runtime.Runtime`
                           serial depth-first elision (the reference; the
                           order Theorem 2's detector requires)
:class:`~repro.runtime.executor.ThreadRuntime`
                           work-stealing ``threading`` pool — real
                           preemptive parallelism, online detection via
                           :class:`~repro.core.parallel_detector.ParallelRaceDetector`
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`
                           cooperative ``asyncio`` interleaving (async
                           bodies; ``get`` awaits, ``finish`` is an async
                           scope)
=========================  ==================================================

The base holds the observers, the task and scope ids, the implicit
bracket (main, the root finish, shutdown), the front doors ``async_`` /
``future`` / ``forall`` / ``get``, and one dispatch method per
structural event.  A substrate adds only how a body runs, how a wait
waits and how the running task is found; the access hooks
``record_read`` / ``record_write`` are its own, as the hot path.  The
base takes no lock: :class:`~repro.runtime.executor.ThreadRuntime` calls
its dispatch methods under its structural lock.

The contract every substrate honours:

* ``run(program)`` executes ``program(self)`` as the main task inside the
  implicit root finish scope, dispatching the full
  :class:`~repro.core.events.ExecutionObserver` protocol (init, task
  create/end, get, finish start/end, read, write, shutdown) with Task /
  FinishScope argument objects.  Instances are single-use; task ids are
  dense in spawn order.
* A task's ``on_task_end`` happens before any ``on_get`` naming it as
  producer and before its finish scope's ``on_finish_end`` — detectors
  may rely on producers being finalized at join time (the vector-clock
  engines do).

The error-path rules:

* A refused spawn or finish (an observer raises in ``on_task_create`` /
  ``on_finish_start``) is taken back: the observers before the refuser
  see it end, the scope forgets the child, its body never runs, and the
  refusal propagates.
* A finish ends for observers however it exits, once its children are
  done, innermost scope first.  A task whose body raised ends too.  A
  child's error is raised at a join: the serial runtime raises it at the
  spawn, the concurrent ones at the ``get`` or the finish exit.  Only the
  root finish, main and shutdown stay unsent when the program raises.
* Once an observer raises in an end hook, the observers' streams may
  disagree, so no abnormal end (of a task that failed or a finish that
  raises) and no ``get`` of a failed future is sent.  On a concurrent
  runtime the hook's error becomes the task's error and is raised at the
  join that waits for the task.

Only the *event order* differs between substrates: the serial runtime
emits the depth-first order, the concurrent ones emit whatever order the
schedule produced.  Detectors that assume depth-first order (the DTRG
family) pair with the serial runtime; schedule-robust detectors
(:class:`~repro.core.parallel_detector.ParallelRaceDetector`) pair with
any of them.  See README "Choosing a runtime".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TypeVar

from repro.core.events import ExecutionObserver
from repro.runtime.errors import NullFutureError, RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["RuntimeBase"]

T = TypeVar("T")


class RuntimeBase:
    """The async/finish/future model, less its schedule.

    Parameters
    ----------
    observers:
        Instrumentation consumers, invoked in registration order at every
        boundary.  The list is fixed once :meth:`run` starts.
    obs:
        Optional :class:`repro.obs.Observability` sink: task lifetimes and
        finish scopes become Perfetto duration spans, ``get()`` joins
        become instants.  ``None`` (default) or a disabled object adds no
        work anywhere.
    provenance:
        Optional :class:`repro.obs.provenance.RaceProvenance` flight
        recorder, serial runtime only (call sites assume the depth-first
        elision; the concurrent runtimes reject an enabled one).  Its
        adapter observer goes *ahead* of ``observers`` so every
        spawn/get/read/write is tagged with its call site before any
        detector or recorder sees the event; with provenance off the
        dispatch loops simply do not contain it.
    """

    #: Whether the schedule is the serial depth-first elision.
    _depth_first = False

    def __init__(
        self,
        observers: Iterable[ExecutionObserver] = (),
        *,
        obs=None,
        provenance=None,
    ) -> None:
        self._observers: List[ExecutionObserver] = list(observers)
        if provenance is not None and getattr(provenance, "enabled", False):
            if not self._depth_first:
                raise ValueError(
                    f"{type(self).__name__} does not support provenance: "
                    "call-site attribution assumes the serial depth-first "
                    "elision; run the serial Runtime for --explain"
                )
            self._observers.insert(0, provenance.observer())
        self._obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )
        self.main_task: Optional[Task] = None
        self._next_tid = 0
        self._next_fid = 0
        #: False once an observer raised at a task's or a finish's end:
        #: the observers' streams may then disagree, and an error unwinds
        #: without abnormal ends.
        self._in_step = True
        #: tids whose error was already raised at a get() — the enclosing
        #: finish does not re-raise those.
        self._delivered: set = set()
        # Pre-bound hot-path hook lists (bound at run()).
        self._read_hooks: List[Callable] = []
        self._write_hooks: List[Callable] = []

    # ------------------------------------------------------------------ #
    # Front doors                                                        #
    # ------------------------------------------------------------------ #
    def add_observer(self, observer: ExecutionObserver) -> None:
        """Register an observer; only allowed before :meth:`run`."""
        if self.main_task is not None:
            raise RuntimeStateError(
                "cannot add observers while running or after a run"
            )
        self._observers.append(observer)

    @property
    def observers(self) -> List[ExecutionObserver]:
        return list(self._observers)

    def async_(
        self,
        body: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> Task:
        """``async { body(*args, **kwargs) }`` — spawn a fire-and-forget
        task and return it; it is joined only through its finish."""
        return self._spawn(TaskKind.ASYNC, body, args, kwargs, name)

    def future(
        self,
        body: Callable[..., T],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> FutureHandle[T]:
        """``future<T> f = async<T> body(...)`` — spawn a future task.

        Returns a :class:`FutureHandle` whose ``get()`` reports a join edge
        and yields the body's return value.
        """
        task = self._spawn(TaskKind.FUTURE, body, args, kwargs, name)
        return FutureHandle(self, task)

    def forall(
        self,
        iterable,
        body: Callable[..., Any],
        *,
        name: Optional[str] = None,
    ) -> None:
        """``forall (item in iterable) { body(item) }`` — HJ's parallel
        loop sugar: a finish scope containing one async per item."""
        with self.finish():
            for index, item in enumerate(iterable):
                self.async_(
                    body, item,
                    name=f"{name or 'forall'}[{index}]",
                )

    def get(self, handle: Optional[FutureHandle[T]]) -> T:
        """Null-checked ``get``.

        Raises :class:`NullFutureError` when ``handle`` is ``None``: the
        handle's publishing write raced with this read and lost, which in
        a parallel execution can deadlock (Appendix A).
        """
        if handle is None:
            raise NullFutureError(
                "get() on a null future reference: the handle's publishing "
                "write raced with this read; in a parallel execution this "
                "program can deadlock (Appendix A)"
            )
        return handle.get()

    @property
    def num_tasks(self) -> int:
        """Total tasks created so far (including main)."""
        return self._next_tid

    # ------------------------------------------------------------------ #
    # The implicit bracket                                               #
    # ------------------------------------------------------------------ #
    def _begin(self) -> Task:
        """Start the single run: bind the access hooks, create main and
        dispatch ``on_init``.  The caller installs main as the running
        task and opens the root finish with :meth:`_open_finish`."""
        if self.main_task is not None:
            raise RuntimeStateError(
                "runtime instances are single-use; create a new "
                f"{type(self).__name__}"
            )
        self._read_hooks = [ob.on_read for ob in self._observers]
        self._write_hooks = [ob.on_write for ob in self._observers]
        main = Task(0, TaskKind.MAIN, parent=None, ief=None)
        self._next_tid = 1
        self.main_task = main
        for ob in self._observers:
            ob.on_init(main)
        if self._obs is not None:
            self._obs.task_begin(main.tid, main.name, False)
        return main

    def _end_run(self, main: Task, root: FinishScope) -> None:
        """End the root finish and main, and shut down, once the program
        returned and every task is done (the caller closed ``root``)."""
        for ob in self._observers:
            ob.on_finish_end(root)
        main.completed = True
        for ob in self._observers:
            ob.on_task_end(main)
            ob.on_shutdown(main)
        obs = self._obs
        if obs is not None:
            obs.finish_end(root.fid)
            obs.task_end(main.tid)

    # ------------------------------------------------------------------ #
    # Structural events                                                  #
    # ------------------------------------------------------------------ #
    def _create(
        self,
        parent: Task,
        ief: FinishScope,
        kind: TaskKind,
        name: Optional[str],
    ) -> Task:
        """Create a child of ``parent`` in ``ief`` and dispatch
        ``on_task_create``; a refused child is taken back."""
        child = Task(self._next_tid, kind, parent=parent, ief=ief, name=name)
        self._next_tid += 1
        parent.num_children += 1
        ief.register(child)
        try:
            for ob in self._observers:
                ob.on_task_create(parent, child)
        except BaseException:
            # The child never runs: its finish forgets it.
            ief.joins.remove(child)
            parent.num_children -= 1
            self._take_back(ob, "on_task_end", child)
            raise
        if self._obs is not None:
            self._obs.task_begin(child.tid, child.name, child.is_future)
        return child

    def _end_task(self, task: Task) -> None:
        """Dispatch ``on_task_end`` once ``task``'s body returned or
        raised (``task.exception``)."""
        if task.exception is not None and not self._in_step:
            return
        try:
            for ob in self._observers:
                ob.on_task_end(task)
        except BaseException:
            self._in_step = False
            raise
        if self._obs is not None:
            self._obs.task_end(task.tid)

    def _got(self, consumer: Task, producer: Task) -> Any:
        """Dispatch ``consumer``'s join of the ended ``producer`` and
        return its value, or raise its error (delivered: its finish does
        not raise it again)."""
        error = producer.exception
        if error is None or self._in_step:
            for ob in self._observers:
                ob.on_get(consumer, producer)
            if self._obs is not None:
                self._obs.on_get(consumer.tid, producer.tid)
        if error is not None:
            self._delivered.add(producer.tid)
            raise error
        return producer.value

    def _open_finish(
        self, owner: Task, stack: List[FinishScope]
    ) -> FinishScope:
        """Start a finish scope of ``owner`` inside ``stack``'s top (the
        root when ``stack`` is empty) and push it; a refused scope is
        taken back and not pushed."""
        scope = FinishScope(
            self._next_fid, owner=owner, enclosing=stack[-1] if stack else None
        )
        self._next_fid += 1
        try:
            for ob in self._observers:
                ob.on_finish_start(scope)
        except BaseException:
            self._take_back(ob, "on_finish_end", scope)
            raise
        if self._obs is not None:
            self._obs.finish_begin(scope.fid, owner.tid)
        stack.append(scope)
        return scope

    def _exit_finish(
        self, stack: List[FinishScope], scope: FinishScope, failed: bool
    ) -> None:
        """Pop ``scope`` — and the scopes an error left open above it —
        off ``stack`` and end each for the observers, innermost first.
        The caller has waited for their tasks; ``failed`` says the exit
        raises."""
        if not failed and stack[-1] is not scope:  # pragma: no cover
            raise RuntimeStateError("finish scopes exited out of order")
        while stack:
            top = stack.pop()
            top.closed = True
            if not failed or self._in_step:
                try:
                    for ob in self._observers:
                        ob.on_finish_end(top)
                except BaseException:
                    self._in_step = False
                    raise
                if self._obs is not None:
                    self._obs.finish_end(top.fid)
            if top is scope:
                break

    def _child_failure(self, scope: FinishScope) -> Optional[BaseException]:
        """The error a concurrent finish exit raises: the first of its
        tasks' errors not already raised at a ``get()``."""
        for task in scope.joins:
            if task.exception is not None and task.tid not in self._delivered:
                return task.exception
        return None

    def _take_back(self, refuser, hook: str, arg) -> None:
        """End ``arg`` (``hook`` is its end hook) for the observers before
        ``refuser``, which refused to see it begin, so every observer's
        stream stays in step if the program catches the refusal."""
        observers = self._observers
        try:
            for ob in observers[:observers.index(refuser)]:
                getattr(ob, hook)(arg)
        except BaseException:
            self._in_step = False
            raise

    # ------------------------------------------------------------------ #
    # The schedule (each substrate)                                      #
    # ------------------------------------------------------------------ #
    def run(self, program: Callable[..., T]) -> T:
        """Execute ``program(self)`` as the main task (single-use)."""
        raise NotImplementedError

    def finish(self):
        """``finish { ... }`` as a (possibly async) context manager."""
        raise NotImplementedError

    def record_read(self, loc) -> None:
        """Report a read of shared location ``loc`` by the current task."""
        raise NotImplementedError

    def record_write(self, loc) -> None:
        """Report a write of shared location ``loc`` by the current task."""
        raise NotImplementedError

    def _spawn(
        self,
        kind: TaskKind,
        body: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: Optional[str],
    ) -> Task:
        """Create a child of the running task and schedule its body."""
        raise NotImplementedError
