"""Serial depth-first runtime for async / finish / future programs.

This is the execution substrate the paper's detector requires: "the
representation assumes that the input program is executed serially in
depth-first order" (Section 4.1).  Concretely:

* ``async { S }`` runs the child body *immediately and to completion*, then
  resumes the parent — the serial-elision order of Appendix A.1.
* ``future<T> f = async<T> Expr`` likewise evaluates ``Expr`` inline and
  returns a completed :class:`~repro.runtime.future.FutureHandle`; ``get()``
  therefore never blocks, but still reports the join edge to observers.
* ``finish { S }`` is a context manager; because children complete inline, it
  waits for nothing at runtime but tells observers which tasks joined it.

Every synchronization boundary and (via :mod:`repro.memory.shared`) every
shared-memory access is broadcast to the registered
:class:`~repro.core.events.ExecutionObserver` instances — the race detector,
the computation-graph builder, the metrics collector, baselines, or a trace
recorder, in any combination.

Usage::

    from repro import Runtime, DeterminacyRaceDetector, SharedArray

    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    data = SharedArray(rt, "data", [0] * 4)

    def program(rt):
        with rt.finish():
            rt.async_(lambda: data.write(0, 1))
            f = rt.future(lambda: data.read(0))   # race with the async!
        return f.get()

    rt.run(program)
    print(det.report.races)

Hot-path note (per the HPC guides: optimize the measured bottleneck): the
observer dispatch for reads/writes is the innermost loop of every benchmark,
so hooks are pre-bound into flat lists at :meth:`Runtime.run` and the
read/write paths avoid attribute lookups and allocation.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, List, Optional, TypeVar

from repro.core.events import ExecutionObserver
from repro.runtime.errors import NullFutureError, RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["Runtime"]

T = TypeVar("T")


class Runtime:
    """Serial depth-first executor with pluggable instrumentation.

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
        recorder.  When enabled, its adapter observer is inserted *ahead*
        of ``observers`` so every spawn/get/read/write is tagged with its
        call site before any detector or recorder sees the event.  The
        hot paths are untouched either way — with provenance off the
        dispatch loops simply do not contain the adapter, so the disabled
        path executes the exact pre-provenance bytecode.
    """

    def __init__(
        self,
        observers: Iterable[ExecutionObserver] = (),
        *,
        obs=None,
        provenance=None,
    ) -> None:
        self._observers: List[ExecutionObserver] = list(observers)
        if provenance is not None and getattr(provenance, "enabled", False):
            self._observers.insert(0, provenance.observer())
        self._obs = (
            obs if obs is not None and getattr(obs, "enabled", False) else None
        )
        self._running = False
        # Execution state (valid only while running).
        self.main_task: Optional[Task] = None
        self.current_task: Optional[Task] = None
        self._finish_stack: List[FinishScope] = []
        #: False once an observer raised at a task's or a finish's end:
        #: the observers' streams may then disagree, and an error unwinds
        #: without the abnormal ends below.
        self._in_step = True
        self._next_tid = 0
        self._next_fid = 0
        # Pre-bound hot-path hook lists (rebuilt at run()).
        self._read_hooks: List[Callable] = []
        self._write_hooks: List[Callable] = []

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
    def run(self, program: Callable[["Runtime"], T]) -> T:
        """Execute ``program(self)`` as the main task.

        Creates the main task and the implicit root finish scope around its
        body ("there is an implicit finish scope surrounding the body of
        main()", Section 2), runs the program serially depth-first, and
        returns its result.  A runtime instance can run one program at a
        time but may be reused sequentially only with fresh state — reuse is
        rejected to keep task ids meaningful across observers.
        """
        if self._running:
            raise RuntimeStateError("runtime is already running a program")
        if self._next_tid != 0:
            raise RuntimeStateError(
                "runtime instances are single-use; create a new Runtime"
            )
        self._running = True
        self._read_hooks = [ob.on_read for ob in self._observers]
        self._write_hooks = [ob.on_write for ob in self._observers]

        main = Task(self._alloc_tid(), TaskKind.MAIN, parent=None, ief=None)
        self.main_task = main
        self.current_task = main
        for ob in self._observers:
            ob.on_init(main)
        obs = self._obs
        if obs is not None:
            obs.task_begin(main.tid, main.name, False)

        root = FinishScope(self._alloc_fid(), owner=main, enclosing=None)
        self._finish_stack.append(root)
        for ob in self._observers:
            ob.on_finish_start(root)
        if obs is not None:
            obs.finish_begin(root.fid, main.tid)
        try:
            result = program(self)
        finally:
            self._finish_stack.pop()
            root.closed = True
            self._running = False
        for ob in self._observers:
            ob.on_finish_end(root)
        main.completed = True
        for ob in self._observers:
            ob.on_task_end(main)
            ob.on_shutdown(main)
        if obs is not None:
            obs.finish_end(root.fid)
            obs.task_end(main.tid)
        self.current_task = None
        return result

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
        """``async { body(*args, **kwargs) }`` — spawn a fire-and-forget task.

        The child runs immediately (depth-first) and its completed
        :class:`Task` is returned for introspection; there is no handle to
        join on — synchronization happens through the enclosing ``finish``.
        """
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

    @contextlib.contextmanager
    def finish(self):
        """``finish { ... }`` as a context manager."""
        current = self._require_current()
        scope = FinishScope(
            self._alloc_fid(), owner=current, enclosing=self._finish_stack[-1]
        )
        # Dispatch before pushing: a rejecting observer (e.g. a baseline
        # raising UnsupportedConstructError) must leave the stack intact.
        try:
            for ob in self._observers:
                ob.on_finish_start(scope)
        except BaseException:
            self._take_back(ob, "on_finish_end", scope)
            raise
        obs = self._obs
        if obs is not None:
            obs.finish_begin(scope.fid, current.tid)
        self._finish_stack.append(scope)
        try:
            yield scope
        except BaseException:
            # Close this scope — and any nested scopes the exception left
            # open — and let the error propagate.  Every child registered
            # to them has ended (a spawn ends its child before re-raising),
            # so observers see the scopes end, innermost first, as a
            # finish joins its children however its body exits.  The
            # stream then still follows the running task when the program
            # catches the error and goes on.
            while self._finish_stack:
                top = self._finish_stack.pop()
                top.closed = True
                if self._in_step:
                    self._end_finish(top)
                if top is scope:
                    break
            raise
        top = self._finish_stack.pop()
        if top is not scope:  # pragma: no cover - defensive
            raise RuntimeStateError("finish scopes exited out of order")
        scope.closed = True
        if self.current_task is not current:
            self._in_step = False
            raise RuntimeStateError(
                "finish scope must end in the task that started it"
            )
        self._end_finish(scope)

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
        """Null-checked ``get`` helper.

        Raises :class:`NullFutureError` when ``handle`` is ``None`` — the
        depth-first manifestation of the Appendix A deadlock: the handle's
        publishing write raced with this read and lost.
        """
        if handle is None:
            raise NullFutureError(
                "get() on a null future reference: in a parallel execution "
                "this program can deadlock (Appendix A)"
            )
        return handle.get()

    # ------------------------------------------------------------------ #
    # Shared-memory instrumentation entry points                         #
    # ------------------------------------------------------------------ #
    def record_read(self, loc) -> None:
        """Report a read of shared location ``loc`` by the current task."""
        task = self.current_task
        if task is None:
            raise RuntimeStateError("shared read outside a running program")
        for hook in self._read_hooks:
            hook(task, loc)

    def record_write(self, loc) -> None:
        """Report a write of shared location ``loc`` by the current task."""
        task = self.current_task
        if task is None:
            raise RuntimeStateError("shared write outside a running program")
        for hook in self._write_hooks:
            hook(task, loc)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _spawn(
        self,
        kind: TaskKind,
        body: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: Optional[str],
    ) -> Task:
        parent = self._require_current()
        ief = self._finish_stack[-1]
        child = Task(self._alloc_tid(), kind, parent=parent, ief=ief, name=name)
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
        obs = self._obs
        if obs is not None:
            obs.task_begin(child.tid, child.name, child.is_future)
        # Depth-first: run the child to completion right now.
        self.current_task = child
        error = None
        try:
            child.value = body(*args, **kwargs)
            child.completed = True
        except BaseException as exc:
            child.exception = error = exc
        self.current_task = parent
        # A child that raised ends too, before the parent resumes, so a
        # parent that catches the error goes on as the running task.
        if error is None or self._in_step:
            try:
                for ob in self._observers:
                    ob.on_task_end(child)
            except BaseException:
                self._in_step = False
                raise
            if obs is not None:
                obs.task_end(child.tid)
        if error is not None:
            try:
                raise error
            finally:
                error = None  # no frame <-> traceback cycle
        return child

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

    # An observer that raises in an end hook leaves the streams out of
    # step from then on.
    def _end_finish(self, scope: FinishScope) -> None:
        try:
            for ob in self._observers:
                ob.on_finish_end(scope)
        except BaseException:
            self._in_step = False
            raise
        if self._obs is not None:
            self._obs.finish_end(scope.fid)

    def _on_get(self, handle: FutureHandle) -> Any:
        consumer = self._require_current()
        producer = handle.task
        if not producer.completed:  # pragma: no cover - impossible under DFS
            raise RuntimeStateError(
                f"get() on incomplete task {producer.name}; depth-first "
                "execution violated"
            )
        for ob in self._observers:
            ob.on_get(consumer, producer)
        obs = self._obs
        if obs is not None:
            obs.on_get(consumer.tid, producer.tid)
        return producer.value

    def _require_current(self) -> Task:
        task = self.current_task
        if task is None:
            raise RuntimeStateError(
                "parallel construct used outside Runtime.run()"
            )
        return task

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _alloc_fid(self) -> int:
        fid = self._next_fid
        self._next_fid += 1
        return fid

    @property
    def num_tasks(self) -> int:
        """Total tasks created so far (including main)."""
        return self._next_tid

    @property
    def current_finish(self) -> Optional[FinishScope]:
        """Innermost active finish scope, if a program is running."""
        return self._finish_stack[-1] if self._finish_stack else None
