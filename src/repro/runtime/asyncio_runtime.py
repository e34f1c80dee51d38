"""AsyncioRuntime — async/finish/future on the ``asyncio`` event loop.

The third execution substrate on :class:`~repro.runtime.base.RuntimeBase`,
which owns the model (ids, the implicit bracket, the front doors and the
observer dispatch with its error-path rules); this module adds the
schedule, cooperative single-threaded concurrency:

* ``async``/``future`` spawn → :meth:`asyncio.loop.create_task` — each
  model task is one ``asyncio.Task`` running the body (a coroutine
  function, awaited; a plain callable is invoked and its result awaited
  if awaitable);
* future ``get()`` → ``await`` — the consumer suspends until the
  producer's done event, so the program text drives real suspension
  points;
* ``finish`` → a structured-concurrency scope (``async with
  rt.finish():``) whose exit awaits every task registered in the scope,
  including tasks those tasks transitively spawn with the same IEF;
  ``forall`` is awaited (``await rt.forall(...)``).

A task's done event is set however its ``on_task_end`` returns; an
observer's error there is raised at the join that awaits the task.

There is no preemption and no shared-memory tearing — but the *event
order* is whatever the loop's ready queue produces, which is nothing
like the serial depth-first elision (a parent runs past a spawn before
the child starts; siblings interleave at every ``await``).  Detectors
that assume depth-first order (the DTRG family) are therefore just as
wrong here as under real threads; pair this runtime with
:class:`~repro.core.parallel_detector.ParallelRaceDetector`, whose
verdicts are schedule-robust.  No locks are needed anywhere: observer
dispatch is serialized by the single loop thread, which trivially
satisfies the §15 locking contract.

The per-task context (current task + finish stack) lives in a
:class:`contextvars.ContextVar`: ``asyncio`` gives every task a copy of
the spawning context, and the task wrapper's first action is installing
a *fresh* context object — sharing the parent's mutable finish stack
across concurrently-live tasks would corrupt scope tracking.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import contextvars
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from repro.core.events import ExecutionObserver
from repro.runtime.base import RuntimeBase
from repro.runtime.errors import RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["AsyncioRuntime"]

T = TypeVar("T")


class _TaskCtx:
    __slots__ = ("task", "finish_stack")

    def __init__(self, task: Task) -> None:
        self.task = task
        self.finish_stack: List[FinishScope] = (
            [] if task.ief is None else [task.ief]
        )


class AsyncioRuntime(RuntimeBase):
    """Cooperative ``asyncio`` executor for async/finish/future programs.

    ``run(program)`` expects an ``async def program(rt)`` and drives it
    with :func:`asyncio.run`.  Task bodies may be coroutine functions
    (awaited) or plain callables.  Instances are single-use.

    Parameters mirror the other runtimes; ``provenance`` is rejected
    when enabled (call-site attribution assumes the serial elision).
    """

    def __init__(
        self,
        observers: Iterable[ExecutionObserver] = (),
        *,
        obs=None,
        provenance=None,
    ) -> None:
        super().__init__(observers, obs=obs, provenance=provenance)
        self._ctx_var: contextvars.ContextVar[Optional[_TaskCtx]] = (
            contextvars.ContextVar("repro_asyncio_ctx", default=None)
        )
        self._done: Dict[int, asyncio.Event] = {}
        #: fid -> asyncio.Tasks registered in the scope, not yet awaited.
        self._scope_tasks: Dict[int, List[asyncio.Task]] = (
            collections.defaultdict(list)
        )

    # ------------------------------------------------------------------ #
    # Program execution                                                  #
    # ------------------------------------------------------------------ #
    def run(self, program: Callable[["AsyncioRuntime"], Any]) -> Any:
        """Execute ``async def program(rt)`` to completion."""
        if not (
            inspect.iscoroutinefunction(program)
            or inspect.iscoroutinefunction(
                getattr(program, "__call__", None)
            )
        ):
            raise TypeError(
                "AsyncioRuntime.run expects an async program: define it "
                "as `async def program(rt)` (the serial and threaded "
                "runtimes take the synchronous form)"
            )
        return asyncio.run(self._main(program))

    async def _main(self, program) -> Any:
        main = self._begin()
        ctx = _TaskCtx(main)
        self._ctx_var.set(ctx)
        root = self._open_finish(main, ctx.finish_stack)
        try:
            result = await program(self)
        finally:
            await self._drain_scope(root)
            root.closed = True
        ctx.finish_stack.pop()
        failure = self._child_failure(root)
        if failure is not None:
            raise failure
        self._end_run(main, root)
        return result

    @contextlib.asynccontextmanager
    async def finish(self):
        """``finish { ... }`` — ``async with rt.finish():``; exit awaits
        every task whose IEF is this scope."""
        ctx = self._require_ctx()
        stack = ctx.finish_stack
        scope = self._open_finish(ctx.task, stack)
        try:
            yield scope
        except BaseException:
            for open_scope in stack[stack.index(scope):]:
                await self._drain_scope(open_scope)
            self._exit_finish(stack, scope, True)
            raise
        await self._drain_scope(scope)
        failure = self._child_failure(scope)
        self._exit_finish(stack, scope, failure is not None)
        if failure is not None:
            raise failure

    async def forall(
        self,
        iterable,
        body: Callable[..., Any],
        *,
        name: Optional[str] = None,
    ) -> None:
        """``forall (item in iterable) { body(item) }`` — ``await
        rt.forall(...)``."""
        async with self.finish():
            for index, item in enumerate(iterable):
                self.async_(
                    body, item,
                    name=f"{name or 'forall'}[{index}]",
                )

    # ------------------------------------------------------------------ #
    # Shared-memory instrumentation entry points                         #
    # ------------------------------------------------------------------ #
    def record_read(self, loc) -> None:
        """Report a read of ``loc`` by the current model task."""
        ctx = self._ctx_var.get()
        if ctx is None:
            raise RuntimeStateError("shared read outside a running task")
        task = ctx.task
        for hook in self._read_hooks:
            hook(task, loc)

    def record_write(self, loc) -> None:
        """Report a write of ``loc`` by the current model task."""
        ctx = self._ctx_var.get()
        if ctx is None:
            raise RuntimeStateError("shared write outside a running task")
        task = ctx.task
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
        ctx = self._require_ctx()
        child = self._create(ctx.task, ctx.finish_stack[-1], kind, name)
        self._done[child.tid] = asyncio.Event()
        atask = asyncio.get_running_loop().create_task(
            self._run_task(child, body, args, kwargs), name=child.name
        )
        self._scope_tasks[child.ief.fid].append(atask)
        return child

    async def _run_task(
        self, task: Task, body: Callable, args: tuple, kwargs: dict
    ) -> None:
        # First action: install a fresh context — this asyncio task runs
        # in a *copy* of the spawn-time context, so the set is task-local
        # and the parent's mutable finish stack is never shared.
        self._ctx_var.set(_TaskCtx(task))
        try:
            result = body(*args, **kwargs)
            if inspect.isawaitable(result):
                result = await result
            task.value = result
        except BaseException as exc:  # stored, re-raised at join points
            task.exception = exc
        try:
            self._end_task(task)
        except BaseException as exc:  # an observer's: raised at the join
            task.exception = exc
        finally:
            # Done signal strictly after on_task_end: awaiting consumers
            # observe a finalized producer.
            task.completed = True
            self._done[task.tid].set()

    async def _on_get(self, handle: FutureHandle) -> Any:
        ctx = self._require_ctx()
        producer = handle.task
        if not producer.completed:
            await self._done[producer.tid].wait()
        return self._got(ctx.task, producer)

    async def _drain_scope(self, scope: FinishScope) -> None:
        # Tasks already in the scope may spawn more with the same IEF
        # while we await, so drain in rounds until the list stays empty.
        pending = self._scope_tasks[scope.fid]
        while pending:
            batch = pending[:]
            del pending[: len(batch)]
            await asyncio.gather(*batch)

    def _require_ctx(self) -> _TaskCtx:
        ctx = self._ctx_var.get()
        if ctx is None:
            raise RuntimeStateError(
                "parallel construct used outside a running task"
            )
        return ctx

    @property
    def current_task(self) -> Optional[Task]:
        """The model task the calling coroutine belongs to, if any."""
        ctx = self._ctx_var.get()
        return ctx.task if ctx is not None else None
