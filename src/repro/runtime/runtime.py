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

The model itself — ids, the implicit bracket, observer dispatch and its
error-path rules — is :class:`~repro.runtime.base.RuntimeBase`; this
module adds only the schedule.  Every synchronization boundary and (via
:mod:`repro.memory.shared`) every shared-memory access is broadcast to the
registered :class:`~repro.core.events.ExecutionObserver` instances — the
race detector, the computation-graph builder, the metrics collector,
baselines, or a trace recorder, in any combination.

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
from typing import Any, Callable, List, Optional, TypeVar

from repro.runtime.base import RuntimeBase
from repro.runtime.errors import RuntimeStateError
from repro.runtime.finish import FinishScope
from repro.runtime.future import FutureHandle
from repro.runtime.task import Task, TaskKind

__all__ = ["Runtime"]

T = TypeVar("T")


class Runtime(RuntimeBase):
    """Serial depth-first executor with pluggable instrumentation.

    Parameters are :class:`~repro.runtime.base.RuntimeBase`'s; this is the
    one runtime that accepts an enabled ``provenance``.
    """

    _depth_first = True

    def __init__(self, observers=(), *, obs=None, provenance=None) -> None:
        super().__init__(observers, obs=obs, provenance=provenance)
        #: The running task (valid only while running).
        self.current_task: Optional[Task] = None
        self._finish_stack: List[FinishScope] = []

    def run(self, program: Callable[["Runtime"], T]) -> T:
        """Execute ``program(self)`` as the main task.

        Creates the main task and the implicit root finish scope around its
        body ("there is an implicit finish scope surrounding the body of
        main()", Section 2), runs the program serially depth-first, and
        returns its result.  Instances are single-use, to keep task ids
        meaningful across observers.
        """
        main = self._begin()
        self.current_task = main
        root = self._open_finish(main, self._finish_stack)
        try:
            result = program(self)
        finally:
            self._finish_stack.pop()
            root.closed = True
        self._end_run(main, root)
        self.current_task = None
        return result

    @contextlib.contextmanager
    def finish(self):
        """``finish { ... }`` as a context manager."""
        current = self._require_current()
        stack = self._finish_stack
        scope = self._open_finish(current, stack)
        try:
            yield scope
        except BaseException:
            # Every child registered to the scopes this error closes has
            # ended (a spawn ends its child before re-raising).
            self._exit_finish(stack, scope, True)
            raise
        if self.current_task is not current:
            self._in_step = False
            raise RuntimeStateError(
                "finish scope must end in the task that started it"
            )
        self._exit_finish(stack, scope, False)

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
    # The schedule: a child runs inline, to completion                   #
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
        child = self._create(parent, self._finish_stack[-1], kind, name)
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
        self._end_task(child)
        if error is not None:
            try:
                raise error
            finally:
                error = None  # no frame <-> traceback cycle
        return child

    def _on_get(self, handle: FutureHandle) -> Any:
        return self._got(self._require_current(), handle.task)

    def _require_current(self) -> Task:
        task = self.current_task
        if task is None:
            raise RuntimeStateError(
                "parallel construct used outside Runtime.run()"
            )
        return task

