"""Trace recording and replay.

The paper measures detector overhead by running the same instrumented
program with and without the race-detection library.  We additionally
support *trace replay*: record the instrumentation event stream once, then
feed it to any detector without re-executing the workload.  This isolates
pure detector cost (the quantity Theorem 1 bounds) from workload cost, and
it is how ``benchmarks/bench_detector_comparison.py`` compares our detector
against SP-bags/ESP-bags/vector clocks on identical event streams.

Recording lowers each event straight into the trace's flat columns
(:class:`~repro.core.events.EncodedTrace`), which the offline checkers
(``check_trace_fast``, ``check_trace_parallel``) read as they are; replay
iterates the trace, which decodes event objects from those columns.

Replay synthesizes lightweight stand-ins for :class:`Task` and
:class:`FinishScope` that carry exactly the attributes observers consume
(``tid``, ``is_future``, ``parent``, ``ief``, ``name``, ``owner``,
``joins``, ``enclosing``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.events import (
    Event,
    ExecutionObserver,
    FinishEndEvent,
    FinishStartEvent,
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    WriteEvent,
    observer_hooks,
)

__all__ = ["TraceRecorder", "replay_trace"]


class TraceRecorder(ExecutionObserver):
    """Observer that records the full event stream into a :class:`Trace`.

    Each hook lowers its event straight into the trace's columns through
    the trace's :class:`~repro.core.events.ColumnBuilder`: an access
    appends one int ``loc_id << 1 | is_write`` (the builder's own
    ``read``/``write`` are the access hooks), a spawn, get or finish
    boundary one structure tuple.  No event object is built while the
    program runs; iterating the trace decodes them afterwards.

    The implicit bracket (main task init/end, root finish start/end,
    shutdown) is *not* recorded — :func:`replay_trace` re-synthesizes it, so
    a recorded trace contains exactly the program's own events.

    The recorder is serial-only: hooks append without a lock and assume
    the depth-first event order of :class:`~repro.runtime.runtime.Runtime`.
    ``racecheck`` rejects ``--trace`` (and ``--fast``/``--jobs``) on
    ``--runtime threads|asyncio``, and ``repro-fuzz`` records only on the
    serial runtime.

    With a :class:`repro.obs.provenance.RaceProvenance` attached (the same
    object given to the runtime, whose adapter observer runs first), the
    read/write events additionally carry the provenance call-site label,
    so :func:`repro.obs.provenance.explain_races` can attribute
    races to source sites without re-running the program.  The hooks that
    record sites are defined only then, so the default hooks stay
    branch-free.
    """

    def __init__(self, provenance=None) -> None:
        self.trace = Trace()
        builder = self.trace.builder
        hooks = observer_hooks(builder)
        prov = (
            provenance
            if provenance is not None and getattr(provenance, "enabled", False)
            else None
        )
        if prov is not None:
            label = prov.site_label
            access_site = builder.access_site

            def with_site(lower):
                def hook(task, loc) -> None:
                    lower(task, loc)
                    access_site(label(prov.current_site))
                return hook

            for name in ("on_read", "on_write"):
                hooks[name] = with_site(hooks[name])
        for name, hook in hooks.items():
            setattr(self, name, hook)


class _ReplayTask:
    """Duck-typed :class:`~repro.runtime.task.Task` stand-in."""

    __slots__ = ("tid", "is_future", "parent", "ief", "name")

    def __init__(self, tid: int, is_future: bool, parent, ief) -> None:
        self.tid = tid
        self.is_future = is_future
        self.parent = parent
        self.ief = ief
        self.name = f"{'future' if is_future else 'task'}#{tid}"


class _ReplayScope:
    """Duck-typed :class:`~repro.runtime.finish.FinishScope` stand-in."""

    __slots__ = ("fid", "owner", "enclosing", "joins")

    def __init__(self, fid: int, owner, enclosing) -> None:
        self.fid = fid
        self.owner = owner
        self.enclosing = enclosing
        self.joins: List[_ReplayTask] = []


def replay_trace(
    trace: Trace | Iterable[Event],
    observers: Sequence[ExecutionObserver],
) -> None:
    """Feed a recorded event stream to ``observers``.

    ``trace`` may be a :class:`~repro.core.events.Trace` or **any**
    iterable of events, including a one-shot generator: the loop below is
    a single streaming pass and nothing is materialized, so replaying a
    lazily-decoded multi-gigabyte trace holds one event at a time
    (regression-tested with ``__len__``-less generator input).

    The replay re-synthesizes the implicit bracket that
    :meth:`Runtime.run` emits: the main task and the root finish at the
    start; root finish end, main's task end, and shutdown at the end.
    Recorded call sites are not replayed: a detector reports races and
    their ``race_rows``, and :func:`repro.obs.provenance.explain_races`
    reads the sites from the trace's columns.
    """
    main = _ReplayTask(0, is_future=False, parent=None, ief=None)
    root = _ReplayScope(0, owner=main, enclosing=None)
    tasks: Dict[int, _ReplayTask] = {0: main}
    scopes: Dict[int, _ReplayScope] = {0: root}

    # Replay is the harness's inner loop (bench_detector_comparison runs
    # millions of events through it), so events dispatch through a
    # type-keyed table — one dict probe per event instead of walking an
    # isinstance chain whose common cases (reads/writes) sat first only by
    # convention.
    def replay_read(event: ReadEvent) -> None:
        task = tasks[event.task]
        for ob in observers:
            ob.on_read(task, event.loc)

    def replay_write(event: WriteEvent) -> None:
        task = tasks[event.task]
        for ob in observers:
            ob.on_write(task, event.loc)

    def replay_task_create(event: TaskCreateEvent) -> None:
        parent = tasks[event.parent]
        ief = scopes[event.ief] if event.ief >= 0 else None
        child = _ReplayTask(event.child, event.is_future, parent, ief)
        tasks[event.child] = child
        if ief is not None:
            ief.joins.append(child)
        for ob in observers:
            ob.on_task_create(parent, child)

    def replay_task_end(event: TaskEndEvent) -> None:
        task = tasks[event.task]
        for ob in observers:
            ob.on_task_end(task)

    def replay_get(event: GetEvent) -> None:
        consumer, producer = tasks[event.consumer], tasks[event.producer]
        for ob in observers:
            ob.on_get(consumer, producer)

    def replay_finish_start(event: FinishStartEvent) -> None:
        owner = tasks[event.owner]
        enclosing: Optional[_ReplayScope] = (
            scopes[event.enclosing] if event.enclosing >= 0 else None
        )
        scope = _ReplayScope(event.fid, owner, enclosing)
        scopes[event.fid] = scope
        for ob in observers:
            ob.on_finish_start(scope)

    def replay_finish_end(event: FinishEndEvent) -> None:
        scope = scopes[event.fid]
        for ob in observers:
            ob.on_finish_end(scope)

    handlers = {
        ReadEvent: replay_read,
        WriteEvent: replay_write,
        TaskCreateEvent: replay_task_create,
        TaskEndEvent: replay_task_end,
        GetEvent: replay_get,
        FinishStartEvent: replay_finish_start,
        FinishEndEvent: replay_finish_end,
    }
    for ob in observers:
        ob.on_init(main)
    for ob in observers:
        ob.on_finish_start(root)

    handlers_get = handlers.get
    for event in trace:
        handler = handlers_get(type(event))
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unknown event {event!r}")
        handler(event)

    for ob in observers:
        ob.on_finish_end(root)
    for ob in observers:
        ob.on_task_end(main)
        ob.on_shutdown(main)
