"""Execution events, the observer interface, and recorded traces.

The paper instruments a running Habanero-Java program so the detector is
invoked "at async, finish and future boundaries, future get operations, and
also on reads and writes to shared memory locations" (Section 5).  We model
that instrumentation as an *event stream*: the serial depth-first runtime
emits one event per boundary, and any number of :class:`ExecutionObserver`
instances consume it.

Observers shipped with this library:

* :class:`repro.core.detector.DeterminacyRaceDetector` — the paper's
  Algorithms 1-10,
* the baselines in :mod:`repro.baselines` (SP-bags, ESP-bags, vector clocks,
  brute force),
* :class:`repro.graph.computation_graph.GraphBuilder` — builds the Section 3
  computation graph (the testing oracle's substrate),
* :class:`repro.harness.metrics.MetricsCollector` — the Table 2 counters,
* :class:`repro.memory.tracer.TraceRecorder` — records the stream into a
  :class:`Trace` that can later be replayed into any observer, which is how
  the detector micro-benchmarks time detection without re-running workloads.

A :class:`Trace` is stored only as flat columns (:class:`EncodedTrace`):
the recorder's hooks lower each event straight into them through a
:class:`ColumnBuilder`, the same builder that lowers event objects
appended by hand, so the offline checkers read a recorded trace with no
encode pass.  The event dataclasses are the decoded view, rebuilt from the
columns when a trace is iterated.

Event identity uses task ids and location keys only, so a recorded trace is
self-contained: :meth:`Trace.save` writes its columns to a trace file
(:mod:`repro.core.tracefile`), which any process can load and replay.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Hashable, Iterable, Iterator, List,
    Optional, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.finish import FinishScope
    from repro.runtime.task import Task

__all__ = [
    "ExecutionObserver",
    "TaskCreateEvent",
    "TaskEndEvent",
    "GetEvent",
    "FinishStartEvent",
    "FinishEndEvent",
    "ReadEvent",
    "WriteEvent",
    "Event",
    "Trace",
    "EncodedTrace",
    "ColumnBuilder",
    "TraceFormatError",
    "observer_hooks",
    "encode_trace",
]

#: Type of a shared-memory location key: any hashable value.  The shared
#: wrappers use ``(object_name, index)`` tuples.
LocationKey = Hashable


class ExecutionObserver:
    """Base class for consumers of the instrumentation event stream.

    All hooks default to no-ops so observers override only what they need.
    Hook order for one program run (serial depth-first):

    1. ``on_init(main)`` once, before user code runs.
    2. ``on_task_create(parent, child)`` at each ``async``/``future`` spawn,
       *before* the child's body runs.
    3. child body events (recursively), then ``on_task_end(child)``.
    4. ``on_get(consumer, producer)`` at each ``get()``.
    5. ``on_finish_start(scope)`` / ``on_finish_end(scope)`` around scopes;
       ``on_finish_end`` fires after every task registered to the scope has
       ended.
    6. ``on_read(task, loc)`` / ``on_write(task, loc)`` at shared accesses.
    7. ``on_shutdown(main)`` once, after the implicit root finish closes.

    A child whose body raises still ends (``on_task_end``) before the
    exception reaches its parent, and a finish whose body raises still
    ends (``on_finish_end``) before the exception leaves it, so the
    stream stays in the order above when a program catches the error.
    A spawn or finish that an observer refuses by raising ends at once
    for the observers before it, and the refused child never runs.
    """

    def on_init(self, main: "Task") -> None: ...

    def on_task_create(self, parent: "Task", child: "Task") -> None: ...

    def on_task_end(self, task: "Task") -> None: ...

    def on_get(self, consumer: "Task", producer: "Task") -> None: ...

    def on_finish_start(self, scope: "FinishScope") -> None: ...

    def on_finish_end(self, scope: "FinishScope") -> None: ...

    def on_read(self, task: "Task", loc: LocationKey) -> None: ...

    def on_write(self, task: "Task", loc: LocationKey) -> None: ...

    def on_shutdown(self, main: "Task") -> None: ...


# ---------------------------------------------------------------------- #
# Event dataclasses: the decoded view of a trace                         #
#
# A recorded :class:`Trace` stores columns (below); these objects are
# what iterating it yields, and what hand-built streams are made of.
# An access's ``site`` is the optional provenance call-site label
# (``file:line (function)``) recorded when a
# :class:`repro.obs.provenance.RaceProvenance` is attached to the
# recorder; it defaults to ``None``.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class TaskCreateEvent:
    parent: int          #: tid of the spawning task
    child: int           #: tid of the new task
    is_future: bool      #: TaskKind of the child
    ief: int             #: fid of the child's immediately enclosing finish


@dataclass(frozen=True, slots=True)
class TaskEndEvent:
    task: int


@dataclass(frozen=True, slots=True)
class GetEvent:
    consumer: int
    producer: int


@dataclass(frozen=True, slots=True)
class FinishStartEvent:
    fid: int
    owner: int
    enclosing: int  #: fid of the enclosing scope; -1 for the root finish


@dataclass(frozen=True, slots=True)
class FinishEndEvent:
    fid: int


@dataclass(frozen=True, slots=True)
class ReadEvent:
    task: int
    loc: LocationKey
    site: Optional[str] = None


@dataclass(frozen=True, slots=True)
class WriteEvent:
    task: int
    loc: LocationKey
    site: Optional[str] = None


Event = Union[
    TaskCreateEvent,
    TaskEndEvent,
    GetEvent,
    FinishStartEvent,
    FinishEndEvent,
    ReadEvent,
    WriteEvent,
]


# ---------------------------------------------------------------------- #
# Columns: the one stored form of a recorded trace                       #
#
# A trace is kept as integer columns, lowered as the events arrive (by
# the recorder's hooks while the program runs, or from event objects by
# ``Trace.append``), so the fast checker (:mod:`repro.core.fastcheck`)
# and the sharded checker read it without touching a Python object per
# event:
#
# * task ids are renumbered to *dense indices* in creation order (main
#   task = index 0, each task creation appends the next index) — the
#   same order in which an :class:`~repro.core.array_dtrg.ArrayDTRG`
#   allocates slots, so access rows can be consumed with zero lookups;
# * location keys are interned to dense ids (``locs[loc_id]`` recovers
#   the original key for race reports);
# * an access event becomes one int ``loc_id << 1 | is_write`` in an
#   ``array('Q')``; it names no task, because the task is the *running
#   task* the structure stream implies (main at the bottom of a stack, a
#   create pushes the child, an end pops), and every access of a block is
#   made by the task on top;
# * structure events (rare) stay as small tuples;
# * the stream is run-length segmented into alternating access/structure
#   runs, so a decoder dispatches once per *block* instead of once per
#   event and can time the structure and access phases separately.
#
# The format rests on the serial depth-first discipline: a create's
# parent, an end's task, a get's consumer and a finish's owner are the
# running task, and a get's producer has ended.  A stream or column set
# that breaks it raises :class:`TraceFormatError`.
#
# The event dataclasses above are the decoded view: iterating a
# :class:`Trace` rebuilds them from the columns on demand.
# ---------------------------------------------------------------------- #

#: Structure-event opcodes used in :attr:`EncodedTrace.structure` tuples.
OP_TASK_CREATE = 2
OP_TASK_END = 3
OP_GET = 4
OP_FINISH_START = 5
OP_FINISH_END = 6

#: The width of a well-formed structure tuple, by opcode (every field is
#: an int).
OP_WIDTHS = {OP_GET: 3, OP_TASK_CREATE: 4, OP_TASK_END: 2, OP_FINISH_START: 4,
             OP_FINISH_END: 2}

#: Run kinds in :attr:`EncodedTrace.runs` (flat ``(kind, count)`` pairs).
RUN_ACCESS = 0
RUN_STRUCTURE = 1


class TraceFormatError(ValueError):
    """A trace breaks the column format or the running-task discipline.

    ``row`` is the ordinal of the offending event in the stream (the
    number of events before it, as iterating the trace counts them; for
    a run-length fault, the ordinal at which the columns stop matching),
    ``reason`` says what is wrong.  A fault in a trace file's bytes puts
    the byte offset in ``row`` and reads ``byte N: reason``.
    """

    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason

    def __reduce__(self):
        return (TraceFormatError, (self.row, self.reason))


class EncodedTrace:
    """The columns of a recorded trace (see above).  Checkers only read it.

    Attributes
    ----------
    access:
        ``array('Q')`` with one int ``loc_id << 1 | is_write`` per
        read/write event, in stream order.  The row's task is the running
        task of its access run: the top of the stack the structure tuples
        before it imply (main at the bottom, each create pushes the
        child's index, each end pops).
    structure:
        list of tuples, one per structure event, in stream order:
        ``(OP_TASK_CREATE, parent_idx, is_future, ief)`` (the child index
        is implicit — indices are assigned in creation order),
        ``(OP_TASK_END, task_idx)``, ``(OP_GET, consumer_idx,
        producer_idx)``, ``(OP_FINISH_START, fid, owner_idx, enclosing)``,
        ``(OP_FINISH_END, fid)``.
    runs:
        ``array('q')`` of flat ``(kind, count)`` pairs segmenting the
        stream into maximal same-kind runs (``RUN_ACCESS`` counts access
        rows, ``RUN_STRUCTURE`` counts structure tuples).
    task_keys:
        dense task index -> original tid (``task_keys[0]`` is the main
        task's tid, 0 by replay convention).
    is_future:
        ``bytearray`` flag per dense task index (main task -> 0).
    locs:
        dense loc id -> original location key (``loc_index`` inverts it).
    access_sites:
        ``None`` while no access event carries a provenance site, else a
        list aligned with access-row ordinals.
    """

    __slots__ = (
        "access", "structure", "runs", "task_keys", "is_future",
        "locs", "loc_index", "access_sites",
    )

    def __init__(self) -> None:
        self.access = array("Q")
        self.structure: List[tuple] = []
        self.runs = array("q")
        self.task_keys: List[int] = [0]
        self.is_future = bytearray(1)
        self.locs: List[LocationKey] = []
        self.loc_index: Dict[LocationKey, int] = {}
        self.access_sites: Optional[List[Optional[str]]] = None

    def __len__(self) -> int:
        return len(self.access) + len(self.structure)

    @property
    def num_access_events(self) -> int:
        return len(self.access)

    @property
    def num_structure_events(self) -> int:
        return len(self.structure)

    @property
    def num_tasks(self) -> int:
        return len(self.task_keys)

    @property
    def num_locations(self) -> int:
        return len(self.locs)


def _pad(sites: List[Optional[str]], n: int) -> None:
    sites.extend([None] * (n - len(sites)))


def _access_runs(enc: EncodedTrace, running: List[int]):
    """Yield ``(row, count, task, si)`` for each access run of whole
    columns: its first row, its length, its running task's index and the
    number of structure tuples before it; then ``(rows, 0, task, si)``
    once more after the last run, so a reader that applies
    ``structure[previous si:si]`` before each run applies every tuple.

    This is the one reader-side walk of the running-task rule (the kernel
    keeps its own inline copy): ``running`` is the running-task stack
    (main at the bottom), which each create pushes and each end pops in
    place; an end that does not end the running task raises
    :class:`TraceFormatError`."""
    row = si = 0
    child = len(running)
    runs, structure = enc.runs, enc.structure
    for ri in range(0, len(runs) - 1, 2):
        count = runs[ri + 1]
        if runs[ri] == RUN_ACCESS:
            yield row, count, running[-1], si
            row += count
            continue
        for k, t in enumerate(structure[si:si + count], si):
            if t[0] == OP_TASK_CREATE:
                running.append(child)
                child += 1
            elif t[0] == OP_TASK_END:
                if len(running) == 1 or t[1] != running[-1]:
                    raise TraceFormatError(
                        row + k, f"task index {t[1]} ends, but task index "
                                 f"{running[-1]} runs")
                running.pop()
        si += count
    yield row, 0, running[-1], si


class ColumnBuilder:
    """The one lowering of events into an :class:`EncodedTrace`'s columns.

    One appending function per event kind, tasks named by tid:
    ``read(tid, loc)``, ``write(tid, loc)``, ``task_create(parent, child,
    is_future, ief)``, ``task_end(tid)``, ``get(consumer, producer)``,
    ``finish_start(fid, owner, enclosing)`` and ``finish_end(fid)``.
    ``access_site(label)`` attaches a provenance site to the access row
    just appended.  ``add(event)`` lowers one event object
    through the same functions; :class:`~repro.memory.tracer.TraceRecorder`
    binds them into its hooks and builds no event object at all.

    ``read`` and ``write`` take the observer hooks' ``(task, loc)``
    signature, so they bind as ``on_read``/``on_write`` directly, and
    ignore the task: the row's task is the running task, which the
    builder tracks from the structure events.  The appending functions
    check nothing more: the runtime keeps the hooks' stream in the
    running-task discipline, and the kernel and the decoder check the
    columns they read.  ``add`` checks a hand-built event first: one
    whose access task, create parent, ending task, get consumer or
    finish owner is not the running task raises :class:`TraceFormatError`
    and appends nothing.

    Access rows leave the current run-length segment open; the next
    structure event, or ``flush()``, closes it.  ``flush()`` also pads the
    site column to full length, so the columns read whole after it.
    ``drop()`` deletes what the run segments cover (access rows,
    structure tuples, runs, sites) once a reader has consumed them; the
    rows of a still open access run and the task and location tables
    stay, so a live checker's columns hold O(tasks + locations).

    A task id seen before its creation (possible only in hand-built
    streams) raises ``KeyError``, as replay does, and appends nothing.
    """

    __slots__ = (
        "read", "write", "task_create", "task_end", "get", "finish_start",
        "finish_end", "access_site", "add", "flush",
        "drop",
    )

    def __init__(self, enc: EncodedTrace) -> None:
        acc = enc.access
        acc_append = acc.append
        structure = enc.structure
        structure_append = structure.append
        runs = enc.runs
        task_keys = enc.task_keys
        is_future_flags = enc.is_future
        locs = enc.locs
        loc_index = enc.loc_index
        loc_get = loc_index.get
        # All three derive from the columns, so a builder resumes any
        # whole columns: tid -> dense index (a re-created tid maps to its
        # latest index, as in replay), the access rows the run segments
        # cover, and the running-task stack.
        task_index = {key: idx for idx, key in enumerate(task_keys)}
        covered = sum(runs[i + 1] for i in range(0, len(runs), 2)
                      if runs[i] == RUN_ACCESS)
        running = [0]  # walked to its state after the columns
        for _run in _access_runs(enc, running):
            pass
        dropped = 0  # events ``drop()`` deleted, for error rows

        def access(bit: int):
            def lower(task, loc) -> None:
                lid = loc_get(loc)
                if lid is None:
                    lid = loc_index[loc] = len(locs)
                    locs.append(loc)
                acc_append(lid << 1 | bit)
            return lower

        read, write = access(0), access(1)

        def on_task(tid, what: str, *args) -> None:
            # ``what.format(*args)`` names the role ``tid`` plays.
            if task_index[tid] != running[-1]:
                raise TraceFormatError(
                    dropped + len(acc) + len(structure),
                    f"{what.format(*args)} is task {tid}, but task "
                    f"{task_keys[running[-1]]} runs")

        def close_access_run() -> None:
            nonlocal covered
            rows = len(acc)
            if rows != covered:
                if runs and runs[-2] == RUN_ACCESS:
                    runs[-1] += rows - covered
                else:
                    runs.append(RUN_ACCESS)
                    runs.append(rows - covered)
                covered = rows

        def structure_run() -> None:
            close_access_run()
            if runs and runs[-2] == RUN_STRUCTURE:
                runs[-1] += 1
            else:
                runs.append(RUN_STRUCTURE)
                runs.append(1)

        def task_create(parent, child, is_future, ief) -> None:
            parent_idx = task_index[parent]
            flag = 1 if is_future else 0
            structure_run()
            structure_append((OP_TASK_CREATE, parent_idx, flag, ief))
            idx = task_index[child] = len(task_keys)
            task_keys.append(child)
            is_future_flags.append(flag)
            running.append(idx)

        def task_end(tid) -> None:
            task = task_index[tid]
            structure_run()
            structure_append((OP_TASK_END, task))
            if len(running) > 1:  # main stays at the bottom
                running.pop()

        def get(consumer, producer) -> None:
            pair = (OP_GET, task_index[consumer], task_index[producer])
            structure_run()
            structure_append(pair)

        def finish_start(fid, owner, enclosing) -> None:
            owner_idx = task_index[owner]
            structure_run()
            structure_append((OP_FINISH_START, fid, owner_idx, enclosing))

        def finish_end(fid) -> None:
            structure_run()
            structure_append((OP_FINISH_END, fid))

        def access_site(site: Optional[str]) -> None:
            if site is not None:
                if enc.access_sites is None:
                    enc.access_sites = []
                _pad(enc.access_sites, len(acc) - 1)
                enc.access_sites.append(site)

        def flush() -> None:
            close_access_run()
            if enc.access_sites is not None:
                _pad(enc.access_sites, len(acc))

        def drop() -> None:
            nonlocal covered, dropped
            dropped += covered + len(structure)
            del acc[:covered]  # rows of a still open run stay
            del structure[:]
            del runs[:]
            if enc.access_sites is not None:
                del enc.access_sites[:covered]
            covered = 0

        def add_read(e: ReadEvent) -> None:
            on_task(e.task, "the reader of {!r}", e.loc)
            read(e.task, e.loc)
            access_site(e.site)

        def add_write(e: WriteEvent) -> None:
            on_task(e.task, "the writer of {!r}", e.loc)
            write(e.task, e.loc)
            access_site(e.site)

        def add_task_create(e: TaskCreateEvent) -> None:
            on_task(e.parent, "the parent of task {}", e.child)
            task_create(e.parent, e.child, e.is_future, e.ief)

        def add_task_end(e: TaskEndEvent) -> None:
            on_task(e.task, "the ending task")
            if len(running) == 1:
                raise TraceFormatError(dropped + len(acc) + len(structure),
                                       "the main task's end is implicit")
            task_end(e.task)

        def add_get(e: GetEvent) -> None:
            on_task(e.consumer, "the consumer of task {}", e.producer)
            get(e.consumer, e.producer)

        def add_finish_start(e: FinishStartEvent) -> None:
            on_task(e.owner, "the owner of finish {}", e.fid)
            finish_start(e.fid, e.owner, e.enclosing)

        lower = {
            ReadEvent: add_read,
            WriteEvent: add_write,
            TaskCreateEvent: add_task_create,
            TaskEndEvent: add_task_end,
            GetEvent: add_get,
            FinishStartEvent: add_finish_start,
            FinishEndEvent: lambda e: finish_end(e.fid),
        }

        def add(event: Event) -> None:
            fn = lower.get(type(event))
            if fn is None:
                raise TypeError(f"unknown event type: {event!r}")
            fn(event)

        self.read, self.write = read, write
        self.task_create, self.task_end, self.get = task_create, task_end, get
        self.finish_start, self.finish_end = finish_start, finish_end
        self.access_site = access_site
        self.add, self.flush, self.drop = add, flush, drop


def observer_hooks(builder: ColumnBuilder) -> Dict[str, Callable]:
    """The :class:`ExecutionObserver` hooks that lower a running program's
    events through ``builder``, keyed by hook name (``on_read`` ...
    ``on_finish_end``).  An access appends one row, a spawn, get or
    finish boundary one structure tuple; no event object is built.  The
    access hooks are the builder's own ``read``/``write``, with no
    wrapper frame.  The implicit bracket (main's end, the root finish) is
    not lowered: replay and the checkers re-synthesize it."""
    read, write = builder.read, builder.write
    task_create, task_end, get = (
        builder.task_create, builder.task_end, builder.get)
    finish_start, finish_end = builder.finish_start, builder.finish_end

    def on_task_create(parent, child) -> None:
        ief = child.ief
        task_create(parent.tid, child.tid, child.is_future,
                    ief.fid if ief is not None else -1)

    def on_task_end(task) -> None:
        if task.parent is not None:  # main's end is the implicit bracket
            task_end(task.tid)

    def on_get(consumer, producer) -> None:
        get(consumer.tid, producer.tid)

    def on_finish_start(scope) -> None:
        enclosing = scope.enclosing
        if enclosing is not None:  # None: the implicit root finish
            finish_start(scope.fid, scope.owner.tid, enclosing.fid)

    def on_finish_end(scope) -> None:
        if scope.enclosing is not None:
            finish_end(scope.fid)

    return {
        "on_task_create": on_task_create, "on_task_end": on_task_end,
        "on_get": on_get, "on_finish_start": on_finish_start,
        "on_finish_end": on_finish_end, "on_read": read,
        "on_write": write,
    }


def _decode(enc: EncodedTrace) -> Iterator[Event]:
    """Rebuild, in stream order, the events ``enc`` was lowered from.

    Each access row's task is the running task of its run, as
    :func:`_access_runs` walks it (an end that does not end the running
    task raises :class:`TraceFormatError`)."""
    acc, structure = enc.access, enc.structure
    keys, locs = enc.task_keys, enc.locs
    access_sites = enc.access_sites
    child = 1  # dense index of the next task created
    done = 0  # structure tuples decoded
    for row, count, task_idx, si in _access_runs(enc, [0]):
        for k in range(done, si):
            s = structure[k]
            op = s[0]
            if op == OP_TASK_CREATE:
                yield TaskCreateEvent(keys[s[1]], keys[child], bool(s[2]),
                                      s[3])
                child += 1
            elif op == OP_TASK_END:
                yield TaskEndEvent(keys[s[1]])
            elif op == OP_GET:
                yield GetEvent(keys[s[1]], keys[s[2]])
            elif op == OP_FINISH_START:
                yield FinishStartEvent(s[1], keys[s[2]], s[3])
            else:
                yield FinishEndEvent(s[1])
        done = si
        task = keys[task_idx]
        for k in range(row, row + count):
            code = acc[k]
            yield (WriteEvent if code & 1 else ReadEvent)(
                task, locs[code >> 1],
                access_sites[k] if access_sites is not None else None,
            )


class Trace:
    """A fully recorded instrumentation stream, stored as its columns.

    ``Trace()``, ``Trace(events=[...])`` and :meth:`append` lower event
    objects through the trace's :attr:`builder`;
    :class:`~repro.memory.tracer.TraceRecorder` appends through the same
    builder without building event objects.  ``len()`` is O(1) and
    :func:`encode_trace` returns the columns themselves.  Iteration,
    :attr:`events` and equality decode event objects on demand, and
    decoding is lossless: it yields the events that were lowered.

    The stream excludes the implicit init/shutdown bracket; replay
    re-synthesizes those.  Traces are value objects: equality compares
    the event streams.  :meth:`save` and :meth:`load` keep one in a trace
    file (:mod:`repro.core.tracefile`).
    """

    __slots__ = ("_columns", "builder")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._columns = EncodedTrace()
        self.builder = ColumnBuilder(self._columns)
        add = self.builder.add
        for event in events:
            add(event)

    def append(self, event: Event) -> None:
        self.builder.add(event)

    def _whole_columns(self) -> EncodedTrace:
        """The trace's own columns, whole (not a copy)."""
        self.builder.flush()
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Event]:
        return _decode(self._whole_columns())

    @property
    def events(self) -> List[Event]:
        return list(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace(events={self.events!r})"

    def counts(self) -> Tuple[int, int, int]:
        """Return ``(num_tasks_created, num_gets, num_accesses)`` — a quick
        sanity fingerprint used by tests."""
        enc = self._columns
        gets = sum(1 for s in enc.structure if s[0] == OP_GET)
        return enc.num_tasks - 1, gets, enc.num_access_events

    def save(self, file) -> None:
        """Write the trace to ``file``, a path or a binary file object."""
        from repro.core.tracefile import write_columns

        write_columns(self._whole_columns(), file)

    @staticmethod
    def load(file) -> "Trace":
        """Read a trace that :meth:`save` wrote from ``file``, a path or a
        binary file object.  Loading runs no code; a file that is not a
        whole trace file, a pickle included, raises
        :class:`TraceFormatError` at its byte offset."""
        from repro.core.tracefile import read_columns

        trace = Trace.__new__(Trace)
        trace._columns = read_columns(file)
        trace.builder = ColumnBuilder(trace._columns)
        return trace


def encode_trace(events: Iterable[Event]) -> EncodedTrace:
    """The columns of ``events``: a :class:`Trace`'s own columns (O(1), no
    second pass), or any other event iterable lowered through a new
    trace's builder.

    Unknown task ids referenced before their ``TaskCreateEvent`` (possible
    only in hand-built traces) raise ``KeyError``, matching replay.
    """
    trace = events if isinstance(events, Trace) else Trace(events)
    return trace._whole_columns()
