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
self-contained and replayable in a fresh process.
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
# ``site`` is the optional provenance call-site label (``file:line
# (function)``) recorded when a :class:`repro.obs.provenance.RaceProvenance`
# is attached to the recorder; it defaults to ``None``.  Event objects
# pickled before the field existed lack the attribute entirely, so code
# reading arbitrary event iterables uses ``getattr(event, "site", None)``.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class TaskCreateEvent:
    parent: int          #: tid of the spawning task
    child: int           #: tid of the new task
    is_future: bool      #: TaskKind of the child
    ief: int             #: fid of the child's immediately enclosing finish
    site: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TaskEndEvent:
    task: int


@dataclass(frozen=True, slots=True)
class GetEvent:
    consumer: int
    producer: int
    site: Optional[str] = None


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
# * access events become 3-wide rows ``(is_write, task_idx, loc_id)`` in
#   one ``array('q')``; structure events (rare) stay as small tuples;
# * the stream is run-length segmented into alternating access/structure
#   runs, so a decoder dispatches once per *block* instead of once per
#   event and can time the structure and access phases separately.
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

#: Run kinds in :attr:`EncodedTrace.runs` (flat ``(kind, count)`` pairs).
RUN_ACCESS = 0
RUN_STRUCTURE = 1


class EncodedTrace:
    """The columns of a recorded trace (see above).  Checkers only read it.

    Attributes
    ----------
    access:
        ``array('q')`` of 3-wide rows ``(is_write, task_idx, loc_id)``,
        one row per read/write event, in stream order.
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
    access_sites, structure_sites:
        ``None`` while no access (structure) event carries a provenance
        site, else a list aligned with access-row (structure-tuple)
        ordinals.
    """

    __slots__ = (
        "access", "structure", "runs", "task_keys", "is_future",
        "locs", "loc_index", "access_sites", "structure_sites",
    )

    def __init__(self) -> None:
        self.access = array("q")
        self.structure: List[tuple] = []
        self.runs = array("q")
        self.task_keys: List[int] = [0]
        self.is_future = bytearray(1)
        self.locs: List[LocationKey] = []
        self.loc_index: Dict[LocationKey, int] = {}
        self.access_sites: Optional[List[Optional[str]]] = None
        self.structure_sites: Optional[List[Optional[str]]] = None

    def __len__(self) -> int:
        return len(self.access) // 3 + len(self.structure)

    @property
    def num_access_events(self) -> int:
        return len(self.access) // 3

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


class ColumnBuilder:
    """The one lowering of events into an :class:`EncodedTrace`'s columns.

    One appending function per event kind, tasks named by tid:
    ``read(tid, loc)``, ``write(tid, loc)``, ``task_create(parent, child,
    is_future, ief)``, ``task_end(tid)``, ``get(consumer, producer)``,
    ``finish_start(fid, owner, enclosing)`` and ``finish_end(fid)``.
    ``access_site(label)`` / ``structure_site(label)`` attach a provenance
    site to the row just appended.  ``add(event)`` lowers one event object
    through the same functions; :class:`~repro.memory.tracer.TraceRecorder`
    binds them into its hooks and builds no event object at all.

    Access rows leave the current run-length segment open; the next
    structure event, or ``flush()``, closes it.  ``flush()`` also pads the
    site columns to full length, so the columns read whole after it.
    ``drop()`` deletes what the run segments cover (access rows,
    structure tuples, runs, sites) once a reader has consumed them; the
    rows of a still open access run and the task and location tables
    stay, so a live checker's columns hold O(tasks + locations).

    A task id seen before its creation (possible only in hand-built
    streams) raises ``KeyError``, as replay does, and appends nothing.
    """

    __slots__ = (
        "read", "write", "task_create", "task_end", "get", "finish_start",
        "finish_end", "access_site", "structure_site", "add", "flush",
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
        # Both derive from the columns, so a builder resumes any columns:
        # tid -> dense index (a re-created tid maps to its latest index,
        # as in replay), and the access rows the run segments cover.
        task_index = {key: idx for idx, key in enumerate(task_keys)}
        covered = sum(runs[i + 1] for i in range(0, len(runs), 2)
                      if runs[i] == RUN_ACCESS)

        def access(is_write: int):
            def lower(tid, loc) -> None:
                task = task_index[tid]
                lid = loc_get(loc)
                if lid is None:
                    lid = loc_index[loc] = len(locs)
                    locs.append(loc)
                acc_append(is_write)
                acc_append(task)
                acc_append(lid)
            return lower

        read, write = access(0), access(1)

        def close_access_run() -> None:
            nonlocal covered
            rows = len(acc) // 3
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
            task_index[child] = len(task_keys)
            task_keys.append(child)
            is_future_flags.append(flag)

        def task_end(tid) -> None:
            task = task_index[tid]
            structure_run()
            structure_append((OP_TASK_END, task))

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
                _pad(enc.access_sites, len(acc) // 3 - 1)
                enc.access_sites.append(site)

        def structure_site(site: Optional[str]) -> None:
            if site is not None:
                if enc.structure_sites is None:
                    enc.structure_sites = []
                _pad(enc.structure_sites, len(structure) - 1)
                enc.structure_sites.append(site)

        def flush() -> None:
            close_access_run()
            if enc.access_sites is not None:
                _pad(enc.access_sites, len(acc) // 3)
            if enc.structure_sites is not None:
                _pad(enc.structure_sites, len(structure))

        def drop() -> None:
            nonlocal covered
            del acc[:3 * covered]  # rows of a still open run stay
            del structure[:]
            del runs[:]
            if enc.access_sites is not None:
                del enc.access_sites[:covered]
            if enc.structure_sites is not None:
                del enc.structure_sites[:]
            covered = 0

        # Event objects pickled before ``site`` existed lack the field.
        def add_read(e: ReadEvent) -> None:
            read(e.task, e.loc)
            access_site(getattr(e, "site", None))

        def add_write(e: WriteEvent) -> None:
            write(e.task, e.loc)
            access_site(getattr(e, "site", None))

        def add_task_create(e: TaskCreateEvent) -> None:
            task_create(e.parent, e.child, e.is_future, e.ief)
            structure_site(getattr(e, "site", None))

        def add_get(e: GetEvent) -> None:
            get(e.consumer, e.producer)
            structure_site(getattr(e, "site", None))

        lower = {
            ReadEvent: add_read,
            WriteEvent: add_write,
            TaskCreateEvent: add_task_create,
            TaskEndEvent: lambda e: task_end(e.task),
            GetEvent: add_get,
            FinishStartEvent: lambda e: finish_start(e.fid, e.owner,
                                                     e.enclosing),
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
        self.access_site, self.structure_site = access_site, structure_site
        self.add, self.flush, self.drop = add, flush, drop


def observer_hooks(builder: ColumnBuilder) -> Dict[str, Callable]:
    """The :class:`ExecutionObserver` hooks that lower a running program's
    events through ``builder``, keyed by hook name (``on_read`` ...
    ``on_finish_end``).  An access appends one row, a spawn, get or
    finish boundary one structure tuple; no event object is built.  The
    implicit bracket (main's end, the root finish) is not lowered:
    replay and the checkers re-synthesize it."""
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

    def on_read(task, loc) -> None:
        read(task.tid, loc)

    def on_write(task, loc) -> None:
        write(task.tid, loc)

    return {
        "on_task_create": on_task_create, "on_task_end": on_task_end,
        "on_get": on_get, "on_finish_start": on_finish_start,
        "on_finish_end": on_finish_end, "on_read": on_read,
        "on_write": on_write,
    }


def _decode(enc: EncodedTrace) -> Iterator[Event]:
    """Rebuild, in stream order, the events ``enc`` was lowered from."""
    acc, structure, runs = enc.access, enc.structure, enc.runs
    keys, locs = enc.task_keys, enc.locs
    access_sites, structure_sites = enc.access_sites, enc.structure_sites
    row = 0
    si = 0
    child = 1  # dense index of the next task created
    for ri in range(0, len(runs), 2):
        count = runs[ri + 1]
        if runs[ri] == RUN_ACCESS:
            for k in range(row, row + count):
                j = 3 * k
                yield (WriteEvent if acc[j] else ReadEvent)(
                    keys[acc[j + 1]], locs[acc[j + 2]],
                    access_sites[k] if access_sites is not None else None,
                )
            row += count
            continue
        for k in range(si, si + count):
            s = structure[k]
            op = s[0]
            site = structure_sites[k] if structure_sites is not None else None
            if op == OP_TASK_CREATE:
                yield TaskCreateEvent(keys[s[1]], keys[child], bool(s[2]),
                                      s[3], site)
                child += 1
            elif op == OP_TASK_END:
                yield TaskEndEvent(keys[s[1]])
            elif op == OP_GET:
                yield GetEvent(keys[s[1]], keys[s[2]], site)
            elif op == OP_FINISH_START:
                yield FinishStartEvent(s[1], keys[s[2]], s[3])
            else:
                yield FinishEndEvent(s[1])
        si += count


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
    the event streams, and they pickle cleanly (as their columns).
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

    # ------------------------------------------------------------------ #
    # Persistence: traces are self-contained (ids + location keys only),
    # so a pickled trace recorded once can be replayed into any detector
    # in a fresh process — how the benchmark suites share inputs.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> EncodedTrace:
        return self._whole_columns()

    def __setstate__(self, state) -> None:
        if isinstance(state, dict):  # pickled as an event list
            self.__init__(state["events"])
            return
        self._columns = state
        self.builder = ColumnBuilder(state)

    def save(self, path) -> None:
        """Pickle the trace to ``path``."""
        import pickle

        with open(path, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def load(path) -> "Trace":
        """Load a trace previously written by :meth:`save`.

        Only unpickle traces you created yourself — pickle executes code.
        """
        import pickle

        with open(path, "rb") as fh:
            trace = pickle.load(fh)
        if not isinstance(trace, Trace):
            raise TypeError(f"{path} does not contain a Trace")
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
