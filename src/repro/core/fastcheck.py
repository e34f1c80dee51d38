"""The one Algorithm 8/9 checking kernel, over encoded trace columns.

``_kernel`` is one streaming pass over an
:class:`~repro.core.events.EncodedTrace` in which *structure* events
mutate a live :class:`~repro.core.array_dtrg.ArrayDTRG` in place and
*access* events run Algorithms 8-9 over compact integer-indexed shadow
state — no per-event Python objects, no replay stand-ins, no epoch
journal (the graph itself is always at the current epoch).  It is a
generator, so it can run offline or online:

* :func:`check_trace_fast` drives it over a whole recorded trace in one
  resume (``racecheck --fast``);
* the sharded checker (:mod:`repro.core.parallel_check`) runs
  ``check_trace_fast`` once per shard, over columns that hold only that
  shard's access rows;
* every :class:`~repro.core.detector.DeterminacyRaceDetector`
  lowers a live run into columns and resumes the kernel at structure
  events that close an access block (at each one under ``RAISE`` or an
  enabled ``obs``, in batches otherwise); each block is checked with
  the graph at the epoch of the event that closes it.

The shadow state is the paper's per-location shadow cell (Section 4.2)
in structure-of-arrays form, indexed by interned location id:

* ``writers[loc]`` — last writing task index (``-1`` none),
* ``readers[loc]`` — stored parallel-reader index list (``None`` until
  first read; at most one plain-async member plus every future-covered
  member, exactly the Lemma 4 policy),
* ``fast_reader[loc]`` / ``fast_epoch[loc]`` — the epoch-memoized
  same-task read fast path.

The Algorithm 8/9 fast paths exist only here (docs/ALGORITHM.md §3):
structural no-ops, the epoch-memoized same-task read and the batched
writer verdict skip ``PRECEDE`` calls whose answers are forced, counted
in ``shadow_fast_hits`` and ``precede_calls_saved``.  A ``PRECEDE`` the
kernel does ask is asked of the graph at most once per access block and
other task: an access block lies between two structure events, so its
graph epoch and its running task are fixed, and a block-scoped verdict
memo answers the repeats.  Its hits count as queries, as the graph's own
epoch memo hits do (docs/ALGORITHM.md §7).

An access row is one int ``loc_id << 1 | is_write``; the kernel takes
its task from the structure stream (the running task), and checks the
stream's discipline as it goes: per structure event and per block, never
per row.  A trace that breaks it raises
:class:`~repro.core.events.TraceFormatError` (docs/ALGORITHM.md §13).

Equivalence contract (pinned by ``tests/properties/test_engine_golden.py``
against values first taken from the plain Algorithms 8/9 over the object
DTRG this kernel replaced, and by ``test_array_equivalence.py`` across
the kernel's live, replayed, fast and sharded paths): race list,
detection order, ``race_rows``, ``#AvgReaders``, ``mutation_epoch`` and
the graph's ``num_visits`` are those of the plain Algorithms 8/9, and
the plain algorithms' query count equals this kernel's
``precede_queries + precede_calls_saved``: every skipped call repeats a
query made earlier in the same mutation epoch, which is answered at
level 0 or from the verdict memo and costs no VISIT.  (Block-memo hits
are inside ``precede_queries``.)  ``cache_*``
report 0.

The reachability engine is any :class:`~repro.core.backend.
PrecedeBackend`: the kernel drives only its index layer and counts
tasks itself.

The run-length segments of the columns do double duty: dispatch is
amortized over whole blocks (the access inner loop never tests event
*types*), and the per-phase wall-clock split the bench surfaces
(``structure_seconds`` vs ``access_seconds``) falls out of timestamping
block boundaries instead of single events.

Races leave the kernel without call sites: ``race_rows`` records each
race's access-row ordinal, and :func:`repro.obs.provenance.explain_races`
attaches sites and witnesses afterwards, by one pass over the columns.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.array_dtrg import ArrayDTRG
from repro.core.backend import PrecedeBackend
from repro.core.events import (
    OP_FINISH_END,
    OP_FINISH_START,
    OP_GET,
    OP_TASK_CREATE,
    OP_TASK_END,
    OP_WIDTHS,
    RUN_ACCESS,
    RUN_STRUCTURE,
    EncodedTrace,
    Event,
    TraceFormatError,
    encode_trace,
)
from repro.core.races import Race, RaceReport

__all__ = ["CheckResult", "check_trace_fast"]

class CheckResult:
    """Outcome of a trace check, fast (:func:`check_trace_fast`) or sharded
    (:func:`repro.core.parallel_check.check_trace_parallel`), duck-typed
    like the sequential detector where the harness/CLI consume it
    (``report``, ``races``, ``racy_locations``, ``perf_stats``,
    ``avg_readers``, ``summary()``).  The live detector
    keeps one too.

    ``dtrg`` is the reachability engine of a fast check or a live
    detector (``None`` for a sharded check, whose graphs stay in the
    workers); ``race_rows[i]`` is the
    access-row ordinal of the access that reported ``races[i]``.  The
    sharded path fills ``jobs``, ``backend``, ``shards`` and
    ``movable_rows``.
    """

    def __init__(self, dedupe: bool = True) -> None:
        self.report = RaceReport(dedupe=dedupe)
        self.race_rows: List[int] = []
        self.dtrg: Optional[PrecedeBackend] = None
        self.jobs = 1
        self.backend = "inline"
        #: Per-shard ``{"shard", "events", "races", "seconds"}`` rows.
        self.shards: List[dict] = []
        #: Access rows a split takes off the heaviest shard.
        self.movable_rows = 0
        self.num_tasks = 0
        self.num_events = 0
        self.num_access_events = 0
        self.num_structure_events = 0
        self.num_locations = 0
        self.num_visits = 0
        self.num_non_tree_edges = 0
        self.num_tree_merges = 0
        self.mutation_epoch = 0
        self.num_precede_queries = 0
        self.shadow_fast_hits = 0
        self.precede_calls_saved = 0
        self.num_accesses = 0
        self.total_readers_seen = 0
        #: Fast check: ``encode_seconds`` (trace lowering, 0.0 when given
        #: an already encoded trace), ``structure_seconds`` (DTRG mutation
        #: blocks), ``access_seconds`` (shadow check blocks),
        #: ``total_seconds``.  Sharded check: see ``check_trace_parallel``.
        self.timings: Dict[str, float] = {}

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    @property
    def avg_readers(self) -> float:
        if not self.num_accesses:
            return 0.0
        return self.total_readers_seen / self.num_accesses

    @property
    def events_per_second(self) -> float:
        total = self.timings.get("total_seconds", 0.0)
        return self.num_events / total if total > 0 else 0.0

    @property
    def access_events_per_second(self) -> float:
        """Throughput of the access-check phase alone."""
        secs = self.timings.get("access_seconds", 0.0)
        return self.num_access_events / secs if secs > 0 else 0.0

    @property
    def perf_stats(self) -> dict:
        """Same keys as ``DeterminacyRaceDetector.perf_stats``; the
        ``cache_*`` columns are 0 (no engine keeps a public cache)."""
        return {
            "precede_queries": self.num_precede_queries,
            "mutation_epoch": self.mutation_epoch,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
            "cache_hit_rate": 0.0,
            "shadow_fast_hits": self.shadow_fast_hits,
            "precede_calls_saved": self.precede_calls_saved,
        }

    def summary(self) -> str:
        return self.report.summary()


def _well_formed(t) -> bool:
    return (type(t) is tuple and all(type(v) is int for v in t)
            and len(t) == OP_WIDTHS.get(t[0] if t else None))


def _kernel(
    enc: EncodedTrace,
    dtrg: PrecedeBackend,
    names_list: List[str],
    result: CheckResult,
    *,
    on_race: Optional[Callable[[Race], None]] = None,
    on_access: Optional[Callable[[int, int, int, int], None]] = None,
    drop: Optional[Callable[[], None]] = None,
    progress=None,
):
    """Algorithms 8-9 over ``enc``'s runs, as a resumable generator.

    Each resume consumes every run of the columns not consumed yet, then
    yields.  ``send(True)`` consumes what is left, closes the implicit
    bracket (root finish end, then main's end, as ``replay_trace`` does)
    and returns.  The hot loop's locals live in the generator frame, so
    they survive between resumes.  Each resume brings ``result``'s
    ``num_accesses`` and ``num_locations`` up to date (the live sampler
    reads them); the other counters are written when the kernel returns.

    The structure branch tracks the running task (a create pushes the
    child, an end pops), and every row of an access block is that task's.
    It validates the stream per structure event and per block, never per
    row, and raises :class:`~repro.core.events.TraceFormatError` at the
    first fault (docs/ALGORITHM.md §13).  Within a block the graph's
    epoch and the running task are fixed, so each ``PRECEDE(x, task)``
    verdict is memoized for the block by ``x``; memo hits are added to
    the graph's ``num_precede_queries`` before each yield (in a live run,
    at each block's end), as its own epoch memo counts its hits
    (docs/ALGORITHM.md §7).

    ``names_list[i]`` is the display name of task index ``i``; it must be
    filled before the run that creates the task is consumed.  ``on_race``
    is called with each race the report accepts; if it raises, the kernel
    ends.  ``on_access(is_write, task, lid, readers)``, when given, is
    called for each checked access row before its check, with the stored
    reader population the check sees (the observability hook).
    ``drop``, when given, is called after each resume's runs are
    consumed and must delete exactly what the run segments cover
    (:meth:`~repro.core.events.ColumnBuilder.drop`); race row ordinals
    keep counting across drops.  ``progress`` is bumped once per block.
    """
    task_keys = enc.task_keys
    dtrg.add_root_idx(task_keys[0])
    n_tasks = 1
    add_task_idx = dtrg.add_task_idx
    on_terminate_idx = dtrg.on_terminate_idx
    record_join_idx = dtrg.record_join_idx
    merge_idx = dtrg.merge_idx
    precede = dtrg.precede_idx

    # Per task index, ``n_slots`` long: the task table's length when the
    # kernel starts, doubled when a create finds it full, so a create
    # mostly just writes ``covered``.
    n_slots = len(task_keys)
    #: Future-covered flag (future or spawn-descendant of one) — the
    #: strengthened ``IsFuture`` the reader policy needs.
    covered = bytearray(n_slots)
    #: Ended flag (a get's producer must have ended).
    ended = bytearray(n_slots)
    #: The running task, and the stack of tasks it interrupted: a create
    #: pushes the running task and runs the child, an end pops.
    cur = 0
    running: List[int] = []
    #: Open finish scopes, innermost last: fid -> [owner_idx,
    #: join_idx_list, enclosing fid] (root finish 0 owned by main).
    scopes: Dict[int, list] = {0: [0, [], -1]}
    inner = 0  # the innermost open scope's fid

    record = result.report.record
    race_rows = result.race_rows
    locs = enc.locs
    base = 0  # access rows dropped before the current columns

    def _report(kind: str, prev: int, task: int, lid: int, row: int) -> None:
        # Rare path: the report builds a Race only if it accepts it.
        race = record(locs[lid], kind, task_keys[prev], task_keys[task],
                      names_list[prev], names_list[task])
        if race is not None:
            race_rows.append(base + row)
            if on_race is not None:
                on_race(race)

    # Hot locals.
    acc = enc.access
    structure = enc.structure
    runs = enc.runs
    total_readers = 0
    fast_read = 0
    fast_write = 0
    saved = 0
    cur_epoch = 0  # mirrors dtrg.mutation_epoch between structure blocks
    structure_seconds = 0.0
    access_seconds = 0.0
    #: The block verdict memo, keyed by task index: ``verdict[x]`` is
    #: ``PRECEDE(x, running task)`` if ``asked[x]`` is the current block's
    #: number ``block_no``, so a new block clears it by bumping ``block_no``.
    asked: List[int] = [-1] * n_slots
    verdict = bytearray(n_slots)
    block_no = 0
    hits = 0  # memo hits not yet added to the graph's query count

    n_locs = len(locs)
    writers: List[int] = [-1] * n_locs
    readers: List[Optional[list]] = [None] * n_locs
    fast_reader: List[int] = [-1] * n_locs
    fast_epoch: List[int] = [-1] * n_locs
    j = 0   # next access row
    si = 0  # next structure tuple index
    ri = 0  # next run pair offset
    n_structure = 0  # structure tuples consumed before the current columns
    final = False
    if len(runs) & 1:  # a live run's builder writes whole pairs
        raise TraceFormatError(0, "the run column ends with a kind but no "
                                  "count")
    while True:
        if ri == len(runs):
            if hits:
                dtrg.num_precede_queries += hits
                hits = 0
            if final:
                if j != len(acc) or si != len(structure):
                    raise TraceFormatError(
                        base + j + n_structure + si,
                        f"the runs cover {j} of {len(acc)} access rows "
                        f"and {si} of {len(structure)} structure tuples")
                # Implicit closing bracket: root finish end, then main
                # terminates (mirrors replay_trace).
                t_blk = perf_counter()
                owner, joins, _ = scopes[0]
                for tid in joins:
                    merge_idx(owner, tid)
                on_terminate_idx(0)
                structure_seconds += perf_counter() - t_blk
            result.num_accesses = base + j
            result.num_locations = len(locs)
            if final:
                rows = result.num_access_events = result.num_accesses
                result.num_tasks = len(task_keys)
                result.num_structure_events = n_structure + si
                result.num_events = rows + n_structure + si
                result.num_visits = dtrg.num_visits
                result.num_non_tree_edges = dtrg.num_non_tree_edges
                result.num_tree_merges = dtrg.num_tree_merges
                result.mutation_epoch = dtrg.mutation_epoch
                result.num_precede_queries = dtrg.num_precede_queries
                result.shadow_fast_hits = fast_read + fast_write
                result.precede_calls_saved = saved
                result.total_readers_seen = total_readers
                result.timings["structure_seconds"] = structure_seconds
                result.timings["access_seconds"] = access_seconds
                return
            if drop is not None:
                drop()
                base += j
                n_structure += si
                j = si = ri = 0
            final = yield
            grow = len(locs) - len(writers)
            if grow:
                writers += [-1] * grow
                readers += [None] * grow
                fast_reader += [-1] * grow
                fast_epoch += [-1] * grow
                n_locs = len(writers)
            continue
        kind = runs[ri]
        n_run = runs[ri + 1]
        if progress is not None:
            progress.add(n_run)
        t_blk = perf_counter()
        if kind == RUN_ACCESS:
            block = acc[j:j + n_run]
            if len(block) != n_run:
                raise TraceFormatError(
                    base + j + n_structure + si,
                    f"an access run of {n_run} rows, {len(acc) - j} left")
            task = cur
            block_no += 1
            try:
                for code in block:
                    j += 1
                    lid = code >> 1
                    rl = readers[lid]
                    w = writers[lid]
                    if on_access is not None:
                        on_access(code & 1, task, lid, len(rl) if rl else 0)
                    if code & 1:
                        # ----------------- Algorithm 8: write ------------- #
                        if rl:
                            nr = len(rl)
                            total_readers += nr
                            fast_reader[lid] = -1
                            surviving = None
                            vw = -1  # writer's verdict if the writer also read
                            for i2 in range(nr):
                                x = rl[i2]
                                if asked[x] == block_no:
                                    v = verdict[x]
                                    hits += 1
                                else:
                                    v = verdict[x] = precede(x, task)
                                    asked[x] = block_no
                                if x == w:
                                    vw = 1 if v else 0
                                if v:
                                    if surviving is None:
                                        surviving = rl[:i2]
                                else:
                                    _report("read-write", x, task, lid, j - 1)
                                    if surviving is not None:
                                        surviving.append(x)
                            if surviving is not None:
                                readers[lid] = surviving
                            if w >= 0 and w != task:
                                if vw >= 0:
                                    saved += 1
                                    v = vw
                                else:
                                    if asked[w] == block_no:
                                        v = verdict[w]
                                        hits += 1
                                    else:
                                        v = verdict[w] = precede(w, task)
                                        asked[w] = block_no
                                if not v:
                                    _report("write-write", w, task, lid, j - 1)
                            writers[lid] = task
                        elif w < 0 or w == task:
                            # Structural fast path: empty reader loop +
                            # skipped/reflexive writer check.
                            fast_write += 1
                            fast_reader[lid] = -1
                            writers[lid] = task
                        else:
                            fast_reader[lid] = -1
                            if asked[w] == block_no:
                                v = verdict[w]
                                hits += 1
                            else:
                                v = verdict[w] = precede(w, task)
                                asked[w] = block_no
                            if not v:
                                _report("write-write", w, task, lid, j - 1)
                            writers[lid] = task
                        continue
                    # --------------------- Algorithm 9: read -------------- #
                    if rl:
                        nr = len(rl)
                        total_readers += nr
                        if (w < 0 or w == task) and nr == 1 and rl[0] == task:
                            # Structural fast path: sole-self reader,
                            # reflexive retire-and-reappend.
                            fast_read += 1
                            saved += 1
                            continue
                        if (fast_reader[lid] == task
                                and fast_epoch[lid] == cur_epoch):
                            # Epoch memo: pure replay of this task's last
                            # clean check against an unmutated DTRG.
                            fast_read += 1
                            saved += nr + (0 if w < 0 or w == task else 1)
                            continue
                        update = False
                        tif = covered[task]
                        surviving = None
                        for i2 in range(nr):
                            x = rl[i2]
                            if asked[x] == block_no:
                                v = verdict[x]
                                hits += 1
                            else:
                                v = verdict[x] = precede(x, task)
                                asked[x] = block_no
                            if v:
                                update = True
                                if surviving is None:
                                    surviving = rl[:i2]
                                continue
                            if tif or covered[x]:
                                update = True
                            if surviving is not None:
                                surviving.append(x)
                        if surviving is not None:
                            readers[lid] = rl = surviving
                    elif w < 0 or w == task:
                        # Structural fast path: first reader, no writer check
                        # (deviation: always record the first reader).
                        fast_read += 1
                        if rl is None:
                            readers[lid] = [task]
                        else:
                            rl.append(task)
                        continue
                    else:
                        if (fast_reader[lid] == task
                                and fast_epoch[lid] == cur_epoch):
                            fast_read += 1
                            saved += 1  # the skipped writer check
                            continue
                        update = True  # deviation: record the first reader
                    raced = False
                    if w >= 0 and w != task:
                        if asked[w] == block_no:
                            v = verdict[w]
                            hits += 1
                        else:
                            v = verdict[w] = precede(w, task)
                            asked[w] = block_no
                        if not v:
                            _report("write-read", w, task, lid, j - 1)
                            raced = True
                    if update and (rl is None or task not in rl):
                        if rl is None:
                            readers[lid] = [task]
                        else:
                            rl.append(task)
                    if raced:
                        fast_reader[lid] = -1
                    else:
                        fast_reader[lid] = task
                        fast_epoch[lid] = cur_epoch
            except IndexError:
                # Ids are unsigned, so an out-of-range one fails its
                # first shadow lookup, before the row changes anything.
                if code >> 1 < n_locs:
                    raise
                raise TraceFormatError(
                    base + j - 1 + n_structure + si,
                    f"location id {code >> 1} of {n_locs}") from None
            access_seconds += perf_counter() - t_blk
        elif kind == RUN_STRUCTURE:
            # Each event checks the running-task discipline and breaks
            # out with the reason on a fault; a malformed tuple (or a
            # run past the last tuple) fails a lookup instead.
            try:
                for k in range(si, si + n_run):
                    t = structure[k]
                    op = t[0]
                    if op == OP_GET:
                        producer = t[2]
                        if t[1] != cur:
                            reason = (f"get by task index {t[1]} while task "
                                      f"index {cur} runs")
                            break
                        if not (0 <= producer < n_tasks and ended[producer]):
                            reason = (f"get of task index {producer}, which "
                                      "has not ended")
                            break
                        record_join_idx(t[1], producer)
                    elif op == OP_TASK_CREATE:
                        parent = t[1]
                        if parent != cur:
                            reason = (f"create by task index {parent} while "
                                      f"task index {cur} runs")
                            break
                        try:
                            key = task_keys[n_tasks]
                            if t[3] >= 0:
                                scopes[t[3]][1].append(n_tasks)
                        except IndexError:
                            reason = (f"create of task index {n_tasks} of "
                                      f"{n_tasks}")
                            break
                        except KeyError:
                            reason = (f"create in finish {t[3]}, which is "
                                      "not open")
                            break
                        if n_tasks == n_slots:  # a live run: double
                            covered += bytearray(n_slots)
                            ended += bytearray(n_slots)
                            asked += [-1] * n_slots
                            verdict += bytearray(n_slots)
                            n_slots += n_slots
                        covered[n_tasks] = 1 if t[2] else covered[parent]
                        running.append(cur)
                        cur = n_tasks
                        n_tasks += 1
                        add_task_idx(parent, bool(t[2]), key)
                    elif op == OP_TASK_END:
                        if t[1] != cur or not t[1]:  # 0: main
                            reason = (f"end of task index {t[1]} while task "
                                      f"index {cur} runs")
                            break
                        cur = running.pop()
                        ended[t[1]] = 1
                        on_terminate_idx(t[1])
                    elif op == OP_FINISH_START:
                        if t[2] != cur:
                            reason = (f"finish {t[1]} opened by task index "
                                      f"{t[2]} while task index {cur} runs")
                            break
                        if t[1] in scopes:
                            reason = f"finish {t[1]} opened twice"
                            break
                        if t[3] != inner:
                            reason = (f"finish {t[1]} nested in finish "
                                      f"{t[3]}, not in the innermost open "
                                      f"finish {inner}")
                            break
                        scopes[t[1]] = [t[2], [], inner]
                        inner = t[1]
                    elif op == OP_FINISH_END:
                        if t[1] != inner or not inner:
                            reason = (f"end of finish {t[1]}, but the "
                                      f"innermost open finish is {inner}")
                            break
                        if scopes[inner][0] != cur:
                            reason = (f"finish {inner} closed by task index "
                                      f"{cur}, not by its owner "
                                      f"{scopes[inner][0]}")
                            break
                        # The scope closes for good.
                        owner, joins, inner = scopes.pop(inner)
                        for tid in joins:
                            merge_idx(owner, tid)
                    else:
                        reason = f"unknown structure opcode {op!r}"
                        break
                else:
                    if n_run < 0:
                        raise TraceFormatError(base + j + n_structure + si,
                                               f"a run of {n_run} tuples")
                    si += n_run
                    cur_epoch = dtrg.mutation_epoch
                    structure_seconds += perf_counter() - t_blk
                    ri += 2
                    continue
                cause = None  # a check broke out
            except (IndexError, TypeError) as exc:
                if k >= len(structure):
                    reason = (f"a run of {n_run} tuples, "
                              f"{len(structure) - si} left")
                elif _well_formed(structure[k]):
                    raise  # a lookup error no format fault explains
                else:
                    reason = f"malformed structure tuple {structure[k]!r}"
                cause = exc
            raise TraceFormatError(base + j + n_structure + k,
                                   reason) from cause
        else:
            raise TraceFormatError(base + j + n_structure + si,
                                   f"a run of kind {kind}")
        ri += 2


def check_trace_fast(
    trace: "EncodedTrace | Iterable[Event]",
    *,
    names: Optional[Dict[int, str]] = None,
    progress=None,
) -> CheckResult:
    """Check a recorded trace in one pass (see module docstring).

    Parameters
    ----------
    trace:
        An :class:`EncodedTrace`, a :class:`~repro.core.events.Trace`
        (whose own columns are read as they are), or any other event
        iterable (lowered on the fly; the encode time is reported
        separately in ``timings``).
    names:
        Optional tid -> display-name map; defaults to the replay
        convention ``task#<tid>`` / ``future#<tid>``.
    progress:
        Optional :class:`repro.obs.live.ProgressCounter`.  Bumped once
        per run-length *block* (never per event), and once per race the
        deduplicating report keeps, so live telemetry costs nothing
        measurable on the hot path; ``None`` (default) keeps the function
        byte-identical to the untelemetered build.
    """
    t0 = perf_counter()
    if isinstance(trace, EncodedTrace):
        enc = trace
        t_enc = t0
    else:
        enc = encode_trace(trace)
        t_enc = perf_counter()

    # Display names, replay convention; Race construction reads these.
    names_list: List[str] = []
    for i, key in enumerate(enc.task_keys):
        name = names.get(key) if names else None
        if name is None:
            name = f"future#{key}" if enc.is_future[i] else f"task#{key}"
        names_list.append(name)

    result = CheckResult()
    result.dtrg = ArrayDTRG()
    result.timings["encode_seconds"] = t_enc - t0
    on_race = None
    if progress is not None:
        progress.set_total(len(enc))

        def on_race(race: Race) -> None:
            progress.add_races(1)

    kernel = _kernel(enc, result.dtrg, names_list, result, on_race=on_race,
                     progress=progress)
    next(kernel)
    try:
        kernel.send(True)
    except StopIteration:
        pass
    result.timings["total_seconds"] = perf_counter() - t0
    return result
