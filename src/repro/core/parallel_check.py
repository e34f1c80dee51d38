"""Sharded race checking: every shard runs the ``check_trace_fast`` kernel.

The per-location shadow checks (Algorithms 8-9) are mutually independent
once the reachability structure is known, so ``jobs`` workers can split
the *locations* of a recorded trace between them:

1. **Encode** (the ``build`` timing): the trace is lowered once with
   :func:`~repro.core.events.encode_trace`, unless it already is an
   :class:`~repro.core.events.EncodedTrace`.
2. **Plan** (the ``freeze`` timing): one numpy pass counts the access
   rows per location; location ids are packed into ``jobs`` shards,
   greedy largest-first by that count; and, when the trace is split, each
   shard gets its own access column (its rows, in trace order) and run
   column (the trace's runs, each access run counting only the shard's
   rows), sharing the structure, task and location columns.
3. **Check**: each shard runs :func:`~repro.core.fastcheck.check_trace_fast`
   over its own columns.  The kernel replays the *whole* structure stream
   into the shard's own :class:`~repro.core.array_dtrg.ArrayDTRG`, so that
   graph is at the online epoch at every access it checks and every
   verdict is the serial run's.
4. **Merge** (deterministic): each race's shard-local row is mapped to
   the global access-row ordinal of the access that reported it; a
   stable sort on that ordinal
   is exactly serial detection order (all races of one access share its
   location, hence its shard).  Shard-local dedupe is already global,
   because the dedupe key includes the location, so the merge
   concatenates the shards' races without testing them again
   (:meth:`~repro.core.races.RaceReport.concat`); a lone shard's report
   is adopted as it is.

Dispatch.  ``inline`` checks every shard in-process, one after another.
``fork`` and ``spawn`` start one :mod:`multiprocessing` process per shard
but the heaviest, each with a one-way pipe for its result; the parent
checks the heaviest shard itself meanwhile, then receives the others.
Under ``fork`` a child reaches its shard's columns through its
``Process`` arguments without pickling; under ``spawn`` they are pickled
once per child.  A column the kernel would reject (a location id out of
range, runs that do not cover the columns) is not split: the trace is
checked whole and raises at its row.  A structure fault is met by every
shard at the same tuple and raised from the whole trace's kernel, so a
:class:`~repro.core.events.TraceFormatError` always names the trace's
row, never a shard's.  A child that dies before sending surfaces as a
:class:`RuntimeError` naming its shard and exit code, never as a hang.

The auto backend forks only when a split can win.  A split takes at most
the *movable rows* — ``sum(loads) - max(loads)``, the access rows off the
heaviest shard — off the critical path, while making each process costs
a fixed few milliseconds.  Below :data:`MIN_SPLIT_ROWS` movable rows the
auto backend checks the trace as one in-process shard (the ``--fast``
kernel over the trace's own columns, whose report it adopts) and reports ``backend ==
"inline"``.  Explicit backends always dispatch as named.

Counter invariants (pinned by the golden/property tests):

* ``precede_queries``, ``mutation_epoch``, ``shadow_fast_hits``,
  ``precede_calls_saved``, ``#AvgReaders`` and the structural counters are
  bit-identical to the sequential replay at **every** job count — the
  per-location check sequences are identical, only split across shards.
  Per-access counters are summed over shards; structural ones are taken
  from one shard (every shard replays the same structure); the row
  counts are the trace's.
* ``num_visits`` is summed but not invariant: the graph's private verdict
  memo sees a different query mix in each shard.
* ``cache_*`` columns report 0, as for the fast kernel.

Witness certificates (``--explain``) are not produced here; site
*attribution* is — recorded sites surface on the merged races.
"""

from __future__ import annotations

import multiprocessing
import time
from heapq import heapreplace
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.events import (
    RUN_ACCESS,
    RUN_STRUCTURE,
    EncodedTrace,
    Event,
    TraceFormatError,
    encode_trace,
)
from repro.core.fastcheck import CheckResult, check_trace_fast
from repro.core.races import RaceReport

__all__ = ["MIN_SPLIT_ROWS", "check_trace_parallel"]

#: Break-even of the auto backend, in movable access rows
#: (``sum(loads) - max(loads)`` over the shard plan).  With fewer, the
#: auto backend checks the trace as one in-process shard, because making
#: the processes costs more than the split saves.  Measured by
#: ``benchmarks/bench_split_breakeven.py``; table in ALGORITHM.md §12.2.
MIN_SPLIT_ROWS = 20_000

_BACKENDS = (None, "auto", "inline", "fork", "spawn")

#: Per-access counters summed over shards.
_SUMMED = (
    "num_precede_queries", "num_visits", "shadow_fast_hits",
    "precede_calls_saved", "total_readers_seen",
)
#: Counters every shard computes identically (the structure's).
_SHARED = (
    "num_tasks", "num_structure_events", "num_locations",
    "num_non_tree_edges", "num_tree_merges", "mutation_epoch",
)


def _plan_shards(enc: EncodedTrace, jobs: int):
    """Greedy largest-first packing of location ids into ``jobs`` shards
    by access-row count, in one vectorised count of the access column.

    Returns ``(lids, counts, deal, loads)``: each row's location id and
    each location's row count (numpy arrays), the packing as ``(shard,
    n)`` pairs (the next ``n`` locations in largest-count-first order go
    to ``shard``) and the rows per shard.  ``lids`` is ``None`` for one
    shard of the whole trace: at ``jobs == 1``, without accesses, and for
    a location id out of range, which the kernel rejects at its row.

    The loads are those of placing one location at a time on the
    lightest shard (ties by shard id), but locations of equal count go
    in bulk: once every shard is within one such location of the
    heaviest, whole rounds of one location per shard keep the shards'
    order, so only the catch-up and the last partial round take a step
    per location.
    """
    if jobs == 1:
        return None, None, None, [len(enc.access)]
    lids = (np.frombuffer(enc.access, dtype=np.uint64) >> 1).view(np.intp)
    if not len(lids) or int(lids.max()) >= enc.num_locations:
        return None, None, None, [len(lids)]
    counts = np.bincount(lids, minlength=enc.num_locations)
    heap = [(0, k) for k in range(jobs)]
    high = 0  # the heaviest load
    deal: List[Tuple[int, int]] = []
    for c, group in groupby(sorted(counts.tolist(), reverse=True)):
        if not c:
            break
        m = len(list(group))
        while m:
            load, k = heap[0]
            if m >= jobs and high - load < c:
                q = m // jobs
                heap = [(other + q * c, s) for other, s in heap]
                deal += [(s, q) for _, s in heap]
                high += q * c
                m -= q * jobs
                continue
            heapreplace(heap, (load + c, k))
            deal.append((k, 1))
            high = max(high, load + c)
            m -= 1
    loads = [0] * jobs
    for load, k in heap:
        loads[k] = load
    return lids, counts, deal, loads


def _split(enc: EncodedTrace, lids, counts, deal, active):
    """Each shard of ``active`` as its own columns: ``(shards, rows)``,
    where ``shards[k]`` is an :class:`EncodedTrace` holding shard ``k``'s
    access rows and ``rows[k]`` their global access-row ordinals.

    A shard shares the trace's structure, tasks and locations.  Its run
    column has the trace's pairs, each access run counting only the
    shard's rows in it, so its kernel replays the whole structure stream
    and checks every row at the graph epoch of the serial run.  Returns
    ``None`` for a run column the kernel would reject (an odd length, an
    unknown kind, a negative count, runs that do not cover the columns):
    the caller checks such a trace whole, which raises at its row.
    """
    runs = np.frombuffer(enc.runs, dtype=np.int64)
    if len(runs) & 1:
        return None
    kinds, lengths = runs[0::2], runs[1::2]
    is_access = kinds == RUN_ACCESS
    if ((kinds[~is_access] != RUN_STRUCTURE).any() or (lengths < 0).any()
            or lengths[is_access].sum() != len(enc.access)
            or lengths[~is_access].sum() != len(enc.structure)):
        return None
    shard_of, sizes = zip(*deal)
    owner = np.zeros(len(counts), dtype=np.min_scalar_type(max(shard_of)))
    owner[np.argsort(-counts, kind="stable")[:sum(sizes)]] = np.repeat(
        shard_of, sizes)
    shard_of_row = owner[lids]
    ends = np.cumsum(lengths[is_access])  # each access run's end row
    codes = np.frombuffer(enc.access, dtype=np.uint64)
    shards, ordinals = {}, {}
    for k in active:
        rows = np.flatnonzero(shard_of_row == k)
        shard = EncodedTrace()
        shard.access.frombytes(codes[rows].tobytes())
        own = runs.copy()
        own[1::2][is_access] = np.diff(np.searchsorted(rows, ends),
                                       prepend=0)
        shard.runs.frombytes(own.tobytes())
        shard.structure = enc.structure
        shard.task_keys = enc.task_keys
        shard.is_future = enc.is_future
        shard.locs = enc.locs
        shards[k], ordinals[k] = shard, rows
    return shards, ordinals


def _check_shard(shard: EncodedTrace, names) -> CheckResult:
    part = check_trace_fast(shard, names=names)
    part.dtrg = None  # the live graph stays with the worker
    return part


def _send_shard(conn, shard: EncodedTrace, names) -> None:
    """Child process: check one shard and send its result to the parent."""
    try:
        conn.send(_check_shard(shard, names))
    finally:
        conn.close()


def _check_in_processes(
    method: str, shards, names, loads, active, progress
) -> List[CheckResult]:
    """Check each shard in ``active`` but the heaviest in a child process
    and the heaviest in this one; return the results in ``active`` order.
    """
    ctx = multiprocessing.get_context(method)
    heaviest = max(active, key=loads.__getitem__)
    children = []
    try:
        for k in active:
            if k == heaviest:
                continue
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_send_shard, args=(send_end, shards[k], names),
                daemon=True,
            )
            try:
                proc.start()
            finally:
                # Only the child may hold the write end, so its death
                # reads as EOF here instead of a recv() that never returns.
                send_end.close()
            children.append((k, proc, recv_end))
        parts = {heaviest: _check_shard(shards[heaviest], names)}
        if progress is not None:
            progress.add(loads[heaviest])
        for k, proc, recv_end in children:
            try:
                parts[k] = recv_end.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"shard {k} worker exited with code {proc.exitcode} "
                    "before sending its result"
                ) from None
            if progress is not None:
                progress.add(loads[k])
    except BaseException:
        for _k, proc, _recv_end in children:
            if proc.is_alive():
                proc.terminate()
        raise
    finally:
        for _k, proc, recv_end in children:
            recv_end.close()
            proc.join()
    return [parts[k] for k in active]


def check_trace_parallel(
    trace: EncodedTrace | Iterable[Event],
    *,
    jobs: int = 1,
    backend: Optional[str] = None,
    names: Optional[Dict[int, str]] = None,
    obs=None,
    progress=None,
) -> CheckResult:
    """Sharded race check of a recorded event stream (see module
    docstring).

    Parameters
    ----------
    trace:
        A :class:`~repro.core.events.Trace`, any iterable of events
        (generators welcome — it is read once, by the encoder), or an
        :class:`~repro.core.events.EncodedTrace`.
    jobs:
        Number of shards/workers.  Results are bit-identical at every
        value.
    backend:
        ``None`` or ``"auto"`` (one in-process shard below
        :data:`MIN_SPLIT_ROWS` movable rows, else ``fork`` where
        available, else ``spawn``), ``"inline"`` (all shards in-process,
        no multiprocessing — what the property sweeps use), ``"fork"`` or
        ``"spawn"``.
    names:
        Optional tid -> display-name map (e.g. captured from a live run);
        defaults to the replay convention ``task#<tid>`` / ``future#<tid>``.
    obs:
        Optional :class:`repro.obs.Observability`; records the shard plan,
        stage timings and per-shard spans.  Disabled/None costs nothing.
    progress:
        Optional :class:`repro.obs.live.ProgressCounter`, counting checked
        access events.  It is bumped per shard, as each shard's result
        is in hand.

    ``timings`` holds ``build_seconds`` (encoding; 0 for an
    ``EncodedTrace``), ``freeze_seconds`` (the shard plan),
    ``check_seconds`` (all shards), ``merge_seconds``, ``total_seconds``
    and ``max_shard_seconds`` (the slowest shard's kernel time).
    ``movable_rows`` is the plan's ``sum(loads) - max(loads)``, also when
    the auto backend declined to split.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    obs = obs if obs is not None and getattr(obs, "enabled", False) else None
    t0 = time.perf_counter()

    if progress is not None:
        progress.set_phase("build")
    enc = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    t_build = time.perf_counter()
    if progress is not None:
        progress.set_total(enc.num_access_events)
        progress.set_phase("freeze")

    lids, counts, deal, loads = _plan_shards(enc, jobs)
    movable = sum(loads) - max(loads)
    if backend in (None, "auto"):
        if movable < MIN_SPLIT_ROWS:
            backend, loads = "inline", [sum(loads)]
        elif "fork" in multiprocessing.get_all_start_methods():
            backend = "fork"
        else:
            backend = "spawn"
    active = [k for k, load in enumerate(loads) if load]
    split = _split(enc, lids, counts, deal, active) if len(active) > 1 \
        else None
    if split is None:
        # One shard of the whole trace, also without accesses: the
        # structural counters come from the shards.
        loads, active, split = [sum(loads)], [0], ({0: enc}, {0: None})
    shards, ordinals = split
    t_freeze = time.perf_counter()
    if obs is not None:
        obs.on_parallel_plan(jobs, backend, loads)

    if progress is not None:
        progress.set_phase("check")
    try:
        if backend == "inline" or len(active) == 1:
            parts: List[CheckResult] = []
            for k in active:
                parts.append(_check_shard(shards[k], names))
                if progress is not None:
                    progress.add(loads[k])
        else:
            parts = _check_in_processes(
                backend, shards, names, loads, active, progress
            )
    except TraceFormatError:
        if len(active) == 1:
            raise
        # Only a structure fault gets past the split, and every shard
        # meets it at the same tuple; the whole trace's kernel raises it
        # at its row of the trace.
        check_trace_fast(enc)
        raise
    t_check = time.perf_counter()
    if progress is not None:
        progress.set_phase("merge")

    result = CheckResult()
    result.jobs = jobs
    result.backend = backend
    result.movable_rows = movable
    for name in _SHARED:
        setattr(result, name, getattr(parts[0], name))
    result.num_accesses = result.num_access_events = len(enc.access)
    result.num_events = len(enc)
    for name in _SUMMED:
        setattr(result, name, sum(getattr(p, name) for p in parts))
    for k, part in zip(active, parts):
        if ordinals[k] is not None:  # shard-local rows to the trace's
            part.race_rows = ordinals[k][part.race_rows].tolist()
        result.shards.append({
            "shard": k,
            "events": loads[k],
            "races": len(part.races),
            "seconds": part.timings["total_seconds"],
        })
    if len(parts) == 1:
        result.report = parts[0].report
        result.race_rows = parts[0].race_rows
    else:
        tagged = []
        for part in parts:
            tagged.extend(zip(part.race_rows, part.races))
        tagged.sort(key=itemgetter(0))  # stable: keeps each access's order
        result.race_rows = [row for row, _ in tagged]
        result.report = RaceReport.concat(
            [part.report for part in parts], [race for _, race in tagged])
    t_merge = time.perf_counter()
    if progress is not None:
        progress.add_races(len(result.races))
        progress.set_phase("done")

    result.timings = {
        "build_seconds": t_build - t0,
        "freeze_seconds": t_freeze - t_build,
        "check_seconds": t_check - t_freeze,
        "merge_seconds": t_merge - t_check,
        "total_seconds": t_merge - t0,
        "max_shard_seconds": max(s["seconds"] for s in result.shards),
    }
    if obs is not None:
        obs.on_parallel_stages(result.timings, result.shards)
    return result
