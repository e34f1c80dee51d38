"""Sharded race checking: every shard runs the ``check_trace_fast`` kernel.

The per-location shadow checks (Algorithms 8-9) are mutually independent
once the reachability structure is known, so ``jobs`` workers can split
the *locations* of a recorded trace between them:

1. **Encode** (the ``build`` timing): the trace is lowered once with
   :func:`~repro.core.events.encode_trace`, unless it already is an
   :class:`~repro.core.events.EncodedTrace`.
2. **Plan** (the ``freeze`` timing): location ids are bin-packed into
   ``jobs`` shards, greedy largest-first by access count.
3. **Check**: each shard runs :func:`~repro.core.fastcheck.check_trace_fast`
   over the whole trace, restricted to the locations it owns.  The kernel
   replays the *whole* structure stream into the shard's own
   :class:`~repro.core.array_dtrg.ArrayDTRG`, so that graph is at the
   online epoch at every access it checks and every verdict is the serial
   run's.  Shards run in-process (``inline``) or in a
   :mod:`multiprocessing` pool (``fork``: workers inherit the payload
   through a module global; ``spawn``: it is pickled once per worker).
4. **Merge** (deterministic): each race carries the global access-row
   ordinal of the access that reported it; a stable sort on that ordinal
   is exactly serial detection order (all races of one access share its
   location, hence its shard).  Shard-local dedupe is already global,
   because the dedupe key includes the location.

Counter invariants (pinned by the golden/property tests):

* ``precede_queries``, ``mutation_epoch``, ``shadow_fast_hits``,
  ``precede_calls_saved``, ``#AvgReaders`` and the structural counters are
  bit-identical to the sequential replay at **every** job count — the
  per-location check sequences are identical, only split across shards.
  Per-access counters are summed over shards; structural ones are taken
  from one shard (every shard replays the same structure).
* ``num_visits`` is summed but not invariant: the graph's private verdict
  memo sees a different query mix in each shard.
* ``cache_*`` columns report 0, as for the fast kernel.

Witness certificates (``--explain``) are not produced here; site
*attribution* is — recorded sites surface on the merged races.
"""

from __future__ import annotations

import heapq
import pickle
import time
from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.events import EncodedTrace, Event, encode_trace
from repro.core.fastcheck import CheckResult, check_trace_fast

__all__ = ["check_trace_parallel"]

#: Per-access counters summed over shards.
_SUMMED = (
    "num_precede_queries", "num_visits", "shadow_fast_hits",
    "precede_calls_saved", "total_readers_seen",
)
#: Counters every shard computes identically (structure and totals).
_SHARED = (
    "num_tasks", "num_events", "num_access_events", "num_structure_events",
    "num_locations", "num_accesses", "num_non_tree_edges",
    "num_tree_merges", "mutation_epoch",
)


def _plan_shards(
    enc: EncodedTrace, jobs: int
) -> Tuple[List[bytearray], List[int]]:
    """Greedy largest-first bin-packing of location ids into ``jobs``
    shards by access count; deterministic (ties broken by location id,
    then shard id).  Returns one ownership mask per shard (``mask[lid]``
    set when the shard owns ``lid``) and the per-shard access counts."""
    counts = Counter(enc.access[2::3])
    masks = [bytearray(enc.num_locations) for _ in range(jobs)]
    loads = [0] * jobs
    heap = [(0, k) for k in range(jobs)]
    for lid, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        load, k = heapq.heappop(heap)
        masks[k][lid] = 1
        loads[k] = load + n
        heapq.heappush(heap, (load + n, k))
    return masks, loads


def _check_shard(enc: EncodedTrace, names, owned) -> CheckResult:
    part = check_trace_fast(enc, names=names, _owned=owned)
    part.dtrg = None  # the live graph stays with the worker
    return part


# Module-global payload ``(enc, names, masks)`` for pooled workers.  With
# the fork start method the parent sets it before creating the pool and
# children inherit it; with spawn the pool initializer unpickles it once
# per worker.
_PAYLOAD: Optional[tuple] = None


def _pool_init(blob: Optional[bytes]) -> None:
    global _PAYLOAD
    if blob is not None:
        _PAYLOAD = pickle.loads(blob)


def _run_pooled(k: int) -> CheckResult:
    enc, names, masks = _PAYLOAD
    return _check_shard(enc, names, masks[k])


def _resolve_backend(backend: Optional[str], jobs: int) -> str:
    if backend is not None:
        if backend not in ("inline", "fork", "spawn"):
            raise ValueError(f"unknown backend {backend!r}")
        return backend
    if jobs <= 1:
        return "inline"
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


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
        ``None`` (auto: ``fork`` where available, else ``spawn``),
        ``"inline"`` (all shards in-process, no multiprocessing — what the
        property sweeps use), ``"fork"`` or ``"spawn"``.
    names:
        Optional tid -> display-name map (e.g. captured from a live run);
        defaults to the replay convention ``task#<tid>`` / ``future#<tid>``.
    obs:
        Optional :class:`repro.obs.Observability`; records the shard plan,
        stage timings and per-shard spans.  Disabled/None costs nothing.
    progress:
        Optional :class:`repro.obs.live.ProgressCounter`, counting checked
        access events.  It is bumped per shard — for the ``inline``
        backend after each shard completes; for pooled backends the
        workers run in other processes, so it jumps once when
        ``pool.map`` returns.

    ``timings`` holds ``build_seconds`` (encoding; 0 for an
    ``EncodedTrace``), ``freeze_seconds`` (the shard plan),
    ``check_seconds`` (all shards), ``merge_seconds``, ``total_seconds``
    and ``max_shard_seconds`` (the slowest shard's kernel time).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    backend = _resolve_backend(backend, jobs)
    obs = obs if obs is not None and getattr(obs, "enabled", False) else None
    t0 = time.perf_counter()

    if progress is not None:
        progress.set_phase("build")
    enc = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    t_build = time.perf_counter()
    if progress is not None:
        progress.set_total(enc.num_access_events)
        progress.set_phase("freeze")

    masks, loads = _plan_shards(enc, jobs)
    # A trace without accesses still needs one shard to replay its
    # structure: the structural counters come from the shards.
    active = [k for k in range(jobs) if loads[k]] or [0]
    t_freeze = time.perf_counter()
    if obs is not None:
        obs.on_parallel_plan(jobs, backend, loads)

    if progress is not None:
        progress.set_phase("check")
    if backend == "inline" or len(active) == 1:
        parts: List[CheckResult] = []
        for k in active:
            # A lone shard owns every location: skip the filter.
            owned = masks[k] if len(active) > 1 else None
            parts.append(_check_shard(enc, names, owned))
            if progress is not None:
                progress.add(loads[k])
    else:
        import multiprocessing

        global _PAYLOAD
        payload = (enc, names, masks)
        if backend == "fork":
            _PAYLOAD = payload
            initargs = (None,)
        else:
            initargs = (pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),)
        try:
            with multiprocessing.get_context(backend).Pool(
                processes=len(active),
                initializer=_pool_init,
                initargs=initargs,
            ) as pool:
                parts = pool.map(_run_pooled, active)
        finally:
            _PAYLOAD = None
        if progress is not None:
            progress.add(enc.num_access_events)
    t_check = time.perf_counter()
    if progress is not None:
        progress.set_phase("merge")

    result = CheckResult()
    result.jobs = jobs
    result.backend = backend
    for name in _SHARED:
        setattr(result, name, getattr(parts[0], name))
    for name in _SUMMED:
        setattr(result, name, sum(getattr(p, name) for p in parts))
    tagged = []
    for k, part in zip(active, parts):
        tagged.extend(zip(part.race_rows, part.races))
        result.shards.append({
            "shard": k,
            "events": loads[k],
            "races": len(part.races),
            "seconds": part.timings["total_seconds"],
        })
    tagged.sort(key=itemgetter(0))  # stable: keeps each access's order
    add = result.report.add
    for row, race in tagged:
        add(race)
        result.race_rows.append(row)
    t_merge = time.perf_counter()
    if progress is not None:
        progress.add_races(len(tagged))
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
