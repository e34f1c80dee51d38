"""Race provenance: call-site flight recorder + explainable race witnesses.

A detected :class:`~repro.core.races.Race` is exact per Theorem 2, but by
itself it is just ``(loc, kind, prev_task, current_task)`` — the DTRG keeps
no steps and the runtime keeps no source positions, so the user cannot see
*where* the two accesses came from or *why* ``PRECEDE`` answered false.
This module adds both, strictly opt-in:

* :class:`RaceProvenance` — a bounded **access-site flight recorder**.
  Attached to a :class:`~repro.runtime.runtime.Runtime` it tags every spawn / ``get()`` / read / write with a lightweight
  call-site label (``file:line (function)``), interned into a bounded
  :class:`SiteTable`, and keeps a fixed-size ring of the most recent
  accesses.  Nothing here touches a hot path when the object is absent:
  the runtime installs a provenance *observer* in front of the regular
  observer list, so the provenance-off dispatch code is byte-identical to
  the pre-provenance code (same null-object discipline as
  :mod:`repro.obs.hooks`, gated by ``bench_obs_overhead.py``).

* :class:`RaceWitness` — a machine-checkable **non-ordering certificate**
  for one race, from
  :meth:`~repro.core.array_dtrg.ArrayDTRG.explain_precede`: both tasks'
  ``(pre, post)`` interval labels, their sets' representatives (the
  root-most member, whose label is the set label) and members, the
  level-0 checks that failed, the LSA chain walked, and the VISIT
  frontier that was exhausted without reaching the predecessor.
  :func:`confirm_witness` cross-validates a witness against the
  brute-force computation graph (``racecheck --verify-witness``).

* :func:`explain_races` — the one witness builder.  No checker keeps
  sites or builds certificates while it runs; every path (the live
  kernel, ``check_trace_fast``, each ``--jobs`` shard) reports its races with their access-row ordinals
  (``race_rows``), and one pass over the recorded columns afterwards
  attaches both accesses' call sites and the certificates.

* Renderers — :func:`render_witness_text` for terminals and
  :func:`witness_report_data` for the schema-validated JSON document
  (``repro.race-witness-report/1``, checked by
  ``python -m repro.obs.validate``).  The HTML report lives in
  :mod:`repro.obs.report_html`.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import (
    OP_FINISH_START,
    OP_GET,
    OP_TASK_CREATE,
    OP_TASK_END,
    EncodedTrace,
    ExecutionObserver,
    Trace,
    _access_runs,
    encode_trace,
)
from repro.core.array_dtrg import MAXID, ArrayDTRG
from repro.core.races import AccessKind, Race

__all__ = [
    "SiteTable",
    "RaceProvenance",
    "RaceWitness",
    "WITNESS_SCHEMA",
    "WITNESS_REPORT_SCHEMA",
    "confirm_witness",
    "explain_races",
    "render_witness_text",
    "witness_report_data",
]

#: Schema tags carried by the emitted JSON, checked by ``repro.obs.validate``.
WITNESS_SCHEMA = "repro.race-witness/1"
WITNESS_REPORT_SCHEMA = "repro.race-witness-report/1"

#: Reserved site id meaning "no site captured" (table full / internal frame).
SITE_UNKNOWN = 0


class SiteTable:
    """Bounded intern table for call-site labels.

    Sites are ``(filename, lineno, function)`` triples formatted as
    ``file.py:42 (function)``.  The table holds at most ``capacity``
    distinct sites; once full, new sites intern to :data:`SITE_UNKNOWN`
    and ``num_dropped`` counts them — the flight recorder must stay
    bounded no matter how large the monitored program is.
    """

    __slots__ = ("capacity", "num_dropped", "_ids", "_labels")

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.num_dropped = 0
        self._ids: Dict[Any, int] = {}
        self._labels: List[str] = ["<unknown>"]

    def intern(self, filename: str, lineno: int, function: str) -> int:
        """Intern a frame position; returns its site id (0 when full)."""
        key = (filename, lineno, function)
        sid = self._ids.get(key)
        if sid is not None:
            return sid
        if len(self._labels) > self.capacity:
            self.num_dropped += 1
            return SITE_UNKNOWN
        sid = len(self._labels)
        self._ids[key] = sid
        self._labels.append(f"{_shorten(filename)}:{lineno} ({function})")
        return sid

    def label(self, sid: int) -> str:
        if 0 <= sid < len(self._labels):
            return self._labels[sid]
        return self._labels[SITE_UNKNOWN]

    def __len__(self) -> int:
        """Number of distinct interned sites (excluding the sentinel)."""
        return len(self._labels) - 1


def _shorten(filename: str) -> str:
    """Best-effort cwd-relative path for readable labels."""
    try:
        rel = os.path.relpath(filename)
    except ValueError:  # pragma: no cover - different drive on Windows
        return filename
    return rel if not rel.startswith("..") else filename


def _internal_files() -> frozenset:
    """Source files whose frames are library plumbing, not user code."""
    import repro.memory.shared as _shared
    import repro.runtime.base as _base
    import repro.runtime.future as _future
    import repro.runtime.runtime as _runtime

    return frozenset({
        __file__, _base.__file__, _runtime.__file__, _future.__file__,
        _shared.__file__,
    })


class _ProvenanceObserver(ExecutionObserver):
    """Adapter placed *first* in the runtime's observer list.

    Being a regular observer keeps the runtime's dispatch loops untouched:
    with no provenance attached the loops simply do not contain this hook,
    so the disabled path executes the exact pre-provenance bytecode.
    Being first guarantees ``current_site`` is up to date before any
    detector / recorder observer sees the event.
    """

    __slots__ = ("_prov",)

    def __init__(self, prov: "RaceProvenance") -> None:
        self._prov = prov

    def on_task_create(self, parent, child) -> None:
        self._prov.on_spawn(parent.tid, child.tid)

    def on_get(self, consumer, producer) -> None:
        self._prov.on_get(consumer.tid, producer.tid)

    def on_read(self, task, loc) -> None:
        self._prov.on_access("read", task.tid, loc)

    def on_write(self, task, loc) -> None:
        self._prov.on_access("write", task.tid, loc)


class RaceProvenance:
    """Opt-in, bounded access-site flight recorder.

    Attach with ``Runtime(observers=[...], provenance=prov)`` and record
    the run with ``TraceRecorder(provenance=prov)``: the recorder stores
    each access's site label in the columns, where :func:`explain_races`
    reads it back.

    Parameters
    ----------
    site_capacity:
        Maximum number of distinct call sites interned; later sites
        collapse to ``<unknown>`` (bounded memory on any program).
    ring_capacity:
        Length of the recent-access ring kept for reports.
    """

    #: Null-object protocol marker (mirrors ``Observability.enabled``).
    enabled = True

    def __init__(
        self, *, site_capacity: int = 4096, ring_capacity: int = 1024
    ) -> None:
        self.sites = SiteTable(site_capacity)
        #: Site id of the event currently being dispatched.
        self.current_site: int = SITE_UNKNOWN
        #: tid -> site id of the spawn call that created the task.
        self.spawn_sites: Dict[int, int] = {}
        #: Recent ``(event_kind, tid, detail, site_id)`` records.
        self.ring: deque = deque(maxlen=ring_capacity)
        #: Total events the recorder has seen (ring length is bounded).
        self.num_events = 0
        self._skip = None  # lazily built frame-filter set

    # -- runtime-facing hooks ------------------------------------------ #
    def observer(self) -> _ProvenanceObserver:
        """The adapter the runtime inserts ahead of its observers."""
        return _ProvenanceObserver(self)

    def on_access(self, kind: str, tid: int, loc: Hashable) -> None:
        sid = self._capture()
        self.current_site = sid
        self.num_events += 1
        self.ring.append((kind, tid, loc, sid))

    def on_spawn(self, parent_tid: int, child_tid: int) -> None:
        sid = self._capture()
        self.current_site = sid
        self.spawn_sites[child_tid] = sid
        self.num_events += 1
        self.ring.append(("spawn", parent_tid, child_tid, sid))

    def on_get(self, consumer_tid: int, producer_tid: int) -> None:
        sid = self._capture()
        self.current_site = sid
        self.num_events += 1
        self.ring.append(("get", consumer_tid, producer_tid, sid))

    # -- lookups -------------------------------------------------------- #
    def site_label(self, sid: int) -> Optional[str]:
        """Human-readable label for a site id; ``None`` for unknown."""
        return None if sid == SITE_UNKNOWN else self.sites.label(sid)

    def spawn_site_label(self, tid: int) -> Optional[str]:
        return self.site_label(self.spawn_sites.get(tid, SITE_UNKNOWN))

    def recent(self, n: Optional[int] = None) -> List[tuple]:
        """The last ``n`` flight-recorder entries (newest last)."""
        items = list(self.ring)
        return items if n is None else items[-n:]

    # -- internals ------------------------------------------------------ #
    def _capture(self) -> int:
        """Walk up the stack to the first non-library frame and intern it.

        The skip set covers this module, the runtime, the future handle
        and the shared-memory wrappers, so the attributed frame is the
        user statement that performed the access/spawn/get.
        """
        skip = self._skip
        if skip is None:
            skip = self._skip = _internal_files()
        try:
            frame = sys._getframe(1)
        except ValueError:  # pragma: no cover - no caller frame
            return SITE_UNKNOWN
        hops = 0
        while frame is not None and hops < 24:
            code = frame.f_code
            if code.co_filename not in skip:
                return self.sites.intern(
                    code.co_filename, frame.f_lineno, code.co_name
                )
            frame = frame.f_back
            hops += 1
        return SITE_UNKNOWN


# ---------------------------------------------------------------------- #
# Witnesses                                                              #
# ---------------------------------------------------------------------- #
@dataclass
class RaceWitness:
    """A non-ordering certificate for one reported race.

    ``certificate`` is the JSON-able dict produced by
    :meth:`ArrayDTRG.explain_precede` for the query
    ``PRECEDE(prev_task, current_task)`` (verdict ``False``): interval
    labels, set representatives/members, level-0 check outcomes, the LSA
    chain walked and the exhausted VISIT frontier.  The reverse direction
    needs no search: under serial depth-first execution the current
    access executes after every completed step of ``prev_task``'s
    recorded access, so ``current`` cannot precede ``prev`` either —
    the pair is unordered, i.e. logically parallel (Definition 3).
    """

    witness_id: str
    loc: Hashable
    kind: str
    prev_task: int
    current_task: int
    prev_name: str = ""
    current_name: str = ""
    prev_site: Optional[str] = None
    current_site: Optional[str] = None
    certificate: Dict[str, Any] = field(default_factory=dict)

    def to_data(self) -> Dict[str, Any]:
        """The ``repro.race-witness/1`` JSON object."""
        return {
            "schema": WITNESS_SCHEMA,
            "witness_id": self.witness_id,
            "race": {
                "loc": _loc_data(self.loc),
                "kind": self.kind,
                "prev_task": self.prev_task,
                "current_task": self.current_task,
                "prev_name": self.prev_name,
                "current_name": self.current_name,
                "prev_site": self.prev_site,
                "current_site": self.current_site,
            },
            "certificate": self.certificate,
        }


def _loc_data(loc: Hashable) -> Any:
    """JSON-safe rendering of a location key."""
    if isinstance(loc, tuple):
        return [_loc_data(item) for item in loc]
    if isinstance(loc, (str, int, float, bool)) or loc is None:
        return loc
    return repr(loc)


def _access_roles(kind: str) -> Tuple[bool, bool]:
    """``(prev_is_write, current_is_write)`` for a race kind string."""
    return {
        "read-write": (False, True),
        "write-write": (True, True),
        "write-read": (True, False),
    }[kind]


def confirm_witness(witness: RaceWitness, graph, closure=None) -> bool:
    """Cross-validate ``witness`` against the brute-force computation graph.

    True iff the graph contains a pair of accesses to ``witness.loc`` —
    one by each task, with the witnessed read/write roles — whose steps
    are logically parallel under the transitive-closure oracle
    (:class:`repro.graph.analysis.ReachabilityClosure`).  This is the
    Theorem 2 ground truth the property tests compare against; a witness
    this function rejects would be a detector bug.
    """
    from repro.graph.analysis import ReachabilityClosure, parallel_conflicts

    closure = closure or ReachabilityClosure(graph)
    prev_is_write, cur_is_write = _access_roles(witness.kind)
    roles = {(witness.prev_task, prev_is_write),
             (witness.current_task, cur_is_write)}
    return any(
        {(a.task, a.is_write), (b.task, b.is_write)} == roles
        for a, b in parallel_conflicts(
            graph.accesses_by_loc.get(witness.loc, []), closure)
    )


def explain_races(
    columns: "EncodedTrace | Trace",
    races: Sequence[Race],
    race_rows: Sequence[int],
) -> Tuple[List[Race], List[RaceWitness]]:
    """Attach call sites and non-ordering certificates to reported races.

    ``races`` is any checker's race list and ``race_rows[i]`` the
    access-row ordinal of the access that reported ``races[i]`` in
    ``columns``, the recorded trace of the same run.  One pass over the
    columns applies each structure run to an
    :class:`~repro.core.array_dtrg.ArrayDTRG`, as the kernel does, and
    stops at each race's row to ask :meth:`explain_precede(prev, cur)`:
    the graph is then in the state the checker queried.

    The current site is the row's own recorded site.  The previous site
    is that of the latest earlier row by ``prev`` on the location with
    the witnessed kind (a read for ``read-write``, a write otherwise):
    the access the shadow cell retained when the race was reported.
    Sites are ``None`` when the run was recorded without provenance.

    Returns ``(races_with_sites, witnesses)``, both in the order of
    ``races``; race ``i`` and its witness carry ``witness_id`` ``w<i>``.
    Raises ``ValueError`` if a row lies beyond the recorded accesses.
    """
    enc = columns if isinstance(columns, EncodedTrace) else encode_trace(columns)
    keys, acc, sites = enc.task_keys, enc.access, enc.access_sites
    index = {key: idx for idx, key in enumerate(keys)}
    # (packed access row, task index) of each race's previous access.
    prev_rows = [
        (enc.loc_index[race.loc] << 1
         | (race.kind is not AccessKind.READ_WRITE), index[race.prev_task])
        for race in races
    ]
    watched = {code for code, _t in prev_rows}
    latest: Dict[tuple, int] = {}  # (packed row, task) -> latest row
    tracked = 0  # rows below this one are in ``latest``

    def track(upto: int, task: int) -> None:
        """Enter rows ``[tracked, upto)``, all made by ``task``."""
        nonlocal tracked
        for p in range(tracked, upto):
            if acc[p] in watched:
                latest[(acc[p], task)] = p
        tracked = max(tracked, upto)

    graph = ArrayDTRG()
    graph.add_root_idx(keys[0])
    scopes: Dict[int, list] = {0: [0, []]}
    order = sorted(range(len(races)), key=race_rows.__getitem__)
    certificates: List[Optional[dict]] = [None] * len(races)
    prev_sites: List[Optional[str]] = [None] * len(races)
    k = done = 0
    for row, count, task, si in _access_runs(enc, [0]):
        for t in enc.structure[done:si]:
            op = t[0]
            if op == OP_GET:
                graph.record_join_idx(t[1], t[2])
            elif op == OP_TASK_CREATE:
                child = graph.add_task_idx(t[1], bool(t[2]),
                                           keys[len(graph.keys)])
                if t[3] >= 0:
                    scopes[t[3]][1].append(child)
            elif op == OP_TASK_END:
                graph.on_terminate_idx(t[1])
            elif op == OP_FINISH_START:
                scopes[t[1]] = [t[2], []]
            else:  # OP_FINISH_END
                owner, joins = scopes.pop(t[1])
                for idx in joins:
                    graph.merge_idx(owner, idx)
        done = si
        row += count
        # The graph is as the checker saw it at every row of the run.
        while k < len(order) and race_rows[order[k]] < row:
            i = order[k]
            if sites is not None:
                track(race_rows[i], task)
                p = latest.get(prev_rows[i])
                prev_sites[i] = None if p is None else sites[p]
            certificates[i] = graph.explain_precede(
                races[i].prev_task, races[i].current_task)
            k += 1
        if sites is not None and k < len(order):
            track(row, task)  # later races may retain these rows
    if k < len(order):
        raise ValueError(
            f"race row {race_rows[order[k]]} lies beyond the "
            f"{len(acc)} recorded access rows")

    sited: List[Race] = []
    witnesses: List[RaceWitness] = []
    for i, race in enumerate(races):
        wid = f"w{i}"
        site = sites[race_rows[i]] if sites is not None else None
        sited.append(race._replace(prev_site=prev_sites[i],
                                   current_site=site, witness_id=wid))
        witnesses.append(RaceWitness(
            witness_id=wid,
            loc=race.loc,
            kind=race.kind.value,
            prev_task=race.prev_task,
            current_task=race.current_task,
            prev_name=race.prev_name,
            current_name=race.current_name,
            prev_site=prev_sites[i],
            current_site=site,
            certificate=certificates[i],
        ))
    return sited, witnesses


def render_witness_text(witness: RaceWitness) -> str:
    """Multi-line terminal rendering of one witness."""
    cert = witness.certificate
    prev = witness.prev_name or f"task {witness.prev_task}"
    cur = witness.current_name or f"task {witness.current_task}"
    lines = [
        f"witness {witness.witness_id}: {witness.kind} race on "
        f"{witness.loc!r}",
        f"  prev    = {prev} (tid {witness.prev_task})"
        + (f" at {witness.prev_site}" if witness.prev_site else ""),
        f"  current = {cur} (tid {witness.current_task})"
        + (f" at {witness.current_site}" if witness.current_site else ""),
    ]
    if not cert:
        lines.append("  (no certificate recorded)")
        return "\n".join(lines)
    a_label = cert.get("a_set", {}).get("label", {})
    b_label = cert.get("b_set", {}).get("label", {})
    lines.append(
        f"  PRECEDE({witness.prev_task}, {witness.current_task}) = "
        f"{cert.get('verdict')}"
    )
    lines.append(
        f"    set[{prev}]: rep {cert.get('a_set', {}).get('rep')}, "
        f"label {_fmt_label(a_label)}"
    )
    lines.append(
        f"    set[{cur}]: rep {cert.get('b_set', {}).get('rep')}, "
        f"label {_fmt_label(b_label)}"
    )
    level0 = cert.get("level0", {})
    negative = [
        k for k in ("same_task", "same_set", "interval_ancestor")
        if not level0.get(k)
    ]
    lines.append(
        "    ordering checks negative: " + (", ".join(negative) or "(none)")
    )
    search = cert.get("search")
    if search is None:
        reason = (
            "preorder prune" if level0.get("preorder_pruned")
            else "level-0"
        )
        lines.append(f"    resolved without search ({reason})")
    else:
        expanded = search.get("expanded", [])
        chain = search.get("lsa_chain", [])
        lines.append(
            f"    VISIT expanded {len(expanded)} set(s); "
            f"LSA chain {chain if chain else '[]'}; "
            f"frontier exhausted = {search.get('frontier_exhausted')}"
        )
        for rec in expanded:
            lines.append(
                f"      - set rep {rec.get('rep')} (via {rec.get('via')}): "
                f"nt -> {rec.get('nt_scanned')}"
            )
    lines.append(
        "    reverse direction: serial depth-first order places the "
        "current access after prev's access, so the pair is unordered"
    )
    return "\n".join(lines)


def _fmt_label(label: Dict[str, Any]) -> str:
    if not label:
        return "?"
    post = label.get("post")
    if not label.get("final", True):
        # Temporary postorders render as the distance from MAXID they
        # were drawn at, flagged with a tilde.
        post = f"~{MAXID - post}"
    return f"[{label.get('pre')}, {post}]"


def witness_report_data(
    witnesses: List[RaceWitness],
    *,
    program: Optional[str] = None,
    verified: Optional[bool] = None,
) -> Dict[str, Any]:
    """The ``repro.race-witness-report/1`` JSON document."""
    data: Dict[str, Any] = {
        "schema": WITNESS_REPORT_SCHEMA,
        "witnesses": [w.to_data() for w in witnesses],
    }
    if program is not None:
        data["program"] = program
    if verified is not None:
        data["verified"] = verified
    return data
