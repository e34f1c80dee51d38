"""Race records and reporting policies.

Definition 3 (Section 3): a data race may occur between steps ``u`` and ``v``
iff both access a common memory location, at least one is a write, and
``u ∥ v`` (neither precedes the other in the computation graph).  Because the
programming model is restricted to async/finish/future, data races are
*determinacy* races: a race-free program is guaranteed functionally and
structurally deterministic (Appendix A.3), so each report is a genuine
potential source of nondeterminism.

The detector reports races at task granularity (the DTRG stores no steps):
each :class:`Race` names the location, the two tasks, and the access kinds.
Theorem 2 guarantees a race is reported on a location iff that location is
racy, so the per-location verdict — what the test oracle checks — is exact
even though the specific step pair is not retained.
"""

from __future__ import annotations

import enum
from typing import Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

__all__ = ["AccessKind", "Race", "RaceReport", "ReportPolicy", "report_order"]


class AccessKind(enum.Enum):
    """Conflict flavor, named prev-access/current-access."""

    READ_WRITE = "read-write"    #: earlier read vs current write
    WRITE_WRITE = "write-write"  #: earlier write vs current write
    WRITE_READ = "write-read"    #: earlier write vs current read

    def __str__(self) -> str:
        return self.value


#: Kind value -> :class:`AccessKind`: the one map every checker reports
#: through (:meth:`RaceReport.record` takes the value string).
_KIND = {kind.value: kind for kind in AccessKind}


class ReportPolicy(enum.Enum):
    """What to do when a race is found."""

    COLLECT = "collect"  #: record and keep executing (default; full reports)
    RAISE = "raise"      #: raise :class:`repro.runtime.errors.RaceError`


class Race(NamedTuple):
    """One detected determinacy race: an immutable record that costs about
    as much as a tuple to build.

    ``prev_task``/``current_task`` are task ids; ``prev_name`` and
    ``current_name`` carry the human-readable task names for messages.

    The provenance fields are inert (``None``) as checkers report races:
    :func:`repro.obs.provenance.explain_races` returns copies (``_replace``)
    with ``prev_site``/``current_site`` set to the two accesses' call-site
    labels and ``witness_id`` to the id of the matching
    :class:`~repro.obs.provenance.RaceWitness`.  Equality and hash cover
    the first six fields only, and :attr:`pair_key` ignores the sites, so
    race identity and deduplication are unchanged either way.  A race
    never equals a plain tuple.
    """

    loc: Hashable
    kind: AccessKind
    prev_task: int
    current_task: int
    prev_name: str = ""
    current_name: str = ""
    prev_site: Optional[str] = None
    current_site: Optional[str] = None
    witness_id: Optional[str] = None

    def __eq__(self, other: object) -> bool:
        return type(other) is Race and self[:6] == other[:6]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:6])

    def __str__(self) -> str:
        return _text(self, repr(self.loc))

    @property
    def pair_key(self):
        """Deduplication key: location + unordered task pair + kind."""
        a, b = sorted((self.prev_task, self.current_task))
        return (self.loc, a, b, self.kind)


def _text(race: Race, loc_repr: str) -> str:
    # kind._value_, not f"{kind}" or kind.value: both are Python-level
    # Enum detours, and summary() renders one line per race.
    return (
        f"determinacy race ({race.kind._value_}) on {loc_repr}: "
        f"task {race.prev_name or race.prev_task} vs "
        f"task {race.current_name or race.current_task}"
    )


def report_order(races: Sequence[Race]) -> List[Tuple[str, Race]]:
    """``(repr(loc), race)`` pairs in report order: a stable sort by
    (location repr, unordered task pair, kind value), with ``repr``
    computed once per location.  Every rendering of a race list uses it."""
    reprs: dict = {}
    keyed = []
    for i, race in enumerate(races):
        loc, kind, a, b = race[:4]
        text = reprs.get(loc)
        if text is None:
            text = reprs[loc] = repr(loc)
        # The index breaks ties, so the sort is stable and never
        # compares two races.
        keyed.append((text, a, b, kind._value_, i) if a <= b
                     else (text, b, a, kind._value_, i))
    keyed.sort()
    return [(key[0], races[key[4]]) for key in keyed]


class RaceReport:
    """Accumulates detected races.

    With ``dedupe=True`` (default) repeated reports of the same
    (location, task pair, kind) triple are recorded once; the paper's
    algorithm can re-report e.g. a racing reader that stays in the shadow
    reader set (Algorithm 8 removes a reader only when it precedes the
    writer).

    Checkers report through :meth:`record`, which tests the dedupe key
    before building anything, so a duplicate costs one hashed tuple of
    ints and strings and only an accepted race builds a :class:`Race`.
    """

    def __init__(self, dedupe: bool = True) -> None:
        self.races: List[Race] = []
        self._dedupe = dedupe
        self._seen: Set[tuple] = set()
        self._racy_locations: Set[Hashable] = set()

    def _admit(self, loc: Hashable, kind: str, prev: int, cur: int) -> bool:
        # The dedupe key (loc, min tid, max tid, kind value) is pair_key
        # with the kind's value for the kind: the same equivalence
        # classes, and no Enum.__hash__ on the way.
        self._racy_locations.add(loc)
        if not self._dedupe:
            return True
        seen = self._seen
        size = len(seen)
        seen.add((loc, prev, cur, kind) if prev < cur
                 else (loc, cur, prev, kind))
        return len(seen) != size

    def record(
        self,
        loc: Hashable,
        kind: str,
        prev: int,
        cur: int,
        prev_name: str = "",
        current_name: str = "",
    ) -> Optional[Race]:
        """Report a race of kind value ``kind`` (``"read-write"``,
        ``"write-write"`` or ``"write-read"``) between tasks ``prev`` and
        ``cur`` on ``loc``.  Returns the new :class:`Race`, or ``None``
        when it is suppressed as a duplicate (nothing is built then)."""
        if not self._admit(loc, kind, prev, cur):
            return None
        race = Race(loc, _KIND[kind], prev, cur, prev_name, current_name)
        self.races.append(race)
        return race

    def add(self, race: Race) -> bool:
        """Record a built ``race``; returns False if suppressed as a
        duplicate.  Same key as :meth:`record`."""
        if not self._admit(race.loc, race.kind.value, race.prev_task,
                           race.current_task):
            return False
        self.races.append(race)
        return True

    @classmethod
    def concat(cls, reports: List["RaceReport"],
               races: List[Race]) -> "RaceReport":
        """One report over ``reports``, which cover disjoint locations,
        holding ``races`` (theirs, in the caller's order) as they are.
        The dedupe key includes the location, so no race of one report
        can duplicate one of another's: nothing is tested again."""
        merged = cls(dedupe=reports[0]._dedupe)
        for part in reports:
            merged._seen |= part._seen
            merged._racy_locations |= part._racy_locations
        merged.races = races
        return merged

    @property
    def racy_locations(self) -> Set[Hashable]:
        """The set of locations with at least one reported race — the
        quantity Theorem 2 makes exact, used for oracle comparison."""
        return set(self._racy_locations)

    @property
    def has_races(self) -> bool:
        return bool(self.races)

    def __len__(self) -> int:
        return len(self.races)

    def __iter__(self):
        return iter(self.races)

    def summary(self) -> str:
        """Multi-line human-readable summary.

        Rendering order is deterministic — :func:`report_order`, a stable
        sort by (location, task pair, kind) — so downstream consumers
        hashing the text (fuzz triage signatures, CI logs) never depend on
        shadow-cell dict order.  Iteration over the report itself stays in
        insertion (detection) order.
        """
        if not self.races:
            return "no determinacy races detected"
        lines = [f"{len(self.races)} determinacy race(s) detected:"]
        for loc_repr, race in report_order(self.races):
            lines.append("  - " + _text(race, loc_repr))
            if race.prev_site or race.current_site:
                lines.append(
                    f"      prev access at {race.prev_site or '<unknown>'}; "
                    f"current access at {race.current_site or '<unknown>'}"
                )
        return "\n".join(lines)
