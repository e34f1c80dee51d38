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
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set

__all__ = ["AccessKind", "Race", "RaceReport", "ReportPolicy"]


class AccessKind(enum.Enum):
    """Conflict flavor, named prev-access/current-access."""

    READ_WRITE = "read-write"    #: earlier read vs current write
    WRITE_WRITE = "write-write"  #: earlier write vs current write
    WRITE_READ = "write-read"    #: earlier write vs current read

    def __str__(self) -> str:
        return self.value


class ReportPolicy(enum.Enum):
    """What to do when a race is found."""

    COLLECT = "collect"  #: record and keep executing (default; full reports)
    RAISE = "raise"      #: raise :class:`repro.runtime.errors.RaceError`


@dataclass(frozen=True)
class Race:
    """One detected determinacy race.

    ``prev_task``/``current_task`` are task ids; ``prev_name`` and
    ``current_name`` carry the human-readable task names for messages.

    The provenance fields are inert (``None``) as checkers report races:
    :func:`repro.obs.provenance.explain_races` returns copies with
    ``prev_site``/``current_site`` set to the two accesses' call-site
    labels and ``witness_id`` to the id of the matching
    :class:`~repro.obs.provenance.RaceWitness`.  They are excluded from
    equality and from :attr:`pair_key`, so race identity and
    deduplication are unchanged either way.
    """

    loc: Hashable
    kind: AccessKind
    prev_task: int
    current_task: int
    prev_name: str = ""
    current_name: str = ""
    prev_site: Optional[str] = field(default=None, compare=False)
    current_site: Optional[str] = field(default=None, compare=False)
    witness_id: Optional[str] = field(default=None, compare=False)

    def __str__(self) -> str:
        return (
            f"determinacy race ({self.kind}) on {self.loc!r}: "
            f"task {self.prev_name or self.prev_task} vs "
            f"task {self.current_name or self.current_task}"
        )

    @property
    def pair_key(self):
        """Deduplication key: location + unordered task pair + kind."""
        a, b = sorted((self.prev_task, self.current_task))
        return (self.loc, a, b, self.kind)


class RaceReport:
    """Accumulates detected races.

    With ``dedupe=True`` (default) repeated reports of the same
    (location, task pair, kind) triple are recorded once; the paper's
    algorithm can re-report e.g. a racing reader that stays in the shadow
    reader set (Algorithm 8 removes a reader only when it precedes the
    writer).
    """

    def __init__(self, dedupe: bool = True) -> None:
        self.races: List[Race] = []
        self._dedupe = dedupe
        self._seen: Set[tuple] = set()
        self._racy_locations: Set[Hashable] = set()

    def add(self, race: Race) -> bool:
        """Record ``race``; returns False if suppressed as a duplicate."""
        self._racy_locations.add(race.loc)
        if self._dedupe:
            key = race.pair_key
            if key in self._seen:
                return False
            self._seen.add(key)
        self.races.append(race)
        return True

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

        Rendering order is deterministic — races are stable-sorted by
        (location, task pair, kind) — so downstream consumers hashing the
        text (fuzz triage signatures, CI logs) never depend on shadow-cell
        dict order.  Iteration over the report itself stays in insertion
        (detection) order.
        """
        if not self.races:
            return "no determinacy races detected"
        ordered = sorted(
            self.races,
            key=lambda r: (repr(r.loc),) + r.pair_key[1:3] + (r.kind.value,),
        )
        lines = [f"{len(self.races)} determinacy race(s) detected:"]
        for race in ordered:
            lines.append(f"  - {race}")
            if race.prev_site or race.current_site:
                lines.append(
                    f"      prev access at {race.prev_site or '<unknown>'}; "
                    f"current access at {race.current_site or '<unknown>'}"
                )
        return "\n".join(lines)
