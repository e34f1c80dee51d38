"""Common surface shared by the baseline detectors.

Every baseline is an :class:`~repro.core.events.ExecutionObserver` exposing
the same result surface as the paper's detector — a
:class:`~repro.core.races.RaceReport` under ``.report`` — so harness code and
tests can swap detectors freely.  Baselines with a restricted model (SP-bags,
ESP-bags) raise
:class:`~repro.runtime.errors.UnsupportedConstructError` when the program
uses a construct outside it, which is itself part of the reproduction: the
paper's Section 1/6 argument is precisely that those algorithms cannot
express futures.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.events import ExecutionObserver
from repro.core.races import AccessKind, RaceReport, ReportPolicy
from repro.runtime.errors import RaceError

__all__ = ["BaselineDetector"]


class BaselineDetector(ExecutionObserver):
    """Shared reporting plumbing for the baseline detectors."""

    def __init__(
        self,
        policy: ReportPolicy | str = ReportPolicy.COLLECT,
        *,
        dedupe: bool = True,
    ) -> None:
        if isinstance(policy, str):
            policy = ReportPolicy(policy)
        self.policy = policy
        self.report = RaceReport(dedupe=dedupe)
        self._names: dict[int, str] = {}

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    def _remember_name(self, task) -> None:
        self._names[task.tid] = task.name

    def _report_race(
        self, kind: AccessKind, prev: int, cur: int, loc: Hashable
    ) -> None:
        race = self.report.record(loc, kind.value, prev, cur,
                                  self._names.get(prev, ""),
                                  self._names.get(cur, ""))
        if race is not None and self.policy is ReportPolicy.RAISE:
            raise RaceError(race)
