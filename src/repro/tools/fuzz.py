"""``repro-fuzz`` — differential fuzzing across every race detector.

Theorem 2 claims the DTRG detector is sound and precise; the baselines
claim exactness within (and honest refusal outside) their own models; the
trace recorder claims replay is observationally identical to a live run.
This tool attacks all three claims mechanically, the way Utterback et al.
and the DePa authors keep their detectors honest — by generating programs
and diffing every implementation against the brute-force oracle:

    repro-fuzz --seeds 0:500                 # fuzz seed range
    repro-fuzz --seeds 0:500 --mode wild     # robustness only
    repro-fuzz --replay-corpus tests/corpus  # replay checked-in repros
    repro-fuzz --seeds 0:50 --perfetto t.json --metrics-json m.json

Per seed, :func:`~repro.testing.generator.random_program` yields a program
which is checked in up to two modes:

* **scoped** (the language's reference-flow discipline): every general
  detector (dtrg, vector-clock) *and* every DTRG ablation
  (``dtrg[no-lsa]``, ``dtrg[no-memo]``, ``dtrg[no-intervals]`` — the
  kernel over ``AblatedArrayDTRG``, the same graph with an optimization
  switched off, which must never change a verdict) must report exactly the oracle's racy locations; every
  restricted detector (spd3, espbags, spbags, offset-span) must either
  refuse with ``UnsupportedConstructError`` or agree; the general
  PRECEDE backend ``vc`` (docs/ALGORITHM.md §14) runs as a parity row
  that must always agree, so by transitivity it agrees with the dtrg;
  and each completed run must round-trip through
  :class:`~repro.memory.tracer.TraceRecorder`/:func:`replay_trace` with an
  identical verdict (record-replay parity).  A ``policy="raise"`` dtrg
  run must stop at the default run's first race (``RAISE`` leg).  The
  recorded trace's columns are then broken once per :data:`MUTATIONS`
  kind (malformed-trace leg): each mutant must raise
  ``TraceFormatError`` or, when it is still a valid trace, check as the
  oracle does on its decoded events.
* **wild** (out-of-band handle registry, outside the model's guarantee):
  nothing may crash, and the vector-clock detector — whose access stamps
  need no reference-flow assumption — must still match the oracle.  dtrg
  and ``vc`` verdicts are *not* compared here; their task-granularity
  false positives/negatives are documented behavior (DESIGN.md
  deviation #4).

Failures are triaged by deduplicated signature, minimized with the
hypothesis-free ddmin shrinker (:mod:`repro.testing.shrinker`), printed as
pretty programs, and optionally written as regression-corpus JSON entries
(:mod:`repro.testing.codec`) for ``tests/corpus/``.  When a minimized
scoped repro is racy under the DTRG detector, triage reruns it with race
provenance enabled and prints a compact witness line per race (the
non-ordering certificate from ``explain_races``); with ``--corpus-dir``
the full ``repro.race-witness-report/1`` JSON is written next to the
corpus entry as ``<name>.witness.json``.

Exit status: 0 = no failures, 1 = at least one failure, 2 = bad usage.
"""

from __future__ import annotations

import argparse
import builtins
import copy
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.events import (
    FinishEndEvent,
    FinishStartEvent,
    TaskCreateEvent,
    TaskEndEvent,
    OP_FINISH_START,
    OP_GET,
    OP_TASK_CREATE,
    OP_TASK_END,
    RUN_STRUCTURE,
    EncodedTrace,
    TraceFormatError,
    _decode,
    encode_trace,
)
from repro.core.fastcheck import check_trace_fast
from repro.harness.report import render_kv, render_table
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.errors import RaceError, UnsupportedConstructError
from repro.testing.codec import (
    CorpusEntry,
    entry_to_data,
    entry_from_data,
)
from repro.core.parallel_detector import ParallelRaceDetector
from repro.testing.generator import (
    Program,
    count_stmts,
    random_program,
    run_program,
    run_program_asyncio,
    run_program_threads,
    run_program_values,
)
from repro.testing.shrinker import shrink_program
from repro.tools.racecheck import DETECTORS

__all__ = [
    "FuzzFailure",
    "FuzzStats",
    "check_seed",
    "fuzz_range",
    "mutate_columns",
    "replay_corpus",
    "main",
]

ORACLE = "brute-force"
#: Detectors whose model covers every generated program.
GENERAL = ("dtrg", "vector-clock")
#: Detectors that must refuse-or-agree (restricted models).
RESTRICTED = ("spd3", "espbags", "spbags", "offset-span")
#: DTRG ablations (optimizations off).  Theorem 2 makes no reference to
#: the LSA chain, VISIT memoization or interval labels — they are pure
#: accelerations, so every ablation must agree with the oracle on every
#: scoped program (and with the full dtrg via transitivity).  Fuzzed here
#: and by the corpus replay gate so an optimization bug that changes a
#: verdict cannot hide behind the default configuration.
ABLATIONS = {
    "dtrg[no-lsa]": dict(use_lsa=False),
    "dtrg[no-memo]": dict(memoize_visit=False),
    "dtrg[no-intervals]": dict(use_intervals=False),
}
#: Alternative PRECEDE backends behind ``DeterminacyRaceDetector(engine=…)``
#: (docs/ALGORITHM.md §14).  ``vc`` is general — future-aware vector clocks
#: must report exactly the oracle's racy set on every scoped program (and
#: match the dtrg row by transitivity).  The row also runs in wild mode.
BACKENDS = {
    "vc": dict(engine="vc"),
}
#: Detectors exercised in wild mode (anything that raises is a crash).
WILD = (ORACLE,) + GENERAL + tuple(BACKENDS)
#: Stats row for the two-phase sharded checker (``--jobs N``, N > 1):
#: per scoped seed it re-checks the recorded trace at jobs ∈ {1, N} and
#: must reproduce the sequential dtrg racy set *and* byte-identical
#: ``RaceReport.summary()`` text at every job count.
PARALLEL_NAME = "dtrg[parallel]"
#: Stats row of the malformed-trace leg (every scoped seed): each
#: :data:`MUTATIONS` kind breaks a copy of the recorded columns once, and
#: ``check_trace_fast`` must raise ``TraceFormatError`` (a refusal) or,
#: if the mutant is still a valid trace, report the oracle's racy set on
#: its decoded events.  Any other exception is a crash.
MALFORMED_NAME = "trace[malformed]"
#: Stats row of the ``RAISE`` leg (every scoped seed): a live
#: ``policy="raise"`` dtrg run must raise ``RaceError`` iff the default
#: ``COLLECT`` run reports a race, and raise exactly that run's first race.
#: ``RAISE`` resumes the kernel at every access block and ``COLLECT`` in
#: batches (docs/ALGORITHM.md §13.4), so the leg diffs the two resume rules.
RAISE_NAME = "dtrg[raise]"
#: A structure tuple dropped, duplicated or swapped with the next; a task
#: id in a structure tuple or a location id in an access row put out of
#: range; the last access rows truncated.
MUTATIONS = ("drop", "duplicate", "swap", "task-id", "loc-id", "truncate")
#: Runtime-parity rows (``--runtimes``, PR 8): the same scoped program is
#: *executed for real* on every substrate — the serial elision, the
#: work-stealing ThreadRuntime at several pool sizes, and the cooperative
#: AsyncioRuntime — each with a fresh
#: :class:`~repro.core.parallel_detector.ParallelRaceDetector` checking
#: online.  Every row must report exactly the oracle's racy-location set,
#: and on race-free programs every row's final memory (statement-path
#: write tokens — each DSL statement executes exactly once, so the final
#: tokens are a schedule-independent fingerprint) must equal the serial
#: elision's.  Scoped mode only: wild-registry publication order is racy
#: by construction, so cross-schedule comparison is meaningless there.
RUNTIME_WORKERS = (1, 2, 4)
RUNTIME_SERIAL = "runtime[serial]"
RUNTIME_ROWS = tuple(
    f"runtime[threads-{w}]" for w in RUNTIME_WORKERS
) + ("runtime[asyncio]",)


def _make_detector(name: str, obs=None):
    """Instantiate a detector by registry, ablation or backend name."""
    options = ABLATIONS.get(name) or BACKENDS.get(name)
    if options is not None:
        from repro.core.detector import DeterminacyRaceDetector

        return DeterminacyRaceDetector(obs=obs, **options)
    if name == "dtrg":
        return DETECTORS[name](obs=obs)
    return DETECTORS[name]()


@dataclass
class FuzzFailure:
    """One triaged divergence/crash, with its minimized reproducer."""

    seed: int
    mode: str            #: "scoped" | "wild"
    kind: str            #: "divergence" | "replay-divergence" | "crash"
    detector: str
    signature: str       #: dedup key (mode/kind/detector/direction)
    detail: str
    program: Program
    minimized: Optional[Program] = None

    @property
    def repro(self) -> Program:
        return self.minimized if self.minimized is not None else self.program


@dataclass
class FuzzStats:
    """Aggregated run statistics (the fuzz harness's summary surface)."""

    seeds: int = 0
    programs: int = 0
    statements: int = 0
    events: int = 0
    failures: int = 0
    per_detector: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def tally(self, detector: str, key: str, amount: int = 1) -> None:
        row = self.per_detector.setdefault(
            detector,
            {"runs": 0, "refusals": 0, "racy": 0,
             "divergences": 0, "replay_mismatches": 0, "crashes": 0},
        )
        row[key] += amount

    def detector_rows(self) -> List[Dict[str, object]]:
        order = (
            (ORACLE,) + GENERAL + RESTRICTED + tuple(ABLATIONS)
            + tuple(BACKENDS) + (RAISE_NAME, PARALLEL_NAME, MALFORMED_NAME,
                                 RUNTIME_SERIAL)
            + RUNTIME_ROWS
        )
        rows = []
        for name in order:
            row = self.per_detector.get(name)
            if row is None:
                continue
            rows.append({"detector": name, **row})
        return rows

    def summary(self) -> Dict[str, object]:
        return {
            "seeds": self.seeds,
            "programs run": self.programs,
            "statements": self.statements,
            "events replayed": self.events,
            "failures": self.failures,
        }


def _verdict(det) -> Set[Tuple[str, int]]:
    return set(det.racy_locations)


def _run_live(
    name: str, program: Program, *, scoped: bool, record=False, obs=None
):
    """One fresh execution with one detector; returns (detector, trace).

    ``name`` may be a registry detector or an :data:`ABLATIONS` key; an
    enabled ``obs`` instruments both the detector (the kernel behind the
    ``dtrg`` row; the ablation and ``vc`` rows refuse it) and the
    runtime's task/finish spans.
    """
    det = _make_detector(name, obs=obs)
    observers: List = [det]
    recorder = TraceRecorder() if record else None
    if recorder is not None:
        observers.append(recorder)
    run_program(program, observers, scoped_handles=scoped, obs=obs)
    return det, (recorder.trace if recorder is not None else None)


def _raise_mismatch(program: Program, collected) -> Optional[str]:
    """``None`` if a ``policy="raise"`` dtrg run of ``program`` stops at
    ``collected``'s first race (or runs through when it has none), else
    what it did instead (see :data:`RAISE_NAME`)."""
    want = collected.races[0] if collected.races else None
    try:
        run_program(program, [DETECTORS["dtrg"](policy="raise")],
                    scoped_handles=True)
    except RaceError as exc:
        if exc.race == want:
            return None
        return f"raised {exc.race} but the COLLECT run's first race is {want}"
    if want is None:
        return None
    return f"raised nothing but the COLLECT run's first race is {want}"


def _raise_predicate(candidate: Program) -> bool:
    """Reproduction check for a ``RAISE``-leg divergence or crash."""
    try:
        collected, _ = _run_live("dtrg", candidate, scoped=True)
        return _raise_mismatch(candidate, collected) is not None
    except UnsupportedConstructError:
        return False
    except Exception:
        return True


def _run_runtime(name: str, program: Program, seed: int = 0):
    """Execute ``program`` on the named substrate with a fresh
    :class:`ParallelRaceDetector` and statement-path write tokens.
    Returns ``(racy-location verdict, final memory fingerprint)``."""
    det = ParallelRaceDetector()
    if name == RUNTIME_SERIAL:
        _rt, mem = run_program_values(program, [det])
    elif name == "runtime[asyncio]":
        _rt, mem = run_program_asyncio(program, [det])
    else:
        workers = int(name.rsplit("-", 1)[-1].rstrip("]"))
        _rt, mem = run_program_threads(
            program, [det], workers=workers, steal_seed=seed
        )
    return _verdict(det), mem


def _triage_witnesses(program: Program) -> list:
    """Rerun ``program`` (scoped) with race provenance and a trace
    recorder, and explain the DTRG detector's races from the trace.

    Returns the witnesses — empty when the repro is not racy under dtrg
    or does not complete (divergence repros may crash; the triage layer
    must never turn a reported failure into a new one).
    """
    from repro.core.detector import DeterminacyRaceDetector
    from repro.obs import RaceProvenance, explain_races

    provenance = RaceProvenance()
    recorder = TraceRecorder(provenance)
    det = DeterminacyRaceDetector()
    try:
        run_program(program, [recorder, det], scoped_handles=True,
                    provenance=provenance)
    except Exception:
        return []
    return explain_races(recorder.trace, det.races, det.race_rows)[1]


def _witness_line(witness) -> str:
    """One-line triage summary of a witness certificate."""
    cert = witness.certificate or {}
    level0 = cert.get("level0", {})
    search = cert.get("search")
    if search is not None:
        how = (f"VISIT exhausted after {len(search.get('expanded', []))} "
               f"set(s), LSA chain {search.get('lsa_chain', [])}")
    elif level0.get("preorder_pruned"):
        how = "preorder prune"
    else:
        how = "level-0"
    return (f"{witness.witness_id}: {witness.kind} on {witness.loc!r} "
            f"({witness.prev_name} vs {witness.current_name}; "
            f"PRECEDE false via {how})")


def _diff_direction(got: Set, want: Set) -> str:
    extra, missing = got - want, want - got
    if extra and missing:
        return "mixed"
    return "extra" if extra else "missing"


def _divergence_predicate(
    name: str, scoped: bool
) -> Callable[[Program], bool]:
    """Reproduction check for a verdict divergence (used by the shrinker)."""

    def holds(candidate: Program) -> bool:
        try:
            det, _ = _run_live(name, candidate, scoped=scoped)
            oracle, _ = _run_live(ORACLE, candidate, scoped=scoped)
        except UnsupportedConstructError:
            return False
        return _verdict(det) != _verdict(oracle)

    return holds


def _replay_predicate(name: str, scoped: bool) -> Callable[[Program], bool]:
    def holds(candidate: Program) -> bool:
        try:
            live, trace = _run_live(name, candidate, scoped=scoped, record=True)
            replayed = DETECTORS[name]()
            replay_trace(trace, [replayed])
        except UnsupportedConstructError:
            return False
        return _verdict(live) != _verdict(replayed)

    return holds


def _parallel_predicate(jobs: int) -> Callable[[Program], bool]:
    """Reproduction check for a sequential/parallel checker divergence."""

    def holds(candidate: Program) -> bool:
        from repro.core.parallel_check import check_trace_parallel

        try:
            live, trace = _run_live(
                "dtrg", candidate, scoped=True, record=True
            )
            sequential = DETECTORS["dtrg"]()
            replay_trace(trace, [sequential])
            result = check_trace_parallel(trace, jobs=jobs, backend="inline")
        except Exception:
            return False
        return (set(result.racy_locations) != _verdict(live)
                or result.summary() != sequential.report.summary())

    return holds


def _runtime_divergence_predicate(
    name: str, seed: int
) -> Callable[[Program], bool]:
    """Reproduction check for a runtime-parity verdict divergence."""

    def holds(candidate: Program) -> bool:
        try:
            oracle, _ = _run_live(ORACLE, candidate, scoped=True)
            got, _mem = _run_runtime(name, candidate, seed)
        except Exception:
            return False
        return got != _verdict(oracle)

    return holds


def _crash_predicate(
    name: str, exc_type: type, scoped: bool
) -> Callable[[Program], bool]:
    def holds(candidate: Program) -> bool:
        try:
            _run_live(name, candidate, scoped=scoped)
        except exc_type:
            return True
        except Exception:
            return False
        return False

    return holds



def _run_of(runs, k: int) -> int:
    """Offset of the structure run holding structure tuple ``k``."""
    for ri in range(0, len(runs), 2):
        if runs[ri] == RUN_STRUCTURE:
            if k < runs[ri + 1]:
                return ri
            k -= runs[ri + 1]
    raise IndexError(k)


#: Task-id fields of each structure opcode (tuple positions).
_TASK_FIELDS = {OP_TASK_CREATE: (1,), OP_TASK_END: (1,), OP_GET: (1, 2),
                OP_FINISH_START: (2,)}


def mutate_columns(enc: EncodedTrace, kind: str,
                   rng: random.Random) -> Optional[EncodedTrace]:
    """A copy of ``enc`` (without sites) with one ``kind`` mutation (see
    :data:`MUTATIONS`), or ``None`` when ``enc`` has nothing to mutate
    that way.  A dropped or duplicated tuple's run count follows it, so
    only the running-task and scope checks can tell."""
    enc = copy.deepcopy(enc)
    enc.access_sites = None
    acc, structure, runs = enc.access, enc.structure, enc.runs
    if kind in ("drop", "duplicate", "swap"):
        if len(structure) < (2 if kind == "swap" else 1):
            return None
        k = rng.randrange(len(structure) - (kind == "swap"))
        if kind == "swap":
            structure[k], structure[k + 1] = structure[k + 1], structure[k]
        elif kind == "drop":
            del structure[k]
            runs[_run_of(runs, k) + 1] -= 1
        else:
            ri = _run_of(runs, k)
            structure.insert(k, structure[k])
            runs[ri + 1] += 1
    elif kind == "task-id":
        ks = [k for k, t in enumerate(structure) if t[0] in _TASK_FIELDS]
        if not ks:
            return None
        k = rng.choice(ks)
        t = list(structure[k])
        t[rng.choice(_TASK_FIELDS[t[0]])] = (
            enc.num_tasks + rng.randrange(10 ** 6))
        structure[k] = tuple(t)
    elif kind == "loc-id":
        if not acc:
            return None
        r = rng.randrange(len(acc))
        acc[r] = (enc.num_locations + rng.randrange(1000)) << 1 | acc[r] & 1
    elif kind == "truncate":
        if not acc:
            return None
        del acc[len(acc) - rng.randint(1, min(len(acc), 4)):]
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return enc


def _closed(events: list) -> list:
    """``events`` with the tasks and finish scopes it leaves open closed,
    innermost first.  A trace may end with both open, as an aborted
    run's does; the checkers accept that, and closing them adds no
    access, so it changes no verdict, but the oracle needs whole runs."""
    open_items: list = []
    for e in events:
        if isinstance(e, TaskCreateEvent):
            open_items.append(TaskEndEvent(e.child))
        elif isinstance(e, FinishStartEvent):
            open_items.append(FinishEndEvent(e.fid))
        elif isinstance(e, (TaskEndEvent, FinishEndEvent)):
            open_items.pop()
    return events + open_items[::-1]


def _check_mutants(seed: int, trace, stats: "FuzzStats", fail) -> None:
    """The malformed-trace leg of one scoped seed (see
    :data:`MALFORMED_NAME`)."""
    rng = random.Random(seed)
    enc = encode_trace(trace)
    for kind in MUTATIONS:
        mutant = mutate_columns(enc, kind, rng)
        if mutant is None:
            continue
        stats.tally(MALFORMED_NAME, "runs")
        try:
            got = set(check_trace_fast(mutant).racy_locations)
        except TraceFormatError:
            stats.tally(MALFORMED_NAME, "refusals")
            continue
        except Exception as exc:
            stats.tally(MALFORMED_NAME, "crashes")
            fail("scoped", "crash", MALFORMED_NAME,
                 f"scoped:malformed-crash:{kind}:{type(exc).__name__}",
                 f"{kind} mutant raised {type(exc).__name__}: {exc}")
            continue
        try:
            oracle = DETECTORS[ORACLE]()
            replay_trace(_closed(list(_decode(mutant))), [oracle])
            want = _verdict(oracle)
        except Exception as exc:
            stats.tally(MALFORMED_NAME, "crashes")
            fail("scoped", "crash", MALFORMED_NAME,
                 f"scoped:malformed-decode:{kind}:{type(exc).__name__}",
                 f"{kind} mutant checked, but decoding or the oracle "
                 f"raised {type(exc).__name__}: {exc}")
            continue
        if got:
            stats.tally(MALFORMED_NAME, "racy")
        if got != want:
            stats.tally(MALFORMED_NAME, "divergences")
            fail("scoped", "divergence", MALFORMED_NAME,
                 f"scoped:malformed:{kind}:{_diff_direction(got, want)}",
                 f"{kind} mutant {sorted(got, key=repr)} vs oracle "
                 f"{sorted(want, key=repr)}")


def check_seed(
    seed: int,
    program: Program,
    *,
    modes: Sequence[str] = ("scoped", "wild"),
    stats: Optional[FuzzStats] = None,
    obs=None,
    jobs: int = 1,
    runtimes: bool = False,
) -> List[FuzzFailure]:
    """Differentially check one program; returns un-shrunk failures.

    ``obs`` (an :class:`repro.obs.Observability`) instruments the scoped
    ``dtrg`` run only — one detector's trace per seed keeps the event
    stream readable, and verdict comparisons are obs-independent.

    ``jobs`` > 1 adds a parallel-parity leg per scoped seed: the recorded
    trace is re-checked by the two-phase sharded checker
    (:func:`repro.core.parallel_check.check_trace_parallel`, in-process
    shards) at jobs ∈ {1, ``jobs``}, and any deviation from the live dtrg
    racy set or from the sequential replay's ``summary()`` text is a
    ``parallel-divergence`` failure.

    ``runtimes`` adds the :data:`RUNTIME_ROWS` parity legs per scoped
    seed: real execution on the serial elision, ThreadRuntime at
    {1, 2, 4} workers and AsyncioRuntime, each under a fresh online
    ``ParallelRaceDetector`` — racy sets must match the oracle, and
    race-free final memory must match the serial elision's.
    """
    stats = stats if stats is not None else FuzzStats()
    failures: List[FuzzFailure] = []

    def fail(mode, kind, detector, signature, detail) -> None:
        failures.append(FuzzFailure(
            seed=seed, mode=mode, kind=kind, detector=detector,
            signature=signature, detail=detail, program=program,
        ))
        stats.failures += 1

    if "scoped" in modes:
        oracle, trace = _run_live(ORACLE, program, scoped=True, record=True)
        want = _verdict(oracle)
        stats.tally(ORACLE, "runs")
        if want:
            stats.tally(ORACLE, "racy")
        stats.events += len(trace)

        replayed_oracle = DETECTORS[ORACLE]()
        replay_trace(trace, [replayed_oracle])
        if _verdict(replayed_oracle) != want:
            stats.tally(ORACLE, "replay_mismatches")
            fail("scoped", "replay-divergence", ORACLE,
                 f"scoped:replay:{ORACLE}",
                 f"live {sorted(want, key=repr)} vs replay "
                 f"{sorted(_verdict(replayed_oracle), key=repr)}")
        _check_mutants(seed, trace, stats, fail)

        for name in GENERAL + RESTRICTED + tuple(ABLATIONS) + tuple(BACKENDS):
            try:
                det, _ = _run_live(
                    name, program, scoped=True,
                    obs=obs if name == "dtrg" else None,
                )
            except UnsupportedConstructError:
                stats.tally(name, "runs")
                stats.tally(name, "refusals")
                continue
            except Exception as exc:
                stats.tally(name, "runs")
                stats.tally(name, "crashes")
                fail("scoped", "crash", name,
                     f"scoped:crash:{name}:{type(exc).__name__}",
                     f"{type(exc).__name__}: {exc}")
                continue
            stats.tally(name, "runs")
            got = _verdict(det)
            if got:
                stats.tally(name, "racy")
            if got != want:
                stats.tally(name, "divergences")
                direction = _diff_direction(got, want)
                fail("scoped", "divergence", name,
                     f"scoped:divergence:{name}:{direction}",
                     f"{name} {sorted(got, key=repr)} vs oracle "
                     f"{sorted(want, key=repr)}")
            # Record-replay parity for this detector.
            replayed = _make_detector(name)
            try:
                replay_trace(trace, [replayed])
            except UnsupportedConstructError:
                stats.tally(name, "replay_mismatches")
                fail("scoped", "replay-divergence", name,
                     f"scoped:replay-refusal:{name}",
                     "completed live but refused the recorded trace")
                continue
            if _verdict(replayed) != got:
                stats.tally(name, "replay_mismatches")
                fail("scoped", "replay-divergence", name,
                     f"scoped:replay:{name}",
                     f"live {sorted(got, key=repr)} vs replay "
                     f"{sorted(_verdict(replayed), key=repr)}")
            if name == "dtrg":
                stats.tally(RAISE_NAME, "runs")
                try:
                    # An enabled obs makes the dtrg run resume per block
                    # too; the leg compares against a batched run.
                    collected = det if obs is None else _run_live(
                        "dtrg", program, scoped=True)[0]
                    mismatch = _raise_mismatch(program, collected)
                except Exception as exc:
                    stats.tally(RAISE_NAME, "crashes")
                    fail("scoped", "crash", RAISE_NAME,
                         f"scoped:crash:{RAISE_NAME}:{type(exc).__name__}",
                         f"{type(exc).__name__}: {exc}")
                else:
                    if got:
                        stats.tally(RAISE_NAME, "racy")
                    if mismatch is not None:
                        stats.tally(RAISE_NAME, "divergences")
                        fail("scoped", "divergence", RAISE_NAME,
                             f"scoped:divergence:{RAISE_NAME}", mismatch)
            if name == "dtrg" and jobs > 1:
                from repro.core.parallel_check import check_trace_parallel

                seq_summary = replayed.report.summary()
                for n in (1, jobs):
                    stats.tally(PARALLEL_NAME, "runs")
                    try:
                        # Pinned inline: the auto backend would check
                        # these small traces as one unsplit shard.
                        result = check_trace_parallel(
                            trace, jobs=n, backend="inline"
                        )
                    except Exception as exc:
                        stats.tally(PARALLEL_NAME, "crashes")
                        fail("scoped", "crash", PARALLEL_NAME,
                             f"scoped:parallel-crash:{type(exc).__name__}",
                             f"jobs={n} raised "
                             f"{type(exc).__name__}: {exc}")
                        continue
                    par = set(result.racy_locations)
                    if par:
                        stats.tally(PARALLEL_NAME, "racy")
                    if par != got or result.summary() != seq_summary:
                        stats.tally(PARALLEL_NAME, "divergences")
                        fail("scoped", "parallel-divergence", PARALLEL_NAME,
                             f"scoped:parallel:{n}",
                             f"jobs={n} {sorted(par, key=repr)} vs dtrg "
                             f"{sorted(got, key=repr)} "
                             f"(summary match: "
                             f"{result.summary() == seq_summary})")

        if runtimes:
            serial_mem = None
            for name in (RUNTIME_SERIAL,) + RUNTIME_ROWS:
                stats.tally(name, "runs")
                try:
                    got, mem = _run_runtime(name, program, seed)
                except Exception as exc:
                    stats.tally(name, "crashes")
                    fail("scoped", "crash", name,
                         f"scoped:crash:{name}:{type(exc).__name__}",
                         f"{type(exc).__name__}: {exc}")
                    continue
                if got:
                    stats.tally(name, "racy")
                if got != want:
                    stats.tally(name, "divergences")
                    direction = _diff_direction(got, want)
                    fail("scoped", "divergence", name,
                         f"scoped:divergence:{name}:{direction}",
                         f"{name} {sorted(got, key=repr)} vs oracle "
                         f"{sorted(want, key=repr)}")
                if name == RUNTIME_SERIAL:
                    serial_mem = mem
                elif not want and serial_mem is not None and mem != serial_mem:
                    stats.tally(name, "divergences")
                    fail("scoped", "memory-divergence", name,
                         f"scoped:runtime-mem:{name}",
                         f"{name} final memory diverged from the serial "
                         "elision on a race-free program (Determinism "
                         "Property violated)")

    if "wild" in modes:
        verdicts: Dict[str, Set] = {}
        for name in WILD:
            try:
                det, wild_trace = _run_live(
                    name, program, scoped=False, record=True
                )
            except Exception as exc:
                stats.tally(name, "runs")
                stats.tally(name, "crashes")
                fail("wild", "crash", name,
                     f"wild:crash:{name}:{type(exc).__name__}",
                     f"{type(exc).__name__}: {exc}")
                continue
            stats.tally(name, "runs")
            verdicts[name] = _verdict(det)
            if verdicts[name]:
                stats.tally(name, "racy")
            stats.events += len(wild_trace)
            # Replay parity holds in wild mode too: the recorded stream is
            # just events, and replay must reproduce the live verdict.
            replayed = _make_detector(name)
            try:
                replay_trace(wild_trace, [replayed])
            except Exception as exc:
                stats.tally(name, "replay_mismatches")
                fail("wild", "crash", name,
                     f"wild:replay-crash:{name}:{type(exc).__name__}",
                     f"replay raised {type(exc).__name__}: {exc}")
                continue
            if _verdict(replayed) != verdicts[name]:
                stats.tally(name, "replay_mismatches")
                fail("wild", "replay-divergence", name,
                     f"wild:replay:{name}",
                     f"live {sorted(verdicts[name], key=repr)} vs replay "
                     f"{sorted(_verdict(replayed), key=repr)}")
        # Access stamps need no reference-flow assumption: the
        # vector-clock detector must match the oracle on wild flows too.
        got, want = verdicts.get("vector-clock"), verdicts.get(ORACLE)
        if got is not None and want is not None and got != want:
            stats.tally("vector-clock", "divergences")
            direction = _diff_direction(got, want)
            fail("wild", "divergence", "vector-clock",
                 f"wild:divergence:vector-clock:{direction}",
                 f"vector-clock {sorted(got, key=repr)} vs oracle "
                 f"{sorted(want, key=repr)}")

    return failures


def _shrink_failure(failure: FuzzFailure, budget: int) -> None:
    scoped = failure.mode == "scoped"
    if failure.detector.startswith("runtime["):
        if failure.kind == "divergence":
            failure.minimized = shrink_program(
                failure.program,
                _runtime_divergence_predicate(failure.detector, failure.seed),
                budget=budget,
            )
        # runtime crashes and memory divergences are schedule-dependent:
        # a shrinker predicate would flake, so those repros stay unminimized.
        return
    if failure.kind == "parallel-divergence":
        predicate = _parallel_predicate(
            int(failure.signature.rsplit(":", 1)[-1])
        )
    elif failure.detector == RAISE_NAME:
        predicate = _raise_predicate
    elif failure.detector in (PARALLEL_NAME, MALFORMED_NAME):
        # parallel-crash repros are kept unminimized, and a mutant is
        # defined on one recorded trace, not on the program.
        return
    elif failure.kind == "divergence":
        predicate = _divergence_predicate(failure.detector, scoped)
    elif failure.kind == "replay-divergence":
        predicate = _replay_predicate(failure.detector, scoped)
    else:  # crash: reproduce the same exception type
        exc_name = failure.signature.rsplit(":", 1)[-1]
        exc_type = getattr(builtins, exc_name, Exception)
        if not (isinstance(exc_type, type)
                and issubclass(exc_type, BaseException)):
            exc_type = Exception
        predicate = _crash_predicate(failure.detector, exc_type, scoped)
    failure.minimized = shrink_program(
        failure.program, predicate, budget=budget
    )


def fuzz_range(
    seeds: Sequence[int],
    *,
    modes: Sequence[str] = ("scoped", "wild"),
    generator_kwargs: Optional[dict] = None,
    shrink: bool = True,
    shrink_budget: int = 800,
    fail_fast: bool = False,
    verbose: bool = False,
    out=None,
    obs=None,
    jobs: int = 1,
    runtimes: bool = False,
    progress=None,
) -> Tuple[FuzzStats, List[FuzzFailure]]:
    """Fuzz ``seeds``; returns stats and signature-deduplicated failures.

    ``progress`` is an optional
    :class:`repro.obs.live.ProgressCounter`: one unit per seed (a seed
    is the campaign's natural work quantum), failures surface as the
    live race count.
    """
    generator_kwargs = generator_kwargs or {}
    stats = FuzzStats()
    unique: Dict[str, FuzzFailure] = {}
    if progress is not None:
        progress.set_total(len(seeds))
        progress.set_phase("fuzz")
    for seed in seeds:
        program = random_program(random.Random(seed), **generator_kwargs)
        stats.seeds += 1
        stats.programs += 1
        stats.statements += count_stmts(program.body)
        new_failures = 0
        for failure in check_seed(
            seed, program, modes=modes, stats=stats, obs=obs, jobs=jobs,
            runtimes=runtimes,
        ):
            if verbose or failure.signature not in unique:
                print(f"[seed {failure.seed}] {failure.signature}: "
                      f"{failure.detail}", file=out)
            if failure.signature not in unique:
                unique[failure.signature] = failure
                new_failures += 1
        if progress is not None:
            progress.add(1)
            if new_failures:
                progress.add_races(new_failures)
        if fail_fast and unique:
            break
    failures = list(unique.values())
    if shrink:
        for failure in failures:
            _shrink_failure(failure, shrink_budget)
    return stats, failures


# ---------------------------------------------------------------------- #
# Regression-corpus replay                                               #
# ---------------------------------------------------------------------- #
def load_corpus(corpus_dir: Path) -> List[CorpusEntry]:
    """The corpus entries under ``corpus_dir``.  JSON documents that carry
    a ``schema`` tag (witness reports, the witness golden hashes) share
    the directory and are skipped."""
    entries = []
    for path in sorted(corpus_dir.glob("*.json")):
        with open(path) as fh:
            data = json.load(fh)
        if "schema" not in data:
            entries.append(entry_from_data(data))
    return entries


def replay_corpus(corpus_dir: Path, out=None) -> int:
    """Re-check every corpus entry; returns the number of failures."""
    entries = load_corpus(corpus_dir)
    if not entries:
        print(f"no corpus entries under {corpus_dir}", file=out)
        return 0
    bad = 0
    for entry in entries:
        want = entry.racy_locations
        problems: List[str] = []
        oracle, trace = _run_live(ORACLE, entry.program, scoped=True,
                                  record=True)
        if _verdict(oracle) != want:
            problems.append(
                f"oracle {sorted(_verdict(oracle), key=repr)} != declared "
                f"{sorted(want, key=repr)}")
        for name in GENERAL + RESTRICTED + tuple(ABLATIONS) + tuple(BACKENDS):
            try:
                det, _ = _run_live(name, entry.program, scoped=True)
            except UnsupportedConstructError:
                continue
            if _verdict(det) != want:
                problems.append(
                    f"{name} {sorted(_verdict(det), key=repr)} != "
                    f"{sorted(want, key=repr)}")
            replayed = _make_detector(name)
            replay_trace(trace, [replayed])
            if _verdict(replayed) != _verdict(det):
                problems.append(f"{name} replay parity broken")
        status = "ok" if not problems else "FAIL"
        print(f"corpus {entry.name}: {status}", file=out)
        for problem in problems:
            print(f"  - {problem}", file=out)
        bad += bool(problems)
    return bad


def write_corpus_entries(
    failures: Sequence[FuzzFailure], corpus_dir: Path, out=None
) -> None:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for failure in failures:
        program = failure.repro
        try:
            oracle, _ = _run_live(ORACLE, program, scoped=True)
            racy = tuple(sorted(loc for _, loc in _verdict(oracle)))
        except Exception:
            continue  # no scoped ground truth (e.g. wild-only crash)
        slug = re.sub(r"[^a-z0-9]+", "_", failure.signature.lower()).strip("_")
        name = f"fuzz_seed{failure.seed}_{slug}"
        entry = CorpusEntry(
            name=name,
            description=(f"repro-fuzz seed {failure.seed}: "
                         f"{failure.signature} — {failure.detail}"),
            program=program,
            racy_locs=racy,
        )
        path = corpus_dir / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(entry_to_data(entry), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"corpus entry written to {path}", file=out)
        witnesses = _triage_witnesses(program)
        if witnesses:
            from repro.obs import witness_report_data

            wpath = corpus_dir / f"{name}.witness.json"
            with open(wpath, "w") as fh:
                json.dump(witness_report_data(witnesses, program=name),
                          fh, sort_keys=True, indent=2)
                fh.write("\n")
            print(f"witness report written to {wpath}", file=out)


# ---------------------------------------------------------------------- #
# CLI                                                                    #
# ---------------------------------------------------------------------- #
def _parse_seed_range(text: str) -> range:
    match = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"expected START:END (half-open), got {text!r}")
    start, end = int(match.group(1)), int(match.group(2))
    if end <= start:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(start, end)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seeds", type=_parse_seed_range, default=range(100),
                        metavar="A:B", help="half-open seed range "
                        "(default 0:100)")
    parser.add_argument("--mode", choices=("scoped", "wild", "both"),
                        default="both")
    parser.add_argument("--num-locs", type=int, default=4)
    parser.add_argument("--max-depth", type=int, default=4)
    parser.add_argument("--max-block", type=int, default=6)
    parser.add_argument("--p-task", type=float, default=0.35)
    parser.add_argument("--p-get", type=float, default=0.2)
    parser.add_argument("--no-shrink", action="store_true",
                        help="report raw failing programs unminimized")
    parser.add_argument("--shrink-budget", type=int, default=800,
                        help="max predicate calls per minimization")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing seed")
    parser.add_argument("--verbose", action="store_true",
                        help="print every failure, not just new signatures")
    parser.add_argument("--corpus-dir", metavar="DIR",
                        help="write minimized repros as corpus JSON entries")
    parser.add_argument("--replay-corpus", metavar="DIR",
                        help="replay a regression corpus instead of fuzzing")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="N > 1 adds a parallel-parity leg per scoped "
                             "seed: the sharded checker must reproduce the "
                             "dtrg races and summary at jobs 1 and N")
    parser.add_argument("--runtimes", action="store_true",
                        help="add the runtime-parity rows per scoped seed: "
                             "real execution on serial / ThreadRuntime "
                             "(1, 2, 4 workers) / AsyncioRuntime, each "
                             "under an online ParallelRaceDetector, with "
                             "oracle racy-set parity and race-free "
                             "final-memory parity")
    parser.add_argument("--perfetto", metavar="FILE",
                        help="write a Chrome trace of the scoped dtrg runs")
    parser.add_argument("--metrics-json", metavar="FILE", dest="metrics_json",
                        help="write the observability registry as JSON")
    parser.add_argument("--serve-metrics", type=int, default=None,
                        metavar="PORT", dest="serve_metrics",
                        help="serve live campaign telemetry over HTTP "
                             "(/metrics, /healthz, /snapshot); PORT 0 "
                             "binds an ephemeral port (printed to stderr)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECS",
                        help="stderr heartbeat every SECS seconds (seeds "
                             "processed, unique failures, ETA); 0 disables")
    args = parser.parse_args(argv)

    obs = None
    if args.perfetto or args.metrics_json:
        from repro.obs import Observability, RingTracer

        obs = Observability(
            tracer=RingTracer() if args.perfetto else None
        )

    def write_obs_artifacts() -> None:
        if obs is None:
            return
        if args.perfetto:
            obs.write_trace(args.perfetto)
            print(f"perfetto trace written to {args.perfetto}")
        if args.metrics_json:
            obs.write_metrics(args.metrics_json)
            print(f"metrics written to {args.metrics_json}")

    if args.replay_corpus:
        bad = replay_corpus(Path(args.replay_corpus))
        if bad:
            print(f"{bad} corpus entr{'y' if bad == 1 else 'ies'} FAILED")
            return 1
        print("corpus replay clean")
        return 0

    telemetry = None
    if args.serve_metrics is not None or args.heartbeat > 0:
        from repro.obs.live import LiveTelemetry

        telemetry = LiveTelemetry(
            registry=getattr(obs, "registry", None) if obs else None,
            tracer=getattr(obs, "tracer", None) if obs else None,
            port=args.serve_metrics,
            heartbeat=args.heartbeat,
        )
        telemetry.start()
        if telemetry.url:
            print(f"serving live metrics at {telemetry.url}/metrics",
                  file=sys.stderr)

    modes = ("scoped", "wild") if args.mode == "both" else (args.mode,)
    try:
        stats, failures = fuzz_range(
            args.seeds,
            modes=modes,
            generator_kwargs=dict(
                num_locs=args.num_locs, max_depth=args.max_depth,
                max_block=args.max_block, p_task=args.p_task, p_get=args.p_get,
            ),
            shrink=not args.no_shrink,
            shrink_budget=args.shrink_budget,
            fail_fast=args.fail_fast,
            verbose=args.verbose,
            obs=obs,
            jobs=args.jobs,
            runtimes=args.runtimes,
            progress=telemetry.progress if telemetry is not None else None,
        )
    finally:
        if telemetry is not None:
            telemetry.stop()

    print(render_table(stats.detector_rows()))
    print()
    print(render_kv("fuzz run summary", stats.summary()))
    write_obs_artifacts()

    if failures:
        print(f"\n{len(failures)} unique failure signature"
              f"{'s' if len(failures) != 1 else ''}:")
        for failure in failures:
            program = failure.repro
            size = count_stmts(program.body)
            minimized = (" (minimized)"
                         if failure.minimized is not None else "")
            print(f"\n--- {failure.signature} [seed {failure.seed}, "
                  f"{size} stmts{minimized}] ---")
            print(f"    {failure.detail}")
            print(program)
            if failure.mode == "scoped":
                for witness in _triage_witnesses(program):
                    print(f"    witness {_witness_line(witness)}")
        if args.corpus_dir:
            write_corpus_entries(failures, Path(args.corpus_dir))
        return 1

    print("\nno divergences, no crashes — all detectors agree with the "
          "oracle on every seed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
