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

Per seed, :func:`~repro.testing.generator.random_program` yields a
program, and every enabled entry of one table, :data:`LEGS`, checks it
(docs/ALGORITHM.md §9 tabulates the legs).  A leg is one row of the
stats table: it runs one thing, and its verdict must equal the oracle's,
the row's live run's, or the serial elision's final memory.

* **scoped** (the language's reference-flow discipline): every general
  detector (dtrg, vector-clock), DTRG ablation (``dtrg[no-lsa]``,
  ``dtrg[no-memo]``, ``dtrg[no-intervals]``) and PRECEDE backend
  (``vc``) must report exactly the oracle's racy locations; a restricted
  detector (spd3, espbags, spbags, offset-span) may refuse with
  ``UnsupportedConstructError`` instead.  Each completed run must replay
  the oracle's recorded trace to its live verdict; ``dtrg[raise]`` must
  raise the live run's first race; ``trace[malformed]`` mutates the
  recorded columns (:data:`MUTATIONS`) and the bytes of their saved
  trace file (:data:`FILE_MUTATIONS`).  ``--jobs N`` adds
  ``dtrg[parallel]`` and ``--runtimes`` the ``runtime[...]`` rows.
* **wild** (out-of-band handle registry, outside the model's guarantee):
  nothing may crash, each run must replay its own trace to its live
  verdict, and the vector-clock detector — whose access stamps need no
  reference-flow assumption — must still match the oracle.  dtrg and
  ``vc`` verdicts are *not* compared here (DESIGN.md deviation #4).

One runner, :func:`_run_leg`, books every leg's runs, refusals, crashes,
racy verdicts and divergences.  Failures are deduplicated by signature
(``mode:kind:detector:...``) and minimized with the ddmin shrinker
(:mod:`repro.testing.shrinker`) under one predicate: the failing leg,
re-run on the candidate, must bring the exact signature back.  A failure
that depends on the schedule or on one recorded trace, or that does not
recur on the program itself, is reported unminimized.  Repros print as
pretty programs, with a witness line per race when racy under the DTRG
detector (``explain_races``), and ``--corpus-dir`` writes them as
regression-corpus entries (:mod:`repro.testing.codec`) with a
``<name>.witness.json`` report beside each.

Exit status: 0 = no failures, 1 = at least one failure, 2 = bad usage.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import random
import re
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ClassVar, Dict, List, Optional, Sequence, Set, Tuple,
)

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
    Trace,
    TraceFormatError,
    _decode,
    encode_trace,
)
from repro.core.tracefile import COLUMNS, MAGIC, PREAMBLE
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
    "LEGS",
    "Leg",
    "check_seed",
    "fuzz_range",
    "mutate_columns",
    "mutate_file",
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
#: must reproduce the live dtrg racy set *and* the dtrg replay's
#: ``RaceReport.summary()`` text at every job count.
PARALLEL_NAME = "dtrg[parallel]"
#: Stats row of the malformed-trace leg (every scoped seed): each
#: :data:`MUTATIONS` kind breaks a copy of the recorded columns once, and
#: each :data:`FILE_MUTATIONS` kind the bytes of its saved trace file,
#: loaded from memory by ``Trace.load``.  The load and
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
#: The trace file cut at each section boundary; one byte of the preamble
#: or header changed (:data:`FILE_FLIPS` mutants); a header whose column
#: lengths or typecodes lie: one length off by one, rows moved between
#: two columns (so the sizes still add up), a typecode swapped.
FILE_MUTATIONS = ("file-cut", "file-flip", "file-lie")
FILE_FLIPS = 4
#: Runtime-parity rows (``--runtimes``): the same scoped program is
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
    kind: str            #: "crash" | "divergence" | "replay-divergence" | …
    detector: str
    signature: str       #: dedup key (mode/kind/detector/direction)
    detail: str
    program: Program
    minimized: Optional[Program] = None
    #: The leg that failed and the argument it ran with (a job count, a
    #: mutant): what the shrink predicate re-runs.
    leg: Optional["Leg"] = field(default=None, repr=False)
    arg: object = field(default=None, repr=False)

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
        """The rows that ran, in :data:`LEGS` order."""
        return [{"detector": name, **self.per_detector[name]}
                for name in dict.fromkeys(leg.row for leg in LEGS)
                if name in self.per_detector]

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


def _show(verdict) -> list:
    return sorted(verdict, key=repr)


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


def mutate_file(data: bytes, kind: str, rng: random.Random) -> List[bytes]:
    """The ``kind`` mutants (see :data:`FILE_MUTATIONS`) of the trace file
    ``data``."""
    end = PREAMBLE + int.from_bytes(data[PREAMBLE - 8:PREAMBLE], "little")
    header = json.loads(data[PREAMBLE:end])
    if kind == "file-cut":
        bounds = [0, len(MAGIC), PREAMBLE - 8, PREAMBLE, end]
        for _name, code, length in header["columns"]:
            bounds.append(bounds[-1] + length * array(code).itemsize)
        return [data[:b] for b in sorted(set(bounds[:-1]))]
    if kind == "file-flip":
        mutants = []
        for _ in range(FILE_FLIPS):
            i = rng.randrange(end)
            flipped = bytes([data[i] ^ rng.randrange(1, 256)])
            mutants.append(data[:i] + flipped + data[i + 1:])
        return mutants
    if kind != "file-lie":
        raise ValueError(f"unknown mutation {kind!r}")
    lies = [copy.deepcopy(header) for _ in range(3)]
    off_by_one, moved_rows, typecode = (lie["columns"] for lie in lies)
    off_by_one[rng.randrange(len(COLUMNS))][2] += rng.choice((-1, 1))
    a = rng.randrange(len(COLUMNS) - 1)  # every column has 8-byte items
    moved = rng.randint(1, 4) * rng.choice((-1, 1))
    moved_rows[a][2] -= moved
    moved_rows[a + 1][2] += moved
    spec = typecode[rng.randrange(len(COLUMNS))]
    spec[1] = {"Q": "q", "q": "Q"}[spec[1]]
    texts = (json.dumps(lie).encode("ascii") for lie in lies)
    return [data[:PREAMBLE - 8] + len(text).to_bytes(8, "little") + text
            + data[end:] for text in texts]


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


# ---------------------------------------------------------------------- #
# The legs                                                               #
# ---------------------------------------------------------------------- #
class _Missing(Exception):
    """A run that a leg reads did not complete: the leg is skipped, or,
    when only its reference is missing, run without a comparison."""


_FAILED = object()  #: a leg's result when its run did not complete


@dataclass(frozen=True, eq=False)
class Leg:
    """One check of a seed, booked on one stats row (see :data:`LEGS`).

    The base class runs the ``row`` detector live on the program; each
    subclass changes what is run and what its verdict is compared with.
    ``run`` returns a pair whose first item holds the verdict and whose
    second is what later legs read (the recorded trace, the final
    memory).
    """

    row: str
    mode: str = "scoped"
    #: What the verdict must equal: ``"oracle"`` (the mode's oracle, or
    #: under ``--replay-corpus`` the entry's declared racy set),
    #: ``"live"`` (the row's live run), ``"serial"`` (the serial
    #: elision's final memory), or ``None`` (nothing; only crashes fail).
    expect: Optional[str] = "oracle"
    #: Exceptions booked as refusals, not crashes.
    refuses: Tuple[type, ...] = ()
    #: Failure outcomes (``"crash"``, ``"divergence"``) that shrink: the
    #: program alone brings them back, whatever the schedule.
    shrinks: Tuple[str, ...] = ("crash", "divergence")
    #: The :func:`check_seed` option that enables the leg (``"jobs"``
    #: when ``jobs`` > 1, ``"runtimes"``); ``None`` for always.
    flag: Optional[str] = None
    #: Stats key of every failure of a leg that is no run of its own (it
    #: books no runs and no racy verdicts); ``None`` for a run.
    book: ClassVar[Optional[str]] = None

    def args(self, ctx: "_Seed") -> Sequence:
        """The arguments the leg runs once each with."""
        return (None,)

    def run(self, ctx: "_Seed", arg) -> tuple:
        scoped = self.mode == "scoped"
        det, trace = _run_live(
            self.row, ctx.program, scoped=scoped,
            record=not scoped or self.row == ORACLE,
            obs=ctx.obs if scoped and self.row == "dtrg" else None,
        )
        if trace is not None:
            ctx.stats.events += len(trace)
        return det, trace

    def verdict(self, result: tuple):
        return _verdict(result[0])

    def racy(self, verdict) -> bool:
        return bool(verdict)

    def reference(self, ctx: "_Seed", arg):
        """The verdict this one must equal; raises :class:`_Missing`
        when there is none."""
        if self.expect == "oracle":
            return ctx.oracle(self.mode)
        if self.expect == "live":
            return _verdict(ctx.result(Leg, self.mode, self.row)[0])
        raise _Missing(self.row)

    def crashed(self, exc: Exception, arg,
                reference: bool = False) -> Tuple[str, str, str]:
        """``(kind, signature, detail)`` of a run (or, with
        ``reference``, a reference) that raised ``exc``."""
        name = type(exc).__name__
        return ("crash", f"{self.mode}:crash:{self.row}:{name}",
                f"{name}: {exc}")

    def diverged(self, got, want, arg) -> Tuple[str, str, str]:
        """``(kind, signature, detail)`` of a verdict ``got`` that is not
        the reference ``want``."""
        return ("divergence", f"{self.mode}:divergence:{self.row}:"
                f"{_diff_direction(got, want)}",
                f"{self.row} {_show(got)} vs oracle {_show(want)}")


class Replay(Leg):
    """The recorded trace replayed into a fresh ``row`` detector: the
    oracle's trace in scoped mode, the row's own live trace in wild mode.
    Only a row whose live run completed is replayed."""

    book = "replay_mismatches"

    def run(self, ctx: "_Seed", arg) -> tuple:
        _det, trace = ctx.result(Leg, self.mode, self.row)
        if self.mode == "scoped":
            trace = ctx.result(Leg, "scoped", ORACLE)[1]
        replayed = _make_detector(self.row)
        replay_trace(trace, [replayed])
        return replayed, None

    def crashed(self, exc, arg, reference=False):
        name = type(exc).__name__
        if self.mode == "scoped" and isinstance(exc,
                                                UnsupportedConstructError):
            return ("replay-divergence", f"scoped:replay-refusal:{self.row}",
                    "completed live but refused the recorded trace")
        return ("crash", f"{self.mode}:replay-crash:{self.row}:{name}",
                f"replay raised {name}: {exc}")

    def diverged(self, got, want, arg):
        return ("replay-divergence", f"{self.mode}:replay:{self.row}",
                f"live {_show(want)} vs replay {_show(got)}")


class Raise(Leg):
    """A ``policy="raise"`` dtrg run (see :data:`RAISE_NAME`); its verdict
    is the race it raised, or ``None``."""

    def run(self, ctx: "_Seed", arg) -> tuple:
        try:
            run_program(ctx.program, [DETECTORS["dtrg"](policy="raise")])
        except RaceError as exc:
            return exc.race, None
        return None, None

    def verdict(self, result: tuple):
        return result[0]

    def reference(self, ctx: "_Seed", arg):
        # An enabled obs makes the live dtrg run resume per block too;
        # the leg compares against a batched run.
        live = (ctx.result(Leg, "scoped", "dtrg") if ctx.obs is None
                else _run_live("dtrg", ctx.program, scoped=True))[0]
        return live.races[0] if live.races else None

    def diverged(self, got, want, arg):
        raised = "nothing" if got is None else got
        return ("divergence", f"scoped:divergence:{self.row}",
                f"raised {raised} but the COLLECT run's first race is "
                f"{want}")


class Sharded(Leg):
    """The recorded trace re-checked by the two-phase sharded checker at
    jobs 1 and N (see :data:`PARALLEL_NAME`); its verdict is the racy
    set and the ``summary()`` text."""

    def args(self, ctx: "_Seed") -> Sequence:
        return (1, ctx.jobs)

    def run(self, ctx: "_Seed", jobs) -> tuple:
        from repro.core.parallel_check import check_trace_parallel

        # Pinned inline: the auto backend would check these small traces
        # as one unsplit shard.
        trace = ctx.result(Leg, "scoped", ORACLE)[1]
        return check_trace_parallel(trace, jobs=jobs, backend="inline"), None

    def verdict(self, result: tuple):
        return _verdict(result[0]), result[0].summary()

    def racy(self, verdict) -> bool:
        return bool(verdict[0])

    def reference(self, ctx: "_Seed", jobs):
        replayed = ctx.result(Replay, "scoped", "dtrg")[0]
        return (_verdict(ctx.result(Leg, "scoped", "dtrg")[0]),
                replayed.report.summary())

    def crashed(self, exc, jobs, reference=False):
        name = type(exc).__name__
        return ("crash", f"scoped:parallel-crash:{name}",
                f"jobs={jobs} raised {name}: {exc}")

    def diverged(self, got, want, jobs):
        return ("parallel-divergence", f"scoped:parallel:{jobs}",
                f"jobs={jobs} {_show(got[0])} vs dtrg {_show(want[0])} "
                f"(summary match: {got[1] == want[1]})")


class Mutants(Leg):
    """``check_trace_fast`` on each :data:`MUTATIONS` kind of the oracle's
    recorded columns and on each :data:`FILE_MUTATIONS` mutant of its
    saved file, loaded (see :data:`MALFORMED_NAME`); the reference is the
    oracle run on the mutant's decoded events."""

    def args(self, ctx: "_Seed") -> Sequence:
        rng = random.Random(ctx.seed)
        trace = ctx.result(Leg, "scoped", ORACLE)[1]
        enc = encode_trace(trace)
        mutants = [(kind, mutate_columns(enc, kind, rng))
                   for kind in MUTATIONS]
        saved = io.BytesIO()
        trace.save(saved)
        mutants += [(kind, mutant) for kind in FILE_MUTATIONS
                    for mutant in mutate_file(saved.getvalue(), kind, rng)]
        return [(kind, mutant) for kind, mutant in mutants
                if mutant is not None]

    @staticmethod
    def columns(arg) -> EncodedTrace:
        """The mutant's columns: a file mutant as ``Trace.load`` reads it."""
        mutant = arg[1]
        if isinstance(mutant, bytes):
            return encode_trace(Trace.load(io.BytesIO(mutant)))
        return mutant

    def run(self, ctx: "_Seed", arg) -> tuple:
        return check_trace_fast(self.columns(arg)), None

    def reference(self, ctx: "_Seed", arg):
        oracle = DETECTORS[ORACLE]()
        replay_trace(_closed(list(_decode(self.columns(arg)))), [oracle])
        return _verdict(oracle)

    def crashed(self, exc, arg, reference=False):
        name = type(exc).__name__
        if reference:
            return ("crash", f"scoped:malformed-decode:{arg[0]}:{name}",
                    f"{arg[0]} mutant checked, but decoding or the oracle "
                    f"raised {name}: {exc}")
        return ("crash", f"scoped:malformed-crash:{arg[0]}:{name}",
                f"{arg[0]} mutant raised {name}: {exc}")

    def diverged(self, got, want, arg):
        return ("divergence",
                f"scoped:malformed:{arg[0]}:{_diff_direction(got, want)}",
                f"{arg[0]} mutant {_show(got)} vs oracle {_show(want)}")


class Runtime(Leg):
    """Real execution on the row's substrate under a fresh online
    :class:`ParallelRaceDetector`, writing statement-path tokens (see
    :data:`RUNTIME_WORKERS`); the second item is the final memory."""

    def run(self, ctx: "_Seed", arg) -> tuple:
        det = ParallelRaceDetector()
        if self.row == RUNTIME_SERIAL:
            _rt, memory = run_program_values(ctx.program, [det])
        elif self.row == "runtime[asyncio]":
            _rt, memory = run_program_asyncio(ctx.program, [det])
        else:
            workers = int(self.row.rsplit("-", 1)[-1].rstrip("]"))
            _rt, memory = run_program_threads(
                ctx.program, [det], workers=workers, steal_seed=ctx.seed
            )
        return det, memory


class Memory(Leg):
    """The row's final memory against the serial elision's, on race-free
    programs only: no run of its own, it reads the :class:`Runtime`
    leg's."""

    book = "divergences"

    def run(self, ctx: "_Seed", arg) -> tuple:
        return None, ctx.result(Runtime, "scoped", self.row)[1]

    def verdict(self, result: tuple):
        return result[1]

    def reference(self, ctx: "_Seed", arg):
        if ctx.oracle("scoped"):
            raise _Missing(self.row)  # a racy program has no one memory
        return ctx.result(Runtime, "scoped", RUNTIME_SERIAL)[1]

    def diverged(self, got, want, arg):
        return ("memory-divergence", f"scoped:runtime-mem:{self.row}",
                f"{self.row} final memory diverged from the serial elision "
                "on a race-free program (Determinism Property violated)")


#: Every check of a seed, in stats-table order.  A leg runs after the
#: legs it reads; ``check_seed`` runs those of the requested modes whose
#: ``flag`` is on.
LEGS: Tuple[Leg, ...] = (
    Leg(ORACLE),
    Replay(ORACLE, expect="live"),
    *(leg for name in GENERAL + RESTRICTED + tuple(ABLATIONS)
      + tuple(BACKENDS)
      for leg in (
          Leg(name, refuses=(UnsupportedConstructError,)
              if name in RESTRICTED else ()),
          Replay(name, expect="live"),
      )),
    Raise(RAISE_NAME, expect="live"),
    Sharded(PARALLEL_NAME, expect="live", flag="jobs"),
    Mutants(MALFORMED_NAME, refuses=(TraceFormatError,), shrinks=()),
    *(Runtime(name, flag="runtimes", shrinks=("divergence",))
      for name in (RUNTIME_SERIAL,) + RUNTIME_ROWS),
    *(Memory(name, expect="serial", flag="runtimes", shrinks=())
      for name in RUNTIME_ROWS),
    *(leg for name in WILD for leg in (
        Leg(name, "wild", expect="oracle" if name == "vector-clock"
            else None),
        Replay(name, "wild", expect="live"),
    )),
)
_INDEX = {(type(leg), leg.mode, leg.row): leg for leg in LEGS}


@dataclass
class _Seed:
    """One program under check: what its legs returned, what failed."""

    seed: int
    program: Program
    stats: FuzzStats = field(default_factory=FuzzStats)
    obs: object = None
    jobs: int = 1
    #: A corpus entry's racy set, which stands in for the oracle's.
    declared: Optional[Set] = None
    results: Dict[Leg, object] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    def result(self, kind: type, mode: str, row: str) -> tuple:
        """What the ``kind`` leg of ``row`` returned, running it first if
        it has not run; raises :class:`_Missing` if it did not
        complete."""
        leg = _INDEX[kind, mode, row]
        if leg not in self.results:
            _run_leg(self, leg)
        result = self.results[leg]
        if result is _FAILED:
            raise _Missing(row)
        return result

    def oracle(self, mode: str) -> Set:
        if self.declared is not None:
            return self.declared
        return _verdict(self.result(Leg, mode, ORACLE)[0])

    def fail(self, leg: Leg, arg, kind: str, signature: str,
             detail: str) -> None:
        self.failures.append(FuzzFailure(
            seed=self.seed, mode=leg.mode, kind=kind, detector=leg.row,
            signature=signature, detail=detail, program=self.program,
            leg=leg, arg=arg,
        ))
        self.stats.failures += 1


def _run_leg(ctx: _Seed, leg: Leg, args: Optional[Sequence] = None) -> None:
    """Run ``leg`` once per argument on ``ctx.program`` and book each
    outcome on its row: a run, then a refusal, a crash, or a verdict
    (racy or not) that must equal the leg's reference."""
    stats, book = ctx.stats, leg.book
    ctx.results[leg] = _FAILED  # until a run completes, readers skip
    try:
        args = leg.args(ctx) if args is None else args
    except _Missing:
        return
    for arg in args:
        error = None
        try:
            result = leg.run(ctx, arg)
            got = leg.verdict(result)
        except _Missing:
            return
        except Exception as exc:
            error = exc
        if book is None:
            stats.tally(leg.row, "runs")
        if isinstance(error, leg.refuses):
            stats.tally(leg.row, "refusals")
            continue
        if error is not None:
            stats.tally(leg.row, book or "crashes")
            ctx.fail(leg, arg, *leg.crashed(error, arg))
            continue
        ctx.results[leg] = result
        if book is None and leg.racy(got):
            stats.tally(leg.row, "racy")
        try:
            want = leg.reference(ctx, arg)
        except _Missing:
            continue
        except Exception as exc:
            stats.tally(leg.row, book or "crashes")
            ctx.fail(leg, arg, *leg.crashed(exc, arg, reference=True))
            continue
        if got != want:
            stats.tally(leg.row, book or "divergences")
            ctx.fail(leg, arg, *leg.diverged(got, want, arg))


def _check(ctx: _Seed, modes: Sequence[str], runtimes: bool = False) -> None:
    """Run every leg of ``modes`` whose flag is on."""
    on = {None: True, "jobs": ctx.jobs > 1, "runtimes": runtimes}
    for leg in LEGS:
        if leg.mode in modes and on[leg.flag] and leg not in ctx.results:
            _run_leg(ctx, leg)


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

    ``jobs`` > 1 adds the :data:`PARALLEL_NAME` leg and ``runtimes`` the
    :data:`RUNTIME_ROWS` legs (see :data:`LEGS`).
    """
    ctx = _Seed(seed, program, stats if stats is not None else FuzzStats(),
                obs, jobs)
    _check(ctx, modes, runtimes)
    return ctx.failures


def _reproduces(failure: FuzzFailure) -> Callable[[Program], bool]:
    """The shrink predicate: the failing leg, re-run on the candidate
    (the runs it reads run on demand), brings the failure's signature
    back."""

    def holds(candidate: Program) -> bool:
        ctx = _Seed(failure.seed, candidate)
        _run_leg(ctx, failure.leg, (failure.arg,))
        return any(f.signature == failure.signature for f in ctx.failures)

    return holds


def _shrink_failure(failure: FuzzFailure, budget: int) -> None:
    """Minimize ``failure``'s program if its leg shrinks that outcome and
    the signature recurs on the program itself; else leave
    ``minimized`` unset."""
    outcome = "crash" if failure.kind == "crash" else "divergence"
    if failure.leg is None or outcome not in failure.leg.shrinks:
        return
    holds = _reproduces(failure)
    if holds(failure.program):
        failure.minimized = shrink_program(
            failure.program, holds, budget=budget
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
    """Re-check every corpus entry through the scoped legs of
    :data:`LEGS`, the entry's declared racy set standing in for the
    oracle's verdict; returns the number of failing entries."""
    entries = load_corpus(corpus_dir)
    if not entries:
        print(f"no corpus entries under {corpus_dir}", file=out)
        return 0
    bad = 0
    for entry in entries:
        ctx = _Seed(0, entry.program, declared=entry.racy_locations)
        _check(ctx, ("scoped",))
        print(f"corpus {entry.name}: {'FAIL' if ctx.failures else 'ok'}",
              file=out)
        for failure in ctx.failures:
            print(f"  - {failure.signature}: {failure.detail}", file=out)
        bad += bool(ctx.failures)
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
