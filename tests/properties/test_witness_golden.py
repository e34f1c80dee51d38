"""Witnesses are pinned: ``explain_races`` reproduces golden hashes.

``tests/corpus/witness_golden.json`` holds, for every racy
``random_program`` seed in 0-199, the SHA-256 of the canonical JSON
(``sort_keys``, no whitespace) of ``witness_report_data(witnesses)``.
The hashes were taken from the reference engine when it still built
witnesses and retained call sites while checking.  Each run here
records the program with a :class:`~repro.obs.provenance.RaceProvenance`
and re-derives the witnesses with
:func:`~repro.obs.provenance.explain_races` from three race lists:

* the live kernel's (``DeterminacyRaceDetector()`` attached to the run);
* ``check_trace_fast`` over the recorded columns;
* ``check_trace_parallel(jobs=2, backend="inline")``, merged by row.

Site labels are paths relative to the working directory and carry line
numbers of ``repro/testing/generator.py``, so the test runs from the
repository root, and moving the access lines of that module means
regenerating the hashes.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import ExecutionObserver
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_check import check_trace_parallel
from repro.memory.tracer import TraceRecorder
from repro.obs.provenance import (
    RaceProvenance, explain_races, witness_report_data,
)
from repro.testing.generator import random_program, run_program

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "corpus" / "witness_golden.json"
NUM_SEEDS = 200


class _Names(ExecutionObserver):
    """Live task names, so post-hoc races print like the live run's."""

    def __init__(self):
        self.names = {}

    def on_init(self, main):
        self.names[main.tid] = main.name

    def on_task_create(self, parent, child):
        self.names[child.tid] = child.name


def _digest(witnesses):
    text = json.dumps(witness_report_data(witnesses), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_explained_witnesses_match_the_golden_hashes(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())["sha256"]
    matched = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        provenance = RaceProvenance()
        recorder = TraceRecorder(provenance)
        live = DeterminacyRaceDetector()
        names = _Names()
        run_program(program, [recorder, live, names], provenance=provenance)
        trace = recorder.trace
        fast = check_trace_fast(trace, names=names.names)
        jobs = check_trace_parallel(trace, jobs=2, backend="inline",
                                    names=names.names)
        want = golden.get(str(seed))
        for path, checked in (("live", live), ("fast", fast),
                              ("jobs=2", jobs)):
            _, witnesses = explain_races(trace, checked.races,
                                         checked.race_rows)
            got = _digest(witnesses) if witnesses else None
            assert got == want, f"seed {seed}: {path} witnesses changed"
        matched += want is not None
    assert matched == len(golden) > 50
