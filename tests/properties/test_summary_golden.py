"""Race report text is pinned: ``summary()`` reproduces golden hashes.

``tests/corpus/summary_golden.json`` holds, for every racy
``random_program`` seed in 0-199 (the seeds of
``test_witness_golden.py``), the SHA-256 of ``summary()`` with
``dedupe=True`` and with ``dedupe=False``.  Each seed's hashes are
re-derived from every path that builds a report:

* the live kernel (``DeterminacyRaceDetector()`` attached to the run);
* the kernel over vector clocks (``engine="vc"``);
* ``check_trace_fast`` over the recorded trace (deduplicating only);
* ``check_trace_parallel(jobs=2, backend="inline")``, merged by row
  (deduplicating only).

The engine comparisons elsewhere check that paths agree with each other;
this test checks that they agree with a fixed text, so a change to the
race record, the dedupe key or the rendering cannot move every path at
once.  Regenerate the file (only after a deliberate format change) with
``PYTHONPATH=src python tests/properties/test_summary_golden.py``.
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
from repro.testing.generator import random_program, run_program

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "corpus" / "summary_golden.json"
NUM_SEEDS = 200


class _Names(ExecutionObserver):
    """Live task names, so post-hoc reports print like the live run's."""

    def __init__(self):
        self.names = {}

    def on_init(self, main):
        self.names[main.tid] = main.name

    def on_task_create(self, parent, child):
        self.names[child.tid] = child.name


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _summaries(seed):
    """``{path: {"dedupe": hash, "all": hash}}`` for one seed; a path
    without a ``dedupe=False`` mode leaves ``"all"`` out."""
    program = random_program(random.Random(seed))
    recorder = TraceRecorder()
    names = _Names()
    live = DeterminacyRaceDetector()
    live_all = DeterminacyRaceDetector(dedupe=False)
    vc = DeterminacyRaceDetector(engine="vc")
    vc_all = DeterminacyRaceDetector(engine="vc", dedupe=False)
    run_program(program, [recorder, names, live, live_all, vc, vc_all])
    trace = recorder.trace
    fast = check_trace_fast(trace, names=names.names)
    jobs = check_trace_parallel(trace, jobs=2, backend="inline",
                                names=names.names)
    return {
        "live": {"dedupe": _digest(live.report.summary()),
                 "all": _digest(live_all.report.summary())},
        "vc": {"dedupe": _digest(vc.report.summary()),
               "all": _digest(vc_all.report.summary())},
        "fast": {"dedupe": _digest(fast.summary())},
        "jobs=2": {"dedupe": _digest(jobs.summary())},
    }


def test_summaries_match_the_golden_hashes():
    golden = json.loads(GOLDEN.read_text())["sha256"]
    matched = 0
    for seed in range(NUM_SEEDS):
        want = golden.get(str(seed))
        for path, got in _summaries(seed).items():
            if want is None:
                assert got["dedupe"] == _digest(
                    "no determinacy races detected"), f"seed {seed}: {path}"
                continue
            for mode, digest in got.items():
                assert digest == want[mode], (
                    f"seed {seed}: {path} summary (dedupe="
                    f"{mode == 'dedupe'}) changed")
        matched += want is not None
    assert matched == len(golden) > 50


def _regenerate():
    sha = {}
    for seed in range(NUM_SEEDS):
        paths = _summaries(seed)
        live = paths["live"]
        if live["dedupe"] != _digest("no determinacy races detected"):
            sha[str(seed)] = live
    GOLDEN.write_text(json.dumps(
        {"schema": "repro.summary-golden/1", "seeds": f"0:{NUM_SEEDS}",
         "sha256": sha}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(sha)} racy seeds to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
