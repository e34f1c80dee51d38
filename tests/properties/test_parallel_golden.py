"""The vector-clock detector's reports on the serial runtime are pinned.

``tests/corpus/parallel_golden.json`` holds, for every racy
``random_program`` seed in 0-199, scoped and wild, the SHA-256 of
:class:`~repro.core.parallel_detector.ParallelRaceDetector`'s
``report.summary()`` with ``dedupe=True`` and with ``dedupe=False``,
run on the serial depth-first ``Runtime``.  The file was written before
the detector buffered each task's accesses and checked them once per
segment; on the serial runtime that check order is the access order, so
every report must stay byte-identical, including the order and the
count of the undeduplicated races.  Regenerate it (only after a
deliberate change to the report) with
``PYTHONPATH=src python tests/properties/test_parallel_golden.py``.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.parallel_detector import ParallelRaceDetector
from repro.testing.generator import random_program, run_program

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "corpus" / "parallel_golden.json"
NUM_SEEDS = 200
MODES = {"scoped": True, "wild": False}
RACE_FREE = "no determinacy races detected"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _summaries(seed, scoped_handles):
    """``{"dedupe": text, "all": text}`` for one seed and handle mode."""
    program = random_program(random.Random(seed))
    dedupe = ParallelRaceDetector()
    every = ParallelRaceDetector(dedupe=False)
    run_program(program, [dedupe, every], scoped_handles=scoped_handles)
    return {"dedupe": dedupe.report.summary(), "all": every.report.summary()}


def test_summaries_match_the_golden_hashes():
    golden = json.loads(GOLDEN.read_text())["sha256"]
    matched = 0
    for mode, scoped_handles in MODES.items():
        for seed in range(NUM_SEEDS):
            want = golden[mode].get(str(seed))
            got = _summaries(seed, scoped_handles)
            if want is None:
                assert got["dedupe"] == RACE_FREE, f"{mode} seed {seed}"
                continue
            for key, text in got.items():
                assert _digest(text) == want[key], (
                    f"{mode} seed {seed}: summary (dedupe="
                    f"{key == 'dedupe'}) changed")
            matched += 1
    assert matched == sum(map(len, golden.values())) > 100


def _regenerate():
    sha = {}
    for mode, scoped_handles in MODES.items():
        sha[mode] = {}
        for seed in range(NUM_SEEDS):
            got = _summaries(seed, scoped_handles)
            if got["dedupe"] != RACE_FREE:
                sha[mode][str(seed)] = {
                    key: _digest(text) for key, text in got.items()}
    GOLDEN.write_text(json.dumps(
        {"schema": "repro.parallel-golden/1", "seeds": f"0:{NUM_SEEDS}",
         "sha256": sha}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, sha.values()))} racy runs to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
