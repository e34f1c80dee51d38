"""Engine values are pinned: every configuration reproduces golden values.

``tests/corpus/engine_golden.json`` holds, for every ``random_program``
seed in 0-199 (scoped handles) and for each of five detector
configurations (the default strategy, each ablation switch off alone,
and all three off), values first taken from the object DTRG behind the
plain Algorithms 8/9, the reference engine the kernel replaced:

* ``races`` — the SHA-256 of the canonical JSON of the race list
  (location repr, previous task, current task, kind, in detection
  order) and ``race_rows``;
* ``total_readers_seen`` and ``num_accesses``, the two integers behind
  ``#AvgReaders``;
* ``num_visits``, ``mutation_epoch`` and ``precede_queries``.

Each configuration runs live on the one kernel (an ablation over
``AblatedArrayDTRG``).  Every value must match exactly, except the query
count: the kernel's fast paths skip calls whose answers are forced, so
``precede_queries + precede_calls_saved`` must equal the pinned count
(the regenerator stores that sum).  ``engine="vc"`` must reproduce the
default configuration's race hash.  Regenerate the file (only after a
deliberate change of what a configuration computes) with
``PYTHONPATH=src python tests/properties/test_engine_golden.py``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.array_dtrg import AblatedArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.testing.generator import random_program, run_program

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "corpus" / "engine_golden.json"
NUM_SEEDS = 200
BAND = 50
CONFIGS = {
    "default": {},
    "no_lsa": {"use_lsa": False},
    "no_memo": {"memoize_visit": False},
    "no_intervals": {"use_intervals": False},
    "all_off": {"use_lsa": False, "memoize_visit": False,
                "use_intervals": False},
}


def _race_digest(det):
    races = [[repr(r.loc), r.prev_task, r.current_task, r.kind.value]
             for r in det.races]
    text = json.dumps([races, list(det.race_rows)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _values(det):
    perf = det.perf_stats
    return {
        "races": _race_digest(det),
        # avg_readers is total_readers_seen / num_accesses, exactly.
        "total_readers_seen": round(det.avg_readers * det.num_accesses),
        "num_accesses": det.num_accesses,
        "num_visits": det.dtrg.num_visits,
        "mutation_epoch": perf["mutation_epoch"],
        "precede_queries": perf["precede_queries"],
        "precede_calls_saved": perf["precede_calls_saved"],
    }


def _run(seed):
    """``{config: values}`` for one seed, every configuration attached
    to the same run, plus ``engine="vc"``'s race digest."""
    program = random_program(random.Random(seed))
    dets = {name: DeterminacyRaceDetector(**options)
            for name, options in CONFIGS.items()}
    for name, det in dets.items():
        assert isinstance(det.dtrg, AblatedArrayDTRG) == (name != "default")
    vc = DeterminacyRaceDetector(engine="vc")
    run_program(program, [*dets.values(), vc])
    return ({name: _values(det) for name, det in dets.items()},
            _race_digest(vc))


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_kernel_reproduces_the_pinned_engine_values(band):
    golden = json.loads(GOLDEN.read_text())["values"]
    for seed in range(band, band + BAND):
        values, vc = _run(seed)
        for name, got in values.items():
            want = golden[str(seed)][name]
            what = f"seed {seed}, {name}"
            for key in ("races", "total_readers_seen", "num_accesses",
                        "num_visits", "mutation_epoch"):
                assert got[key] == want[key], f"{what}: {key} changed"
            assert (got["precede_queries"] + got["precede_calls_saved"]
                    == want["precede_queries"]), (
                f"{what}: precede_queries + precede_calls_saved "
                f"!= {want['precede_queries']}")
        assert vc == golden[str(seed)]["default"]["races"], (
            f"seed {seed}: engine='vc' race list changed")


def _regenerate():
    values = {}
    for seed in range(NUM_SEEDS):
        got, _ = _run(seed)
        for row in got.values():
            row["precede_queries"] += row.pop("precede_calls_saved")
        values[str(seed)] = got
    GOLDEN.write_text(json.dumps(
        {"schema": "repro.engine-golden/1", "seeds": f"0:{NUM_SEEDS}",
         "configs": CONFIGS, "values": values},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {NUM_SEEDS} seeds x {len(CONFIGS)} configurations "
          f"to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
