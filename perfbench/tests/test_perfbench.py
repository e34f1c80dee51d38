"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import NAMES, make, oracle_racy_locations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.4", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_every_path_reports_every_end_to_end_metric(workload):
    text, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Four paths, each run at least MIN_REPS times.
    assert result["attempted"] >= 4 * run.MIN_REPS
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split() for line in text)
    assert any(line.split()[:2] == ["checks_failed", "0"] for line in text)
    assert f"cpu_count={run.os.cpu_count()}" in text[0]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_layers_and_writes_a_valid_trace(workload):
    text, result = bench(workload, trace=1)
    assert result["correct"], text
    for metric in SPEC["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] is not None
    for path in run.PATHS:
        assert result["metrics"][f"coverage.{path}"]["value"] > 0
    trace = next(line.split()[-1] for line in text if "trace:" in line)
    check = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(ROOT / trace)],
        cwd=ROOT, env={**run.os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert check.returncode == 0, check.stdout + check.stderr


def test_racy_dag_known_answer_has_races():
    answers = oracle_racy_locations(make("racy-dag", 3, "tiny"))
    assert any(answers)
    assert all(not a for a in oracle_racy_locations(make("stencil", 3, "tiny")))


def test_corrupted_known_answer_lands_in_checks_failed():
    workload = make("racy-dag", 3, "tiny")
    oracle = oracle_racy_locations(workload)
    common = [sys.executable, str(HERE / "worker.py"), "--workload",
              "racy-dag", "--seed", "3", "--size", "tiny", "--jobs", "2"]
    workers = run.run_paths(common, 0.2, time.monotonic() + 120)
    runs = sum(len(w.reps) for w in workers.values())
    assert run.judge(oracle, workers) == (runs, [])

    unit = next(i for i, answer in enumerate(oracle) if answer)
    corrupted = [list(a) for a in oracle]
    corrupted[unit].pop()
    attempted, failures = run.judge(corrupted, workers)
    # Every path reports the real answer, so every run mismatches.
    assert attempted == runs and len(failures) == runs
    assert all("known answer" in f for f in failures)


def test_summary_mismatch_between_paths_is_a_failure():
    rep = {"rep": 0, "verify_errors": [], "racy": [[]], "summaries": ["a"]}

    class Fake:
        failure = None

        def __init__(self, summaries):
            self.reps = [dict(rep, summaries=summaries)]

    workers = {"serial": Fake(["a"]), "fast": Fake(["b"]),
               "threads": Fake(["c"])}
    attempted, failures = run.judge([[]], workers)
    # threads is compared on racy locations only.
    assert attempted == 3 and len(failures) == 1
    assert failures[0].startswith("fast run 0: summary()")


def test_a_hung_worker_is_stopped_named_and_counted():
    hang = [sys.executable, "-c",
            "import json, time; print(json.dumps({'ready': 1}), flush=True); "
            "time.sleep(60)"]
    worker = run.Worker(hang, time.monotonic() + 30)
    assert worker.read(10) == {"ready": 1}
    start = time.monotonic()
    assert worker.read(0.5) is None
    assert time.monotonic() - start < 5
    assert worker.proc.returncode is not None
    assert "deadline" in worker.failure
    attempted, failures = run.judge([[]], {"threads": worker})
    assert attempted == 1 and failures[0].startswith("threads: no answer")


def test_same_seed_same_inputs():
    for name in NAMES:
        a, b = make(name, 11, "tiny"), make(name, 11, "tiny")
        assert a.units == b.units
    assert make("racy-dag", 1).units != make("racy-dag", 2).units


def test_every_seed_gets_as_many_programs_of_about_one_size():
    from repro.testing.generator import count_stmts
    from workloads import RacyDag

    low, high = RacyDag.PROGRAM_STMTS
    for seed in range(5):
        units = make("racy-dag", seed, "tiny").units
        assert len(units) == RacyDag.PROGRAMS["tiny"]
        assert all(low <= count_stmts(p.body) <= high for p in units)


def test_threads_path_is_timed_in_cpu_time():
    class Runs:
        reps = [{"seconds": 2.0, "cpu_seconds": 1.0,
                 "calibration": run.CALIBRATION_REF_S}]

    assert run.path_times("threads", Runs) == [1.0]
    assert run.path_times("serial", Runs) == [2.0]


def test_exits_nonzero_without_the_library(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stencil",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": run.os.environ.get("PATH", "")},
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
