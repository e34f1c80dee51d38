"""Integration tests for the ``repro-bench`` JSON artifact entry point."""

import json

import pytest

from repro.harness import runner
from repro.harness.bench import (
    BENCH_SCHEMA,
    LEGS_SCHEMA,
    bench_data,
    check_floors,
    main,
)


def test_bench_writes_schema_tagged_json(tmp_path, capsys):
    out = tmp_path / "BENCH_PR4.json"
    code = main(["--scale", "tiny", "--repeats", "1",
                 "--only", "Series-af", "--only", "Jacobi",
                 "--output", str(out), "--tag", "unit-test"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == BENCH_SCHEMA
    assert data["tag"] == "unit-test"
    assert data["scale"] == "tiny" and data["repeats"] == 1
    names = [w["name"] for w in data["workloads"]]
    assert names == ["Series-af", "Jacobi"]
    for w in data["workloads"]:
        assert w["seq_seconds"] > 0
        assert w["racedet_seconds"] > 0
        assert w["races"] == 0
        assert w["structural"]["num_tasks"] > 0
        assert not [k for k in w["detector_perf"] if k.startswith("cache")]
    # Jacobi's wavefront of future joins produces non-tree edges and
    # therefore PRECEDE queries that reach the graph.
    jacobi = data["workloads"][1]
    assert jacobi["structural"]["num_nt_joins"] > 0
    assert jacobi["detector_perf"]["precede_queries"] > 0


def test_bench_unknown_workload_exits_two(tmp_path, capsys):
    assert main(["--only", "NoSuchBench",
                 "--output", str(tmp_path / "x.json")]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_bench_data_records_failures_without_aborting(monkeypatch, capsys):
    import repro.harness.bench as bench_mod

    def boom(name, scale, repeats, verify):
        raise RuntimeError("exploded")

    monkeypatch.setattr(bench_mod, "run_benchmark", boom)
    data = bench_data(["Series-af"])
    assert data["workloads"] == [
        {"name": "Series-af", "scale": "tiny",
         "error": "RuntimeError: exploded"}
    ]


def test_parallel_bench_writes_pr5_schema(tmp_path, capsys):
    out = tmp_path / "BENCH_PR5.json"
    code = main(["--parallel", "--scale", "tiny", "--jobs", "1,2",
                 "--only", "Jacobi", "--output", str(out),
                 "--tag", "unit-test", "--parallel-backend", "auto"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == LEGS_SCHEMA and data["mode"] == "parallel"
    assert data["tag"] == "unit-test"
    assert data["cpu_count"] >= 1
    (w,) = data["workloads"]
    assert w["name"] == "Jacobi"
    assert w["identical"] is True
    assert w["num_access_events"] > 0
    rows = {r["leg"]: r for r in w["legs"]}
    assert list(rows) == ["jobs-1", "jobs-2"]
    assert rows["jobs-1"]["freeze_seconds"] > 0
    assert rows["jobs-1"]["speedup"] == 1.0
    assert rows["jobs-2"]["seconds"] > 0 and rows["jobs-2"]["speedup"] > 0
    # Tiny Jacobi is below the split break-even: the row says it timed
    # one in-process shard, not a two-way split.
    assert rows["jobs-2"]["backend"] == "inline"
    assert rows["jobs-2"]["shards"] == 1


def test_parallel_bench_jobs_parsing(tmp_path):
    import pytest

    for bad in ("0,2", "nope"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--parallel", "--jobs", bad,
                  "--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2


#: Each mode's flags and the legs it must time, in order.
MODES = {
    None: ([], None),
    "parallel": (["--parallel", "--jobs", "1,2"], ["jobs-1", "jobs-2"]),
    "throughput": (["--throughput"], ["replay", "fast"]),
    "backends": (["--backends"], ["dtrg", "vc"]),
    "executors": (["--executors", "--workers", "1,2"],
                  ["serial", "threads-1", "threads-2"]),
    "telemetry": (["--telemetry"], ["detached", "served"]),
}


def _bench(tmp_path, *args):
    out = tmp_path / "bench.json"
    code = main(["--scale", "tiny", "--only", "Jacobi",
                 "--output", str(out), *args])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("mode", list(MODES), ids=str)
def test_every_mode_writes_its_schema(mode, tmp_path, capsys):
    flags, legs = MODES[mode]
    code, data = _bench(tmp_path, *flags)
    (w,) = data["workloads"]
    assert w["name"] == "Jacobi" and w["scale"] == "tiny"
    assert w["races"] == 0
    violations = data["violations"]
    if mode == "telemetry":
        # A tiny leg takes under a millisecond, so the 5% bound reads
        # timer and scheduler noise here; it has its own planted test
        # below.  Any other violation still fails.
        violations = [v for v in violations if "overhead" not in v]
        assert code == (1 if data["violations"] else 0)
    else:
        assert code == 0
    assert violations == []
    if mode is None:
        assert data["schema"] == BENCH_SCHEMA
        assert w["structural"]["num_tasks"] > 0
        return
    assert data["schema"] == LEGS_SCHEMA and data["mode"] == mode
    assert data["repeats"] == runner.MODES[mode].min_repeats
    assert w["identical"] is True and w["mismatches"] == []
    assert w["num_events"] > w["num_access_events"] > 0
    assert [leg["leg"] for leg in w["legs"]] == legs
    for leg in w["legs"]:
        assert leg["status"] == "ok" and leg["races"] == 0
        assert leg["seconds"] > 0 and leg["events_per_second"] > 0
    assert w["legs"][0]["speedup"] == 1.0


def test_a_leg_whose_verdict_differs_fails(tmp_path, monkeypatch, capsys):
    real = runner.check_trace_fast

    def miscounting(*args, **kwargs):
        result = real(*args, **kwargs)
        result.precede_calls_saved += 1
        return result

    monkeypatch.setattr(runner, "check_trace_fast", miscounting)
    code, data = _bench(tmp_path, "--throughput")
    assert code == 1
    (w,) = data["workloads"]
    assert w["identical"] is False
    assert w["mismatches"] == [
        "fast: precede_calls_saved differs from replay"]
    assert data["violations"] == [
        "Jacobi@tiny: fast: precede_calls_saved differs from replay"]


def test_an_engine_error_fails(tmp_path, monkeypatch, capsys):
    real = runner.DeterminacyRaceDetector

    def detector(engine="array", **kwargs):
        if engine == "vc":
            raise RuntimeError("planted")
        return real(engine=engine, **kwargs)

    monkeypatch.setattr(runner, "DeterminacyRaceDetector", detector)
    code, data = _bench(tmp_path, "--backends")
    assert code == 1
    (w,) = data["workloads"]
    dtrg, vc = w["legs"]
    assert dtrg["status"] == "ok"
    assert vc == {"leg": "vc", "status": "error",
                  "detail": "RuntimeError: planted"}
    assert w["identical"] is False
    assert data["violations"] == ["Jacobi@tiny: vc: RuntimeError: planted"]


def test_a_served_leg_over_the_bound_fails(tmp_path, monkeypatch, capsys):
    import time

    real = runner.check_trace_fast

    def slow_when_served(*args, progress=None, **kwargs):
        if progress is not None:
            time.sleep(0.05)
        return real(*args, progress=progress, **kwargs)

    monkeypatch.setattr(runner, "check_trace_fast", slow_when_served)
    code, data = _bench(tmp_path, "--telemetry")
    assert code == 1
    (w,) = data["workloads"]
    assert w["identical"] is True
    served = w["legs"][1]
    assert served["leg"] == "served" and served["overhead_pct"] > 100
    assert served["scrapes"] >= 1
    (violation,) = data["violations"]
    assert "served overhead" in violation and "5.0% budget" in violation


def test_a_half_again_slower_served_leg_fails_at_nine_rounds(
        tmp_path, monkeypatch, capsys):
    # CI's gate: table2 Jacobi, best of nine interleaved rounds.  A served
    # leg that takes half as long again as its own check must still fail.
    import time

    real = runner.check_trace_fast

    def slow_when_served(*args, progress=None, **kwargs):
        start = time.perf_counter()
        result = real(*args, progress=progress, **kwargs)
        if progress is not None:
            end = time.perf_counter()
            deadline = end + 0.5 * (end - start)
            while time.perf_counter() < deadline:
                pass
        return result

    monkeypatch.setattr(runner, "check_trace_fast", slow_when_served)
    out = tmp_path / "bench.json"
    code = main(["--telemetry", "--scale", "table2", "--only", "Jacobi",
                 "--repeats", "9", "--output", str(out)])
    data = json.loads(out.read_text())
    assert code == 1 and data["repeats"] == 9
    (violation,) = data["violations"]
    assert "served overhead" in violation and "5.0% budget" in violation


def _floors(tmp_path, floors, tolerance=None):
    path = tmp_path / "floors.json"
    path.write_text(json.dumps({
        "mode": "throughput", "scale": "tiny",
        "tolerance": tolerance or {}, "workloads": floors,
    }))
    return str(path)


@pytest.mark.parametrize("floors, tolerance, expect", [
    ({"Jacobi": {"fast.access_events_per_second": 1e12}},
     {"fast.access_events_per_second": 0.1},
     "fast.access_events_per_second"),
    ({"Jacobi": {"fast.speedup": 1000}}, None, "fast.speedup"),
    ({"Series-af": {"fast.speedup": 0.1}}, None,
     "Series-af: missing from the run"),
], ids=["absolute-floor", "ratio-floor", "missing-row"])
def test_a_floor_breach_fails(floors, tolerance, expect, tmp_path, capsys):
    code, data = _bench(tmp_path, "--throughput", "--baseline",
                        _floors(tmp_path, floors, tolerance))
    assert code == 1
    (violation,) = data["violations"]
    assert expect in violation
    assert data["workloads"][0]["identical"] is True


def test_floors_hold_and_tolerance_applies(tmp_path, capsys):
    code, data = _bench(tmp_path, "--throughput")
    fast = data["workloads"][0]["legs"][1]
    measured = fast["access_events_per_second"]
    floors = {"Jacobi": {"fast.access_events_per_second": measured * 1.05,
                         "fast.speedup": fast["speedup"]}}
    assert check_floors(data, {"scale": "tiny", "workloads": floors,
                               "tolerance": {}}) == [
        f"Jacobi: fast.access_events_per_second {measured:,.2f} is below "
        f"the floor {measured * 1.05:,} (tolerance 0%)"]
    assert check_floors(data, {
        "scale": "tiny", "workloads": floors,
        "tolerance": {"fast.access_events_per_second": 0.1}}) == []


def test_baseline_for_another_mode_is_a_usage_error(tmp_path, capsys):
    path = _floors(tmp_path, {"Jacobi": {"fast.speedup": 0.1}})
    assert main(["--backends", "--baseline", path,
                 "--output", str(tmp_path / "x.json")]) == 2
    assert "floors for --throughput" in capsys.readouterr().err


@pytest.mark.parametrize("name, mode, legs", [
    ("throughput_baseline.json", "throughput", {"fast"}),
    ("backends_baseline.json", "backends", {"dtrg"}),
])
def test_checked_in_baselines_name_measured_fields(name, mode, legs):
    """Every floor in the checked-in files names a leg and a field its
    mode records: a run far above every floor passes them all."""
    from pathlib import Path

    baseline = json.loads(
        (Path(__file__).parents[2] / "benchmarks" / name).read_text())
    assert baseline["mode"] == mode
    fields = {key for floors in baseline["workloads"].values()
              for key in floors}
    assert {key.partition(".")[0] for key in fields} == legs
    assert set(baseline["tolerance"]) <= fields
    data = {"workloads": [
        {"name": wl, "scale": baseline["scale"], "legs": [
            {"leg": leg, **{key.partition(".")[2]: 1e15 for key in fields}}
            for leg in legs]}
        for wl in baseline["workloads"]]}
    assert check_floors(data, baseline) == []
