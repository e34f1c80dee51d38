"""Integration tests for the ``repro-bench`` JSON artifact entry point."""

import json

from repro.harness.bench import BENCH_SCHEMA, bench_data, main


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
        assert "cache_hit_rate" in w["detector_perf"]
    # Jacobi's wavefront of future joins produces non-tree edges and
    # therefore a meaningful PRECEDE cache hit rate.
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
        {"name": "Series-af", "error": "RuntimeError: exploded"}
    ]


def test_parallel_bench_writes_pr5_schema(tmp_path, capsys):
    from repro.harness.bench import PARALLEL_BENCH_SCHEMA

    out = tmp_path / "BENCH_PR5.json"
    code = main(["--parallel", "--scale", "tiny", "--jobs", "1,2",
                 "--only", "Jacobi", "--output", str(out),
                 "--tag", "unit-test", "--parallel-backend", "auto"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == PARALLEL_BENCH_SCHEMA
    assert data["tag"] == "unit-test"
    assert data["cpu_count"] >= 1
    (w,) = data["workloads"]
    assert w["name"] == "Jacobi"
    assert w["identical_across_jobs"] is True
    assert w["num_access_events"] > 0
    assert w["freeze_seconds"] > 0
    rows = {r["jobs"]: r for r in w["jobs"]}
    assert set(rows) == {1, 2}
    assert rows[1]["speedup"] == 1.0
    assert rows[2]["seconds"] > 0 and rows[2]["speedup"] > 0
    # Tiny Jacobi is below the split break-even: the row says it timed
    # one in-process shard, not a two-way split.
    assert rows[2]["backend"] == "inline" and rows[2]["shards"] == 1


def test_parallel_bench_jobs_parsing(tmp_path):
    import pytest

    for bad in ("0,2", "nope"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--parallel", "--jobs", bad,
                  "--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2
