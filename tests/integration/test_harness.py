"""Integration tests for the harness: runner, table generator, CLI."""

import pytest

from repro.harness.report import render_table
from repro.harness.runner import BENCHMARKS, run_benchmark
from repro.harness.table2 import PAPER_TABLE2, main, qualitative_checks


def test_benchmark_registry_matches_paper_rows():
    assert list(BENCHMARKS) == [r["Benchmark"] for r in PAPER_TABLE2]


def test_run_benchmark_produces_complete_row():
    res = run_benchmark("Series-af", "tiny")
    row = res.row()
    for column in ("#Tasks", "#NTJoins", "#SharedMem", "#AvgReaders",
                   "Seq (ms)", "Racedet (ms)", "Slowdown"):
        assert column in row
    assert res.metrics.num_tasks > 0
    assert res.races == 0


def test_run_benchmark_unknown_name():
    with pytest.raises(KeyError):
        run_benchmark("NoSuch", "tiny")


def test_qualitative_checks_pass_on_tiny_subset():
    results = {
        name: run_benchmark(name, "tiny")
        for name in ("Series-af", "Series-future", "Jacobi")
    }
    lines = qualitative_checks(results)
    assert lines
    assert all(line.startswith("[PASS]") for line in lines), "\n".join(lines)


def test_render_table_alignment():
    table = render_table(
        [{"A": 1, "B": "xy"}, {"A": 1234567, "B": "z"}]
    )
    lines = table.splitlines()
    assert len(lines) == 4
    assert len({len(line) for line in lines}) == 1  # all rows same width
    assert "1,234,567" in table


def test_cli_runs_single_benchmark(capsys):
    rc = main(["--scale", "tiny", "--bench", "Series-af", "--no-verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 2 reproduction" in out
    assert "Series-af" in out
    assert "Qualitative checks" in out


def test_cli_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["--bench", "Nope"])


def test_seq_column_times_a_warm_call(monkeypatch):
    """A workload's first call in a process is cold, so ``run_benchmark``
    makes one untimed ``serial`` call before it starts the clock."""
    import types

    from repro.harness import runner

    log = []
    series = BENCHMARKS["Series-af"].module
    module = types.SimpleNamespace(
        default_params=series.default_params, run_af=series.run_af,
        verify=series.verify, serial=lambda params: log.append("serial"),
    )
    monkeypatch.setitem(runner.BENCHMARKS, "Series-af",
                        runner.BenchmarkDef("Series-af", module, "run_af"))
    clock = runner.time.perf_counter
    monkeypatch.setattr(runner, "time", types.SimpleNamespace(
        perf_counter=lambda: log.append("clock") or clock()))
    run_benchmark("Series-af", "tiny", repeats=2)
    assert log.count("serial") == 3
    assert log[:3] == ["serial", "clock", "serial"]
