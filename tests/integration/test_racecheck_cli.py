"""Integration tests for the repro-racecheck CLI."""

import textwrap

import pytest

from repro.tools.racecheck import main


@pytest.fixture()
def racy_program(tmp_path):
    path = tmp_path / "racy.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "data", 4)

        def program(rt, data):
            f = rt.future(lambda: data.write(0, 1), name="producer")
            data.read(0)
            f.get()
    """))
    return str(path)


@pytest.fixture()
def clean_program(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "data", 4)

        def program(rt, data):
            f = rt.future(lambda: data.write(0, 1))
            f.get()
            assert data.read(0) == 1
    """))
    return str(path)


def test_racy_program_exit_one(racy_program, capsys):
    assert main([racy_program]) == 1
    out = capsys.readouterr().out
    assert "determinacy race" in out
    assert "producer" in out


def test_clean_program_exit_zero(clean_program, capsys):
    assert main([clean_program]) == 0
    assert "no determinacy races" in capsys.readouterr().out


def test_metrics_flag(clean_program, capsys):
    main([clean_program, "--metrics"])
    out = capsys.readouterr().out
    assert "tasks: 1 (1 futures)" in out
    assert "shared accesses: 2" in out


def test_dot_and_trace_outputs(racy_program, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    trace = tmp_path / "t.pkl"
    main([racy_program, "--dot", str(dot), "--trace", str(trace)])
    assert dot.read_text().startswith("digraph")
    from repro.core.events import Trace
    from repro.core.detector import DeterminacyRaceDetector
    from repro.memory.tracer import replay_trace

    loaded = Trace.load(str(trace))
    det = DeterminacyRaceDetector()
    replay_trace(loaded, [det])
    assert det.report.racy_locations == {("data", 0)}


def test_witness_flag(racy_program, capsys):
    main([racy_program, "--witness"])
    out = capsys.readouterr().out
    assert "schedule witnesses" in out
    assert "('data', 0)" in out


def test_raise_policy(racy_program, capsys):
    assert main([racy_program, "--policy", "raise"]) == 1
    assert "aborted at first" in capsys.readouterr().out


def test_unsupported_detector_exit_two(racy_program, capsys):
    assert main([racy_program, "--detector", "espbags"]) == 2
    assert "unsupported construct" in capsys.readouterr().err


def test_baseline_detector_on_clean_af_program(tmp_path, capsys):
    path = tmp_path / "af.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "d", 2)

        def program(rt, d):
            with rt.finish():
                rt.async_(lambda: d.write(0, 1))
                rt.async_(lambda: d.write(1, 2))
    """))
    assert main([str(path), "--detector", "spd3"]) == 0


@pytest.mark.parametrize("fixture", ["racy_program", "clean_program"])
def test_vector_clock_detector_matches_parallel(fixture, request, capsys):
    program = request.getfixturevalue(fixture)
    runs = []
    for name in ("vector-clock", "parallel"):
        code = main([program, "--detector", name])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == (1 if fixture == "racy_program" else 0)
    # Same class, so it is accepted where only schedule-robust ones are.
    assert main([program, "--runtime", "threads",
                 "--detector", "vector-clock"]) == runs[0][0]


def test_missing_entry_point(tmp_path, capsys):
    path = tmp_path / "empty.py"
    path.write_text("x = 1\n")
    assert main([str(path)]) == 2
    assert "does not define" in capsys.readouterr().err


def test_raise_policy_still_writes_artifacts(racy_program, tmp_path, capsys):
    """--policy raise aborts at the first race, but the artifacts recorded
    up to the abort must still be written (regression: they were dropped)."""
    dot = tmp_path / "g.dot"
    trace = tmp_path / "t.pkl"
    code = main([racy_program, "--policy", "raise", "--dot", str(dot),
                 "--trace", str(trace), "--metrics"])
    assert code == 1
    out = capsys.readouterr().out
    assert "aborted at first" in out
    assert "shared accesses:" in out  # --metrics no longer silently dropped
    assert dot.exists() and dot.read_text().startswith("digraph")
    from repro.core.events import Trace

    loaded = Trace.load(str(trace))
    assert len(loaded) > 0  # the prefix up to the aborting access


def test_user_program_exception_exits_two(tmp_path, capsys):
    path = tmp_path / "boom.py"
    path.write_text("def program(rt):\n    raise ValueError('boom')\n")
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "boom" in err


def test_user_program_exception_still_writes_trace(tmp_path, capsys):
    path = tmp_path / "boom2.py"
    path.write_text(
        "from repro import SharedArray\n"
        "def setup(rt):\n    return SharedArray(rt, 'd', 2)\n"
        "def program(rt, d):\n"
        "    d.write(0, 1)\n"
        "    raise RuntimeError('late crash')\n"
    )
    trace = tmp_path / "t.pkl"
    assert main([str(path), "--trace", str(trace)]) == 2
    from repro.core.events import Trace

    assert len(Trace.load(str(trace))) == 1  # the write before the crash


@pytest.mark.parametrize("runtime", ["serial", "threads", "asyncio"])
def test_crash_still_reports_the_race_in_mains_unchecked_tail(
        runtime, tmp_path, capsys):
    """Main's read after the spawn is still unchecked when the program
    raises (no structural event of main follows it); the aborted run
    checks it and prints the race, then exits 2."""
    prefix = "async " if runtime == "asyncio" else ""
    path = tmp_path / "crash_tail.py"
    path.write_text(
        "from repro import SharedArray\n"
        "def setup(rt):\n    return SharedArray(rt, 'd', 2)\n"
        f"{prefix}def program(rt, d):\n"
        "    rt.future(lambda: d.write(0, 1), name='producer')\n"
        "    d.read(0)\n"
        "    raise RuntimeError('late crash')\n"
    )
    assert main([str(path), "--runtime", runtime]) == 2
    captured = capsys.readouterr()
    assert "late crash" in captured.err
    assert "races before the error:" in captured.out
    assert "('d', 0)" in captured.out and "write-read" in captured.out


def test_import_time_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("1 / 0\n")
    assert main([str(path)]) == 2
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_perfetto_and_metrics_json_outputs(racy_program, tmp_path, capsys):
    """--perfetto emits a schema-valid Chrome trace carrying task spans,
    finish spans, and PRECEDE instants with cache-outcome args;
    --metrics-json dumps the registry."""
    import json

    from repro.obs.validate import validate_chrome_trace

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    code = main([racy_program, "--perfetto", str(trace),
                 "--metrics-json", str(metrics)])
    assert code == 1  # still reports the race
    data = json.loads(trace.read_text())
    assert validate_chrome_trace(data) == []
    events = data["traceEvents"]
    task_spans = [e for e in events
                  if e["ph"] == "X" and e.get("cat") == "task"]
    assert any(e["name"] == "producer" for e in task_spans)
    assert any(e["ph"] == "X" and e.get("cat") == "finish" for e in events)
    precedes = [e for e in events
                if e["ph"] == "i" and e["name"] == "precede"]
    assert precedes
    assert all(e["args"]["outcome"] in ("level0", "memo", "search")
               for e in precedes)
    assert any(e["ph"] == "i" and e.get("cat") == "race" for e in events)

    stats = json.loads(metrics.read_text())
    assert set(stats) == {"counters", "histograms"}
    assert stats["counters"]["races_reported"] == 1
    assert stats["counters"]["tasks_spawned"] >= 1


def test_perfetto_written_even_when_program_crashes(tmp_path, capsys):
    import json

    path = tmp_path / "boom3.py"
    path.write_text(
        "from repro import SharedArray\n"
        "def setup(rt):\n    return SharedArray(rt, 'd', 2)\n"
        "def program(rt, d):\n"
        "    d.write(0, 1)\n"
        "    raise RuntimeError('late crash')\n"
    )
    trace = tmp_path / "t.json"
    assert main([str(path), "--perfetto", str(trace)]) == 2
    data = json.loads(trace.read_text())
    assert any(e.get("cat") == "shadow" for e in data["traceEvents"])


def test_explain_prints_sites_and_witness(racy_program, capsys):
    assert main([racy_program, "--explain"]) == 1
    out = capsys.readouterr().out
    assert "prev access at" in out and "racy.py" in out
    assert "race witnesses (non-ordering certificates):" in out
    assert "witness w0: write-read race on ('data', 0)" in out
    assert "PRECEDE(1, 0) = False" in out
    assert "reverse direction" in out


def test_explain_requires_dtrg(racy_program, capsys):
    assert main([racy_program, "--explain", "--detector", "exact"]) == 2
    assert "require --detector dtrg" in capsys.readouterr().err


def test_witness_json_html_and_verification(racy_program, tmp_path, capsys):
    import json

    from repro.obs.validate import validate_witness_report

    wjson = tmp_path / "witness.json"
    html = tmp_path / "report.html"
    dot = tmp_path / "g.dot"
    code = main([racy_program, "--verify-witness",
                 "--witness-json", str(wjson), "--html", str(html),
                 "--dot", str(dot)])
    assert code == 1  # races found, every witness confirmed
    out = capsys.readouterr().out
    assert "witness w0: confirmed against brute-force closure" in out

    data = json.loads(wjson.read_text())
    assert validate_witness_report(data) == []
    assert data["schema"] == "repro.race-witness-report/1"
    assert len(data["witnesses"]) == 1
    assert data["witnesses"][0]["race"]["kind"] == "write-read"

    page = html.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "witness <code>w0</code>" in page
    assert "Flight recorder" in page
    assert "digraph" in page  # DOT source embedded

    graph = dot.read_text()
    assert "(racing)" in graph and "salmon" in graph


def test_explain_off_dot_is_unchanged(racy_program, tmp_path):
    """Without --explain the DOT output carries no witness overlay —
    byte-identical to the pre-provenance renderer."""
    plain = tmp_path / "plain.dot"
    main([racy_program, "--dot", str(plain)])
    assert "racing" not in plain.read_text()


def test_html_report_on_clean_program(clean_program, tmp_path, capsys):
    html = tmp_path / "clean.html"
    assert main([clean_program, "--html", str(html)]) == 0
    page = html.read_text()
    assert "no determinacy races detected" in page


def test_html_written_even_on_raise_abort(racy_program, tmp_path, capsys):
    html = tmp_path / "abort.html"
    wjson = tmp_path / "abort.json"
    code = main([racy_program, "--policy", "raise", "--html", str(html),
                 "--witness-json", str(wjson)])
    assert code == 1
    assert "aborted at first" in capsys.readouterr().out
    assert html.exists() and "witness" in html.read_text()
    import json

    from repro.obs.validate import validate_witness_report

    assert validate_witness_report(json.loads(wjson.read_text())) == []


def test_metrics_json_without_detector_has_runtime_counters(
        clean_program, tmp_path, capsys):
    """Obs works with the baseline detectors too: runtime spans and
    shadow counters flow even when the dtrg-specific hooks never fire."""
    import json

    metrics = tmp_path / "m.json"
    code = main([clean_program, "--detector", "brute-force",
                 "--metrics-json", str(metrics)])
    assert code == 0
    stats = json.loads(metrics.read_text())
    # main + the producer future both get spans.
    assert stats["counters"]["tasks_spawned"] == 2
    # The dtrg-specific hooks never fire under a baseline detector.
    assert stats["counters"]["precede_search"] == 0
    assert stats["histograms"]["precede_latency_ns"]["count"] == 0


# ---------------------------------------------------------------------- #
# Two-phase parallel checking (--jobs)                                   #
# ---------------------------------------------------------------------- #
def test_jobs_output_identical_to_sequential(racy_program, capsys):
    assert main([racy_program]) == 1
    sequential = capsys.readouterr().out
    assert main([racy_program, "--jobs", "2"]) == 1
    parallel = capsys.readouterr().out
    assert parallel == sequential
    assert "producer" in parallel  # live task names survive the replay


def test_jobs_clean_program_exit_zero(clean_program, capsys):
    assert main([clean_program, "--jobs", "4"]) == 0
    assert "no determinacy races" in capsys.readouterr().out


def test_jobs_auto_backend_clean_program_exit_zero(clean_program, capsys):
    assert main([clean_program, "--jobs", "2",
                 "--parallel-backend", "auto"]) == 0
    assert "no determinacy races" in capsys.readouterr().out


def test_jobs_metrics_prints_parallel_stats(racy_program, capsys):
    assert main([racy_program, "--jobs", "2", "--metrics"]) == 1
    out = capsys.readouterr().out
    assert "parallel check: jobs=2" in out
    assert "freeze=" in out
    # A program this small is below the split break-even.
    assert "backend=inline shards=1 movable_rows=" in out


def test_jobs_rejects_raise_policy(racy_program, capsys):
    assert main([racy_program, "--jobs", "2", "--policy", "raise"]) == 2
    assert "cannot abort" in capsys.readouterr().err


def test_jobs_accepts_explain_family(racy_program, tmp_path, capsys):
    assert main([racy_program, "--jobs", "2", "--explain"]) == 1
    assert "witness w0: write-read race" in capsys.readouterr().out
    assert main([racy_program, "--jobs", "2",
                 "--html", str(tmp_path / "r.html")]) == 1
    assert "witness <code>w0</code>" in (tmp_path / "r.html").read_text()


def test_jobs_rejects_non_dtrg_detector(racy_program, capsys):
    assert main([racy_program, "--jobs", "2",
                 "--detector", "vector-clock"]) == 2
    assert "--detector dtrg" in capsys.readouterr().err


def test_jobs_rejects_zero(racy_program, capsys):
    assert main([racy_program, "--jobs", "0"]) == 2


def test_jobs_writes_trace_and_obs_artifacts(racy_program, tmp_path, capsys):
    import json

    trace = tmp_path / "out.trace"
    metrics = tmp_path / "metrics.json"
    assert main([racy_program, "--jobs", "2", "--trace", str(trace),
                 "--metrics-json", str(metrics)]) == 1
    assert trace.exists()
    dump = json.loads(metrics.read_text())
    assert dump["counters"]["parallel_checks"] == 1


# ---------------------------------------------------------------------- #
# Batched single-thread checking (--fast)                                #
# ---------------------------------------------------------------------- #
def test_fast_output_identical_to_sequential(racy_program, capsys):
    assert main([racy_program]) == 1
    sequential = capsys.readouterr().out
    assert main([racy_program, "--fast"]) == 1
    fast = capsys.readouterr().out
    assert fast == sequential
    assert "producer" in fast  # live task names survive the replay


def test_fast_clean_program_exit_zero(clean_program, capsys):
    assert main([clean_program, "--fast"]) == 0
    assert "no determinacy races" in capsys.readouterr().out


def test_fast_metrics_prints_fast_stats(racy_program, capsys):
    assert main([racy_program, "--fast", "--metrics"]) == 1
    out = capsys.readouterr().out
    assert "fast check:" in out
    assert "access-checks/s" in out


def test_fast_metrics_rate_is_the_access_check_rate(
        racy_program, monkeypatch, capsys):
    """The "access-checks/s" figure is the access-phase rate, not the rate
    of every event over the whole check; the always-zero encode time is
    not printed."""
    from repro.core.fastcheck import CheckResult

    monkeypatch.setattr(CheckResult, "access_events_per_second",
                        property(lambda self: 12345.0))
    monkeypatch.setattr(CheckResult, "events_per_second",
                        property(lambda self: 999.0))
    assert main([racy_program, "--fast", "--metrics"]) == 1
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("fast check:"))
    assert line.endswith("(12,345 access-checks/s)")
    assert "encode=" not in line


def test_fast_rejects_jobs(racy_program, capsys):
    assert main([racy_program, "--fast", "--jobs", "2"]) == 2
    assert "either --fast or --jobs" in capsys.readouterr().err


def test_fast_rejects_raise_policy_accepts_explain(racy_program, capsys):
    assert main([racy_program, "--fast", "--policy", "raise"]) == 2
    assert "cannot abort" in capsys.readouterr().err
    assert main([racy_program, "--fast", "--explain"]) == 1
    assert "witness w0: write-read race" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--fast", "--explain"],
    ["--jobs", "2", "--explain", "--verify-witness"],
])
def test_batched_explain_matches_serial(flags, racy_program, tmp_path,
                                        monkeypatch, capsys):
    """``--fast``/``--jobs`` explain races from the recorded trace, with
    the serial run's stdout and a byte-identical witness JSON."""
    runs = {}
    for name, extra in (("serial", ["--explain", "--verify-witness"]),
                        ("batched", flags)):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([racy_program, *extra,
                     "--witness-json", "w.json"]) == 1
        runs[name] = (capsys.readouterr().out,
                      (work / "w.json").read_bytes())
    serial_out, serial_json = runs["serial"]
    out, data = runs["batched"]
    assert data == serial_json
    assert "prev access at" in out and "PRECEDE(1, 0) = False" in out
    if "--verify-witness" in flags:
        assert out == serial_out
    else:
        assert out == serial_out.replace(
            "witness w0: confirmed against brute-force closure\n", "")


@pytest.mark.parametrize("obs", [False, True], ids=["kernel", "reference"])
def test_raise_explain_writes_the_one_witness(obs, tmp_path, capsys):
    """``--policy raise`` stops at the first of two races; the abort path
    still explains it.  With ``--perfetto`` (the ``reference`` case, named
    for the engine it once ran) the kernel runs observed, over
    ``TracedArrayDTRG``, and raises when the racing block closes."""
    import json

    path = tmp_path / "two_races.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "data", 2)

        def program(rt, data):
            f = rt.future(lambda: (data.write(0, 1), data.write(1, 1)))
            data.read(0)
            data.read(1)
            f.get()
    """))
    assert main([str(path)]) == 1
    assert "2 determinacy race(s)" in capsys.readouterr().out
    wjson = tmp_path / "w.json"
    extra = ["--perfetto", str(tmp_path / "t.json")] if obs else []
    assert main([str(path), "--policy", "raise", "--explain",
                 "--witness-json", str(wjson), *extra]) == 1
    out = capsys.readouterr().out
    assert "aborted at first" in out
    assert "1 witness(es) written" in out
    (witness,) = json.loads(wjson.read_text())["witnesses"]
    assert witness["race"]["loc"] == ["data", 0]
    assert witness["race"]["current_site"].endswith("(program)")
    assert witness["race"]["prev_site"].endswith("(<lambda>)")


def test_fast_rejects_non_dtrg_detector(racy_program, capsys):
    assert main([racy_program, "--fast", "--detector", "vector-clock"]) == 2
    assert "--detector dtrg" in capsys.readouterr().err


def test_fast_abort_still_writes_artifacts_and_exits_two(tmp_path, capsys):
    """A user-program abort during --fast recording must write the trace
    and obs artifacts gathered so far and exit 2, exactly like the replay
    path (the fast path used to drop them on the floor)."""
    import json

    path = tmp_path / "boom_fast.py"
    path.write_text(
        "from repro import SharedArray\n"
        "def setup(rt):\n    return SharedArray(rt, 'd', 2)\n"
        "def program(rt, d):\n"
        "    d.write(0, 1)\n"
        "    raise RuntimeError('late crash')\n"
    )
    trace = tmp_path / "t.pkl"
    metrics = tmp_path / "m.json"
    assert main([str(path), "--fast", "--trace", str(trace),
                 "--metrics-json", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert "RuntimeError" in err and "late crash" in err
    from repro.core.events import Trace

    assert len(Trace.load(str(trace))) == 1  # the write before the crash
    dump = json.loads(metrics.read_text())
    assert "counters" in dump
