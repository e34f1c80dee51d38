"""End-to-end observability: instrumentation must observe, never perturb.

The load-bearing guarantee of :mod:`repro.obs` is two-sided:

* **off** — no hook point installs anything; executed code is identical
  to the pre-observability paths (unit-tested in ``tests/obs``);
* **on** — every structural number the harness reports (the Table 2
  columns, detector counters, race verdicts) is bit-identical to the
  uninstrumented run, while the trace/metrics sinks fill up on the side.
  Both runs are the same engine: ``obs`` observes the kernel rather than
  selecting another detector.
"""

import json

from repro.core.detector import DeterminacyRaceDetector
from repro.graph import GraphBuilder
from repro.obs import (
    NULL_OBSERVABILITY,
    Observability,
    RingTracer,
    validate_chrome_trace,
)
from repro.runtime.runtime import Runtime
from repro.graph.schedule import WorkStealingSimulator
from repro.memory.shared import SharedArray
from repro.workloads import jacobi, smith_waterman
from repro.workloads.common import run_instrumented


def structural_columns(run):
    m = run.metrics
    d = run.detector
    return {
        "#Tasks": m.num_tasks,
        "#NTJoins": m.num_nt_joins,
        "#SharedMem": m.num_shared_accesses,
        "#AvgReaders": run.avg_readers,
        "precede_queries": d.dtrg.num_precede_queries,
        "num_visits": d.dtrg.num_visits,
        "mutation_epoch": d.dtrg.mutation_epoch,
        "cache_hits": d.perf_stats["cache_hits"],
        "cache_misses": d.perf_stats["cache_misses"],
        "shadow_fast_hits": d.perf_stats["shadow_fast_hits"],
        "precede_calls_saved": d.perf_stats["precede_calls_saved"],
        "races": sorted(d.racy_locations, key=repr),
    }


def test_table2_columns_bit_identical_with_tracing_on():
    for module, entry in (
        (jacobi, jacobi.run_future),
        (smith_waterman, smith_waterman.run_future),
    ):
        params = module.default_params("tiny")
        plain = run_instrumented(lambda rt: entry(rt, params), detect=True)
        obs = Observability(tracer=RingTracer())
        traced = run_instrumented(
            lambda rt: entry(rt, params), detect=True, obs=obs
        )
        assert plain.detector.engine == traced.detector.engine == "array"
        assert structural_columns(plain) == structural_columns(traced)
        # ... and the trace actually recorded the run.
        events = obs.tracer.events()
        assert any(e["ph"] == "X" and e["cat"] == "task" for e in events)
        shadow = [e for e in events if e["cat"] == "shadow"]
        assert len(shadow) == plain.metrics.num_shared_accesses
        assert all("ns" not in e["args"] for e in shadow)
        assert validate_chrome_trace(obs.tracer.to_chrome()) == []


def test_null_observability_equals_no_observability():
    params = jacobi.default_params("tiny")
    plain = run_instrumented(
        lambda rt: jacobi.run_future(rt, params), detect=True
    )
    null = run_instrumented(
        lambda rt: jacobi.run_future(rt, params), detect=True,
        obs=NULL_OBSERVABILITY,
    )
    assert structural_columns(plain) == structural_columns(null)


def racy_run(obs=None):
    det = DeterminacyRaceDetector(obs=obs)
    rt = Runtime(observers=[det], obs=obs)
    mem = SharedArray(rt, "d", 2)

    def program(rt_):
        f = rt_.future(lambda: mem.write(0, 1), name="producer")
        mem.read(0)  # race: no get() yet
        f.get()

    rt.run(program)
    return det


def test_race_verdicts_and_instants():
    plain = racy_run()
    obs = Observability(tracer=RingTracer())
    traced = racy_run(obs)
    assert traced.engine == "array"
    assert plain.racy_locations == traced.racy_locations == {("d", 0)}
    assert plain.race_rows == traced.race_rows
    races = [e for e in obs.tracer.events() if e["cat"] == "race"]
    assert len(races) == 1
    assert races[0]["args"]["kind"] == "write-read"
    assert obs.registry.counter("races_reported").value == 1
    # The PRECEDE instants carry the cache-outcome args.
    precedes = [e for e in obs.tracer.events() if e["name"] == "precede"]
    assert precedes, "expected PRECEDE instants in the trace"
    assert all(
        e["args"]["outcome"] in ("level0", "memo", "search")
        for e in precedes
    )
    shadow = [e for e in obs.tracer.events() if e["cat"] == "shadow"]
    assert [e["name"] for e in shadow] == ["shadow.write", "shadow.read"]
    assert shadow[1]["args"] == {"loc": "('d', 0)", "readers": 0}


def test_race_instants_under_raise_policy():
    """The kernel's RAISE hook runs after the obs race instant."""
    import pytest

    from repro.runtime.errors import RaceError

    obs = Observability(tracer=RingTracer())
    det = DeterminacyRaceDetector("raise", obs=obs)
    rt = Runtime(observers=[det], obs=obs)
    mem = SharedArray(rt, "d", 1)

    def program(rt_):
        rt_.future(lambda: mem.write(0, 1))
        mem.read(0)
        rt_.async_(lambda: None)  # closes the block: the kernel checks it

    with pytest.raises(RaceError):
        rt.run(program)
    assert obs.registry.counter("races_reported").value == 1
    assert len(det.races) == 1


def test_finish_and_get_events_in_trace():
    obs = Observability(tracer=RingTracer())
    rt = Runtime(obs=obs)

    def program(rt_):
        with rt_.finish():
            f = rt_.future(lambda: 42, name="prod")
        return f.get()

    assert rt.run(program) == 42
    events = obs.tracer.events()
    finishes = [e for e in events if e["cat"] == "finish"]
    # Explicit scope + implicit root scope.
    assert len(finishes) == 2
    joins = [e for e in events if e["cat"] == "join"]
    assert len(joins) == 1
    spans = {e["name"] for e in events if e["cat"] == "task"}
    assert "prod" in spans


def test_workstealing_stats_unperturbed_and_traced():
    obs = Observability(tracer=RingTracer())
    builder = GraphBuilder()
    rt = Runtime(observers=[builder])

    def program(rt_):
        with rt_.finish():
            for i in range(6):
                rt_.async_(lambda: None, name=f"t{i}")

    rt.run(program)
    graph = builder.graph
    plain = WorkStealingSimulator(graph, 3, seed=7).run()
    traced = WorkStealingSimulator(graph, 3, seed=7, obs=obs).run()
    assert (plain.makespan, plain.steals, plain.failed_steals, plain.busy) \
        == (traced.makespan, traced.steals, traced.failed_steals, traced.busy)
    events = obs.tracer.events()
    steps = [e for e in events if e["ph"] == "X" and e["cat"] == "ws"]
    assert len(steps) == graph.num_steps
    # Virtual clock: span endpoints stay within the simulated makespan.
    assert all(e["ts"] + e["dur"] <= traced.makespan for e in steps)
    assert obs.registry.counter("ws_steals").value == traced.steals
    assert (obs.registry.counter("ws_failed_steals").value
            == traced.failed_steals)
    assert validate_chrome_trace(obs.tracer.to_chrome()) == []


def test_metrics_json_dump_shape(tmp_path):
    params = jacobi.default_params("tiny")
    obs = Observability()
    run_instrumented(
        lambda rt: jacobi.run_future(rt, params), detect=True, obs=obs
    )
    path = tmp_path / "metrics.json"
    obs.write_metrics(path)
    data = json.loads(path.read_text())
    assert set(data) == {"counters", "histograms"}
    assert data["counters"]["tasks_spawned"] > 0
    assert data["histograms"]["precede_latency_ns"]["count"] \
        == (data["counters"]["precede_level0"]
            + data["counters"]["precede_memo"]
            + data["counters"]["precede_search"])
    assert data["histograms"]["cell_readers"]["count"] \
        == data["counters"]["shadow_reads"] + data["counters"]["shadow_writes"]
