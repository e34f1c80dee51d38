"""Tests for the Observability hook bundle and the null-object protocol."""

import collections
import threading

import pytest

from repro import ThreadRuntime
from repro.core.array_dtrg import ArrayDTRG, TracedArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.obs import NULL_OBSERVABILITY, Observability, RingTracer
from repro.obs.validate import validate_chrome_trace


def enabled_obs():
    return Observability(tracer=RingTracer())


class TestNullObjectProtocol:
    def test_null_observability_is_disabled(self):
        assert NULL_OBSERVABILITY.enabled is False
        assert NULL_OBSERVABILITY.tracer is None

    def test_attach_null_is_a_true_no_op(self):
        # A null obs attaches nothing: the kernel runs the plain graph.
        for obs in (None, NULL_OBSERVABILITY):
            det = DeterminacyRaceDetector(obs=obs)
            assert type(det.dtrg) is ArrayDTRG

    def test_detector_normalizes_disabled_obs_to_none(self):
        det = DeterminacyRaceDetector(obs=NULL_OBSERVABILITY)
        assert det.obs is None
        assert det.engine == "array"
        # Disabled is no attachment, so the vc engine and the ablated
        # graph accept it.
        det = DeterminacyRaceDetector(obs=NULL_OBSERVABILITY, engine="vc")
        assert det.obs is None and det.engine == "vc"
        det = DeterminacyRaceDetector(obs=NULL_OBSERVABILITY, use_lsa=False)
        assert det.obs is None and det.engine == "array"

    def test_attach_enabled_rebinds_query_and_mutators(self):
        det = DeterminacyRaceDetector(obs=enabled_obs())
        assert det.engine == "array"
        assert isinstance(det.dtrg, TracedArrayDTRG)
        # The kernel binds these; the subclass overrides every one.
        for name in (
            "precede_idx", "add_task_idx", "record_join_idx", "merge_idx",
            "on_terminate_idx",
        ):
            assert name in vars(TracedArrayDTRG)

    @pytest.mark.parametrize("options", [
        dict(engine="vc"), dict(use_lsa=False), dict(memoize_visit=False),
        dict(use_intervals=False),
        dict(use_lsa=False, memoize_visit=False, use_intervals=False),
        dict(engine="array", use_intervals=False),
    ])
    def test_reference_engines_refuse_enabled_obs(self, options):
        """Every graph but the default one (vector clocks, each ablated
        graph) refuses an enabled obs: only TracedArrayDTRG is traced."""
        with pytest.raises(ValueError, match="observability"):
            DeterminacyRaceDetector(obs=enabled_obs(), **options)

    def test_dtrg_alias_is_observed_and_object_is_gone(self):
        det = DeterminacyRaceDetector(obs=enabled_obs(), engine="dtrg")
        assert isinstance(det.dtrg, TracedArrayDTRG)
        with pytest.raises(ValueError, match="AblatedArrayDTRG"):
            DeterminacyRaceDetector(engine="object")


class TestTracedArrayDTRG:
    def _graph(self, obs):
        """main spawns future a (ended), then future b, which gets a: a
        non-tree edge, so PRECEDE(a, b) needs a backward search."""
        g = TracedArrayDTRG(obs, ["main", "a", "b"])
        g.add_root_idx()
        a = g.add_task_idx(0, True)
        g.on_terminate_idx(a)
        b = g.add_task_idx(0, True)
        g.record_join_idx(b, a)
        return g, a, b

    def test_outcomes_search_memo_level0(self):
        obs = enabled_obs()
        g, a, b = self._graph(obs)
        assert g.precede_idx(a, b)  # searched, stored in the memo
        assert g.precede_idx(a, b)  # same epoch: answered by the memo
        assert g.precede_idx(0, b)  # main's interval contains b's
        outcomes = [e["args"]["outcome"] for e in obs.tracer.events()
                    if e["name"] == "precede"]
        assert outcomes == ["search", "memo", "level0"]
        assert obs.registry.histogram("explore_frontier").count == 3
        g.merge_idx(0, b)  # a mutation drops the memo
        g.precede_idx(a, b)
        assert obs.registry.counter("precede_memo").value == 1

    def test_counters_match_the_plain_graph(self):
        g, a, b = self._graph(enabled_obs())
        plain = ArrayDTRG()
        plain.add_root_idx()
        plain.add_task_idx(0, True)
        plain.on_terminate_idx(a)
        plain.add_task_idx(0, True)
        plain.record_join_idx(b, a)
        for graph in (g, plain):
            graph.precede_idx(a, b)
            graph.precede_idx(a, b)
        for attr in ("num_precede_queries", "num_visits", "mutation_epoch",
                     "num_non_tree_edges"):
            assert getattr(g, attr) == getattr(plain, attr), attr

    def test_mutation_instants(self):
        obs = enabled_obs()
        self._graph(obs)
        events = [(e["name"], e["args"].get("detail"))
                  for e in obs.tracer.events()]
        assert events == [
            ("dtrg.add_task", "a"), ("dtrg.terminate", "1"),
            ("dtrg.add_task", "b"), ("dtrg.record_join", "2<-1"),
        ]


class TestRuntimeSpans:
    def test_task_spans_pair_up(self):
        obs = enabled_obs()
        obs.task_begin(3, "worker", True)
        obs.task_end(3)
        events = obs.tracer.events()
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "worker"
        assert spans[0]["tid"] == 3
        assert spans[0]["args"]["future"] is True
        assert obs.registry.counter("tasks_spawned").value == 1

    def test_unmatched_end_is_ignored(self):
        obs = enabled_obs()
        obs.task_end(99)
        obs.finish_end(99)
        assert obs.tracer.events() == []

    def test_finish_spans_land_on_owner_track(self):
        obs = enabled_obs()
        obs.finish_begin(7, owner_tid=2)
        obs.finish_end(7)
        span = obs.tracer.events()[0]
        assert span["name"] == "finish#7"
        assert span["tid"] == 2

    def test_get_join_instant(self):
        obs = enabled_obs()
        obs.on_get(5, 4)
        inst = obs.tracer.events()[0]
        assert inst["cat"] == "join"
        assert inst["tid"] == 5
        assert inst["args"]["producer"] == 4


class TestDtrgHooks:
    def test_on_precede_records_metrics_and_instant(self):
        obs = enabled_obs()
        obs.on_precede("A", "B", True, 1500, 2, "search", epoch=7)
        obs.on_precede("A", "B", True, 300, 0, "memo", epoch=7)
        obs.on_precede("A", "C", False, 100, 0, "level0", epoch=8)
        reg = obs.registry
        assert reg.counter("precede_search").value == 1
        assert reg.counter("precede_memo").value == 1
        assert reg.counter("precede_level0").value == 1
        assert reg.histogram("precede_latency_ns").count == 3
        assert reg.histogram("explore_frontier").count == 3
        instants = [
            e for e in obs.tracer.events() if e["name"] == "precede"
        ]
        assert instants[0]["args"]["outcome"] == "search"
        assert instants[0]["args"]["visited"] == 2

    def test_on_mutation_counts_by_kind(self):
        obs = enabled_obs()
        obs.on_mutation("add_task", 1, "T1")
        obs.on_mutation("merge", 2)
        assert obs.registry.counter("dtrg_add_task").value == 1
        assert obs.registry.counter("dtrg_merge").value == 1
        names = [e["name"] for e in obs.tracer.events()]
        assert names == ["dtrg.add_task", "dtrg.merge"]

    def test_metrics_only_mode_needs_no_tracer(self):
        obs = Observability(tracer=None)
        obs.task_begin(1, "t", False)
        obs.task_end(1)
        obs.on_precede("A", "B", True, 10, 0, "level0", epoch=0)
        obs.on_shadow_access("read", 1, ("x", 0), 2)
        obs.on_race("read-write", 0, 1, ("x", 0))
        obs.ws_step(0, 3, 0, 2)
        obs.ws_steal(1, 0, 4, hit=False, victim_depth=0)
        assert obs.registry.counter("races_reported").value == 1


class TestShadowAndRaceHooks:
    def test_shadow_access_populations(self):
        obs = enabled_obs()
        obs.on_shadow_access("read", 2, ("x", 0), 3)
        obs.on_shadow_access("write", 2, ("x", 0), 1)
        assert obs.registry.counter("shadow_reads").value == 1
        assert obs.registry.counter("shadow_writes").value == 1
        assert obs.registry.histogram("cell_readers").count == 2
        args = obs.tracer.events()[0]["args"]
        assert args == {"loc": "('x', 0)", "readers": 3}

    def test_race_instant(self):
        obs = enabled_obs()
        obs.on_race("write-read", 1, 2, ("x", 3))
        inst = obs.tracer.events()[0]
        assert inst["cat"] == "race"
        assert inst["args"]["kind"] == "write-read"


class TestWorkStealingHooks:
    def test_virtual_cycle_timestamps(self):
        obs = enabled_obs()
        obs.ws_step(0, 11, start_cycle=4, weight=3)
        obs.ws_steal(1, 0, cycle=4, hit=True, victim_depth=2)
        step, steal = obs.tracer.events()
        assert step["ph"] == "X"
        assert step["ts"] == 4.0 and step["dur"] == 3.0
        assert steal["name"] == "steal"
        assert steal["ts"] == 4.0
        assert obs.registry.counter("ws_steals").value == 1
        assert obs.registry.histogram("ws_victim_depth").count == 1


class TestExecutorSpans:
    def test_inlined_runs_nest_on_the_inlining_threads_track(self):
        obs = enabled_obs()
        rt = ThreadRuntime(workers=1, obs=obs)
        gate = threading.Event()

        def outer(rt):
            # On the worker: its own unstarted child runs inline.
            return rt.future(lambda: 7).get() + 1

        def program(rt):
            blocker = rt.future(lambda: gate.wait(10))
            f = rt.future(lambda: rt.future(lambda: 1).get() + 1)
            assert f.get() == 2  # the worker is in blocker: f runs here
            gate.set()
            blocker.get()
            return rt.future(outer, rt).get()

        assert rt.run(program) == 8
        assert rt.inlined >= 2
        chrome = obs.tracer.to_chrome()
        assert validate_chrome_trace(chrome) == []
        names = {e["tid"]: e["args"]["name"]
                 for e in chrome["traceEvents"] if e["ph"] == "M"}
        assert "exec caller (main)" in names.values()
        assert not any("None" in name for name in names.values())
        runs = collections.defaultdict(list)
        for e in chrome["traceEvents"]:
            if e["ph"] == "X" and e["name"].startswith("run t"):
                runs[names[e["tid"]]].append((e["ts"], e["ts"] + e["dur"]))
        # Spans on one thread's track are disjoint or nested; f and the
        # future it got both ran on the caller thread, one inside the other.
        for spans in runs.values():
            for a in spans:
                for b in spans:
                    assert a[1] <= b[0] or b[1] <= a[0] or (
                        a[0] <= b[0] and b[1] <= a[1]
                    ) or (b[0] <= a[0] and a[1] <= b[1])
        caller = runs["exec caller (main)"]
        assert any(
            a is not b and a[0] <= b[0] and b[1] <= a[1]
            for a in caller for b in caller
        )

    def test_run_spans_share_the_tracer_clock(self):
        """Run spans are timed on the tracer's clock, like the worker,
        task and finish spans they belong to."""
        obs = enabled_obs()
        rt = ThreadRuntime(workers=1, obs=obs)

        def program(rt):
            return sum(rt.future(lambda i=i: i).get() for i in range(3))

        assert rt.run(program) == 3
        end = obs.tracer.now_us()
        runs = [e for e in obs.tracer.to_chrome()["traceEvents"]
                if e["ph"] == "X" and e["name"].startswith("run t")]
        assert runs
        for e in runs:
            assert 0 <= e["ts"] <= e["ts"] + e["dur"] <= end, e


def test_write_trace_requires_tracer(tmp_path):
    obs = Observability(tracer=None)
    with pytest.raises(ValueError):
        obs.write_trace(tmp_path / "t.json")
    obs.write_metrics(tmp_path / "m.json")  # metrics always available
    assert (tmp_path / "m.json").exists()
