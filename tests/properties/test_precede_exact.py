"""Lemma 6, property-tested: every PRECEDE answer is exact.

"PRECEDE(T_A, T_B) = true during the execution of s_j … if and only if
s_i ≺ s_j for all s_i such that Task(s_i) = T_A and s_i executes before
s_j in the depth-first execution."

We instrument the detector to log every reachability query it issues from
the shadow-memory checks, together with the current step (taken from a
co-attached graph builder), then check each answer against the exact
transitive closure: the answer must be True iff *every* step of the
queried task with a smaller step id (= executed earlier) precedes the
current step.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.detector import DeterminacyRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.testing.generator import program_strategy, run_program


class LoggingDetector(DeterminacyRaceDetector):
    """Detector that logs (queried_task, current_task, current_step, answer)
    for every shadow-memory PRECEDE call.  It runs the reference engine,
    which queries at each access; the kernel answers the same queries a
    block later, and the equivalence sweeps hold it to these verdicts."""

    def __init__(self, graph_builder: GraphBuilder):
        super().__init__(engine="object")
        self._gb = graph_builder
        self.queries = []
        inner = self.dtrg.precede

        def logged(a_tid, b_tid):
            answer = inner(a_tid, b_tid)
            step = self._gb._step(b_tid)  # the current step of the querier
            self.queries.append((a_tid, b_tid, step.sid, answer))
            return answer

        # The shadow memory holds a reference to the bound method taken at
        # detector construction; rebind both.
        self.dtrg.precede = logged
        self.shadow._precede = logged


@given(program=program_strategy(num_locs=3, max_leaves=30))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_precede_answer_is_exact(program):
    gb = GraphBuilder()
    det = LoggingDetector(gb)
    # graph builder first so its current step is up to date when queried
    run_program(program, [gb, det])
    closure = ReachabilityClosure(gb.graph)
    graph = gb.graph
    steps_by_task = {}
    for step in graph.steps:
        steps_by_task.setdefault(step.task, []).append(step.sid)

    for a_tid, b_tid, cur_sid, answer in det.queries:
        if a_tid == b_tid:
            assert answer, "a task precedes itself"
            continue
        earlier = [s for s in steps_by_task.get(a_tid, []) if s < cur_sid]
        truth = all(closure.precedes(s, cur_sid) for s in earlier)
        assert answer == truth, (
            f"precede({a_tid}, {b_tid}) at step {cur_sid}: "
            f"got {answer}, truth {truth}\n{program}"
        )


@given(program=program_strategy(num_locs=2, max_leaves=20))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_postmortem_precede_matches_closure(program):
    """After the run, PRECEDE(A, main) for any completed task A must equal
    whole-task reachability to main's final step."""
    gb = GraphBuilder()
    det = DeterminacyRaceDetector()
    run_program(program, [gb, det])
    closure = ReachabilityClosure(gb.graph)
    graph = gb.graph
    main_last = graph.last_step[0]
    for tid in graph.task_parent:
        if tid == 0:
            continue
        expected = all(
            closure.precedes(s.sid, main_last)
            for s in graph.steps_of_task(tid)
        )
        assert det.precede(tid, 0) == expected, (tid, str(program))
