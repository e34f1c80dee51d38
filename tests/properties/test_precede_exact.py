"""Lemma 6, property-tested: every PRECEDE answer is exact.

"PRECEDE(T_A, T_B) = true during the execution of s_j … if and only if
s_i ≺ s_j for all s_i such that Task(s_i) = T_A and s_i executes before
s_j in the depth-first execution."

We run the checking kernel over a recorded program with a logging
``ArrayDTRG`` and log every reachability query the kernel issues, with
the access row being checked (the kernel's ``on_access`` hook marks it).
A co-attached graph builder maps each row to its step, and each answer
is checked against the exact transitive closure: it must be True iff
*every* step of the queried task with a smaller step id (= executed
earlier) precedes the current step.  The kernel's fast paths skip calls
whose answers are forced; every call it makes is checked.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.array_dtrg import ArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import encode_trace
from repro.core.fastcheck import CheckResult, _kernel
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.memory.tracer import TraceRecorder
from repro.testing.generator import program_strategy, run_program


class LoggingDTRG(ArrayDTRG):
    """Logs ``(queried_task, current_task, row, answer)`` for every
    ``precede_idx`` call; ``row`` is set by the kernel's access hook."""

    def __init__(self):
        super().__init__()
        self.row = -1
        self.queries = []

    def precede_idx(self, ia, ib):
        answer = super().precede_idx(ia, ib)
        self.queries.append((self.keys[ia], self.keys[ib], self.row, answer))
        return answer


def _logged_queries(trace):
    enc = encode_trace(trace)
    dtrg = LoggingDTRG()

    def on_access(is_write, task, lid, readers):
        dtrg.row += 1

    kernel = _kernel(enc, dtrg, [str(key) for key in enc.task_keys],
                     CheckResult(), on_access=on_access)
    next(kernel)
    try:
        kernel.send(True)
    except StopIteration:
        pass
    return dtrg.queries


@given(program=program_strategy(num_locs=3, max_leaves=30))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_precede_answer_is_exact(program):
    gb = GraphBuilder()
    recorder = TraceRecorder()
    run_program(program, [gb, recorder])
    closure = ReachabilityClosure(gb.graph)
    graph = gb.graph
    steps_by_task = {}
    for step in graph.steps:
        steps_by_task.setdefault(step.task, []).append(step.sid)
    # Steps run contiguously in sid order, so listing their accesses in
    # that order gives the access rows in execution order.
    row_step = [acc.step for step in graph.steps for acc in step.accesses]

    queries = _logged_queries(recorder.trace)
    assert all(0 <= row < len(row_step) for _, _, row, _ in queries)
    for a_tid, b_tid, row, answer in queries:
        cur_sid = row_step[row]
        assert graph.steps[cur_sid].task == b_tid
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
