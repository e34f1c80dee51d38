"""Figure 2 — the 12-step computation graph and its stated properties.

Caption/text facts verified here: steps number S1-S12 in depth-first
order; "S2 ⊀ S10"; "S2 ≺ S12"; "the join edge from S3 to S5 is a tree
join"; "the edge from S5 to S8 is a non-tree join".
"""

import pytest

from repro import DeterminacyRaceDetector
from repro.examples_lib.figure2 import NUM_STEPS, run_figure2, step_location
from repro.graph import EdgeKind, GraphBuilder, ReachabilityClosure, to_dot


@pytest.fixture(scope="module")
def figure2():
    gb = GraphBuilder()
    # The test reads the detector's graph's P sets.
    det = DeterminacyRaceDetector()
    result = run_figure2([gb, det])
    return result, gb.graph, ReachabilityClosure(gb.graph), det


def step_of(graph, i):
    return graph.accesses_by_loc[step_location(i)][0].step


def test_twelve_labeled_steps_in_dfs_order(figure2):
    _, graph, _, _ = figure2
    ids = [step_of(graph, i) for i in range(1, NUM_STEPS + 1)]
    assert ids == list(range(NUM_STEPS))  # S1..S12 are steps 0..11
    assert graph.num_steps == NUM_STEPS + 1  # + post-implicit-finish step


def test_five_tasks(figure2):
    result, graph, _, _ = figure2
    assert graph.num_tasks == 5
    assert set(result.tids) == {"M", "A", "B", "C", "D"}


def test_s2_does_not_precede_s10(figure2):
    _, graph, closure, _ = figure2
    assert not closure.precedes(step_of(graph, 2), step_of(graph, 10))
    assert closure.parallel(step_of(graph, 2), step_of(graph, 10))


def test_s2_precedes_s12(figure2):
    _, graph, closure, _ = figure2
    assert closure.precedes(step_of(graph, 2), step_of(graph, 12))


def test_s3_to_s5_is_tree_join(figure2):
    _, graph, _, _ = figure2
    s3, s5 = step_of(graph, 3), step_of(graph, 5)
    kinds = [k for src, dst, k in graph.edges if src == s3 and dst == s5]
    assert kinds == [EdgeKind.JOIN_TREE]


def test_s5_to_s8_is_non_tree_join(figure2):
    _, graph, _, _ = figure2
    s5, s8 = step_of(graph, 5), step_of(graph, 8)
    kinds = [k for src, dst, k in graph.edges if src == s5 and dst == s8]
    assert kinds == [EdgeKind.JOIN_NON_TREE]


def test_exactly_one_non_tree_join(figure2):
    _, graph, _, _ = figure2
    assert graph.edge_counts()[EdgeKind.JOIN_NON_TREE] == 1


def test_detector_sees_same_structure(figure2):
    result, _, _, det = figure2
    assert det.dtrg.num_non_tree_edges == 1
    assert not det.report.has_races
    # T_C joined T_A: the non-tree predecessor list of C's set holds A.
    assert det.dtrg.non_tree_predecessors(result.tids["C"]) == [
        result.tids["A"]
    ]


def test_dot_rendering_includes_all_tasks(figure2):
    result, graph, _, _ = figure2
    dot = to_dot(graph, title="Figure 2")
    for name in ("T_A", "T_B", "T_C", "T_D"):
        assert name in dot
