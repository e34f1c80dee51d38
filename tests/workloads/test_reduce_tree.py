"""Unit tests for the functional reduction-tree workload."""

import pytest

from repro.workloads import reduce_tree
from repro.workloads.common import run_instrumented


@pytest.mark.parametrize("op", ["add", "max", "mul"])
def test_serial_fold(op):
    params = reduce_tree.ReduceParams(size=10, cutoff=2, op=op)
    data = reduce_tree._data(params)
    expected = params.identity
    for v in data:
        expected = params.operator(expected, v)
    assert reduce_tree.serial(params) == expected


@pytest.mark.parametrize("op", ["add", "max", "mul"])
@pytest.mark.parametrize("size,cutoff", [(16, 4), (64, 8), (33, 5)])
def test_parallel_matches_serial(op, size, cutoff):
    params = reduce_tree.ReduceParams(size=size, cutoff=cutoff, op=op)
    run = run_instrumented(
        lambda rt: reduce_tree.run_future(rt, params), detect=True
    )
    reduce_tree.verify(params, run.result)
    assert not run.races


def test_purely_functional_no_shared_accesses():
    """The Section 2 guarantee: value-only futures cannot race."""
    params = reduce_tree.default_params("small")
    run = run_instrumented(
        lambda rt: reduce_tree.run_future(rt, params), detect=True
    )
    assert run.metrics.num_shared_accesses == 0
    assert run.metrics.num_tasks > 0
    assert run.metrics.num_nt_joins == 0  # every get by the spawning task
    assert run.detector.num_locations == 0


def test_task_count_matches_tree_shape():
    params = reduce_tree.ReduceParams(size=64, cutoff=8)
    run = run_instrumented(
        lambda rt: reduce_tree.run_future(rt, params), detect=False
    )
    # 64/8 = 8 leaves -> internal splits spawn 2 futures each: 2+4+8 = 14
    assert run.metrics.num_tasks == 14
    assert run.metrics.num_future_tasks == run.metrics.num_tasks
