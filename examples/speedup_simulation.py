#!/usr/bin/env python3
"""Futures vs barriers: the parallelism the paper says barriers lose.

Records the computation graphs of the Jacobi stencil in both renderings —
barrier-per-sweep async-finish and dependence-driven futures — and
simulates them on 1..32 workers with both a greedy scheduler and a
randomized work-stealing scheduler (the execution model of the Habanero
runtime the paper builds on).

Run:  python examples/speedup_simulation.py
"""

from repro.graph import GraphBuilder
from repro.graph.schedule import WorkStealingSimulator, greedy_schedule
from repro.runtime.runtime import Runtime
from repro.workloads import jacobi


def record(entry, params):
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    rt.run(lambda r: entry(r, params))
    return gb.graph


def main() -> None:
    params = jacobi.default_params("small")
    graphs = {
        "async-finish (barrier/sweep)": record(jacobi.run_af, params),
        "futures (point-to-point)": record(jacobi.run_future, params),
    }
    print(f"Jacobi {params.interior}x{params.interior}, "
          f"{params.tiles_per_side}x{params.tiles_per_side} tiles, "
          f"{params.sweeps} sweeps\n")
    for name, graph in graphs.items():
        s1 = greedy_schedule(graph, 1)
        print(f"{name}:")
        print(f"  work T1 = {s1.work}, span Tinf = {s1.span}, "
              f"parallelism T1/Tinf = {s1.work / s1.span:.2f}")
        row = []
        for p in (1, 2, 4, 8, 16, 32):
            stats = greedy_schedule(graph, p)
            row.append(f"p={p}: {stats.speedup:.2f}x")
        print("  greedy speedups:       ", ",  ".join(row))
        row = []
        for p in (1, 2, 4, 8, 16, 32):
            stats = WorkStealingSimulator(graph, p, seed=1).run()
            row.append(f"p={p}: {stats.speedup:.2f}x")
        print("  work-stealing speedups:", ",  ".join(row))
        print()
    af = greedy_schedule(graphs["async-finish (barrier/sweep)"], 16)
    fut = greedy_schedule(graphs["futures (point-to-point)"], 16)
    print("at 16 workers the dependence-driven version is "
          f"{af.makespan / fut.makespan:.2f}x faster than the barrier "
          "version —")
    print('the paper\'s "cannot be represented using only async-finish')
    print('constructs without loss of parallelism" (Section 5), quantified.')


if __name__ == "__main__":
    main()
