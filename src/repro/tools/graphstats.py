"""``repro-graphstats`` — Cilkview-style analysis of a workload's
computation graph.

For any registered workload (Table 2 rows and extensions) prints the
work/span/parallelism profile, the edge census (spawn / continue / tree
join / non-tree join), and simulated speedups under greedy and
work-stealing schedulers:

    repro-graphstats --workload Jacobi --scale small --workers 1 2 4 8 16

This is the quantitative face of the paper's §5 remark that dependence
patterns like Jacobi's "cannot be represented using only async-finish
constructs without loss of parallelism".
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List

from repro.graph import EdgeKind, GraphBuilder
from repro.graph.schedule import WorkStealingSimulator, greedy_schedule
from repro.harness.report import render_table
from repro.runtime.runtime import Runtime
from repro.workloads import (
    crypt_idea,
    jacobi,
    lufact,
    nqueens,
    reduce_tree,
    series,
    smith_waterman,
    sor,
    strassen,
)

__all__ = ["main", "GRAPH_WORKLOADS"]

#: name -> (module, entry attribute)
GRAPH_WORKLOADS: Dict[str, tuple] = {
    "Series-af": (series, "run_af"),
    "Series-future": (series, "run_future"),
    "Crypt-af": (crypt_idea, "run_af"),
    "Crypt-future": (crypt_idea, "run_future"),
    "Jacobi-af": (jacobi, "run_af"),
    "Jacobi": (jacobi, "run_future"),
    "Smith-Waterman": (smith_waterman, "run_future"),
    "Strassen": (strassen, "run_future"),
    "SOR-af": (sor, "run_af"),
    "SOR": (sor, "run_future"),
    "NQueens": (nqueens, "run_af"),
    "ReduceTree": (reduce_tree, "run_future"),
    "LUFact": (lufact, "run_future"),
}


def record_graph(name: str, scale: str):
    module, attr = GRAPH_WORKLOADS[name]
    params = module.default_params(scale)
    entry: Callable = getattr(module, attr)
    gb = GraphBuilder()
    rt = Runtime(observers=[gb])
    rt.run(lambda r: entry(r, params))
    return gb.graph


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-graphstats", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="Jacobi",
                        choices=sorted(GRAPH_WORKLOADS))
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "table2"))
    parser.add_argument("--workers", nargs="*", type=int,
                        default=[1, 2, 4, 8, 16])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    graph = record_graph(args.workload, args.scale)
    s1 = greedy_schedule(graph, 1)
    counts = graph.edge_counts()

    print(f"{args.workload} (scale={args.scale}):")
    print(f"  steps: {graph.num_steps:,}   tasks: {graph.num_tasks:,}")
    print(
        "  edges: "
        f"{counts[EdgeKind.SPAWN]:,} spawn, "
        f"{counts[EdgeKind.CONTINUE]:,} continue, "
        f"{counts[EdgeKind.JOIN_TREE]:,} tree join, "
        f"{counts[EdgeKind.JOIN_NON_TREE]:,} non-tree join"
    )
    print(f"  work T1 = {s1.work:,}   span Tinf = {s1.span:,}   "
          f"parallelism T1/Tinf = {s1.work / s1.span:.2f}\n")

    rows = []
    for p in args.workers:
        greedy = greedy_schedule(graph, p)
        ws = WorkStealingSimulator(graph, p, seed=args.seed).run()
        rows.append({
            "workers": p,
            "greedy speedup": round(greedy.speedup, 2),
            "greedy util": round(greedy.utilization, 2),
            "steal speedup": round(ws.speedup, 2),
            "steals": ws.steals,
        })
    print(render_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
