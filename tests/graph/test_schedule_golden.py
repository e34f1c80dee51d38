"""Every schedule over a recorded graph is pinned.

``tests/corpus/schedule_golden.json`` holds, for each input graph (the
Figure 1-3 programs, Jacobi tiny in both renderings, and
``random_program`` seeds 0-49), one SHA-256 per result family:

* ``random``: ``random_linear_extension`` orders for seeds 0-4 (plus the
  ``is_determinate`` verdict over 20 samples);
* ``preferring``: ``extension_preferring`` both ways for each racing
  step pair;
* ``greedy``: ``greedy_schedule`` stats at p in {1, 2, 4, 16}, weighted
  and unit;
* ``stealing``: ``WorkStealingSimulator`` stats and its ``ws_step`` /
  ``ws_steal`` event streams at p in {1, 2, 4}, seeds 0-2;
* ``witness``: ``demonstrate_nondeterminism`` for each racy location;
* ``oracle``: ``find_races`` (also capped at one pair per location),
  ``racy_locations`` and ``work_and_span``.

Seeded orders, steal sequences and makespans depend on the order in
which the schedules call the RNG, so any change to a schedule's pick
rule shows here.  Regenerate (only after a deliberate change to a
schedule) with ``PYTHONPATH=src python tests/graph/test_schedule_golden.py``.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.examples_lib.figure1 import run_figure1
from repro.examples_lib.figure2 import run_figure2
from repro.examples_lib.figure3 import run_figure3
from repro.graph import GraphBuilder, find_races, racy_locations, work_and_span
from repro.graph.schedule import (
    WorkStealingSimulator,
    demonstrate_nondeterminism,
    extension_preferring,
    greedy_schedule,
    is_determinate,
    random_linear_extension,
)
from repro.runtime.runtime import Runtime
from repro.testing.generator import random_program, run_program
from repro.workloads import jacobi

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "corpus" / "schedule_golden.json"
NUM_SEEDS = 50


def _graph(run):
    gb = GraphBuilder()
    run([gb])
    return gb.graph


def _jacobi(entry):
    params = jacobi.default_params("tiny")

    def run(observers):
        Runtime(observers=observers).run(lambda rt: entry(rt, params))
    return run


def _inputs():
    yield "figure1", _graph(run_figure1)
    yield "figure2", _graph(run_figure2)
    yield "figure3", _graph(run_figure3)
    yield "jacobi-af", _graph(_jacobi(jacobi.run_af))
    yield "jacobi-future", _graph(_jacobi(jacobi.run_future))
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        yield f"random-{seed}", _graph(
            lambda observers: run_program(program, observers))


class _Events:
    """An enabled observability sink that records the simulator's hooks."""

    enabled = True

    def __init__(self):
        self.events = []

    def ws_step(self, worker, step, start_cycle, weight):
        self.events.append(("step", worker, step, start_cycle, weight))

    def ws_steal(self, worker, victim, cycle, *, hit, victim_depth):
        self.events.append(("steal", worker, victim, cycle, hit, victim_depth))


def _stats(s):
    return [s.workers, s.makespan, s.work, s.span, s.busy, s.steals,
            s.failed_steals]


def _outcome(o):
    return None if o is None else [repr(o.final_writer), repr(o.read_sees)]


def _families(graph):
    races = find_races(graph)
    pairs = list(dict.fromkeys((r.first.step, r.second.step) for r in races))
    racy = sorted(racy_locations(graph), key=repr)
    stealing = []
    for workers in (1, 2, 4):
        for seed in range(3):
            sink = _Events()
            stats = WorkStealingSimulator(
                graph, workers, seed=seed, obs=sink).run()
            stealing.append([_stats(stats), sink.events])
    return {
        "random": [
            [random_linear_extension(graph, random.Random(seed))
             for seed in range(5)],
            is_determinate(graph)],
        "preferring": [
            [extension_preferring(graph, a, b),
             extension_preferring(graph, b, a)] for a, b in pairs],
        "greedy": [
            _stats(greedy_schedule(graph, p, unit_weights=unit))
            for p in (1, 2, 4, 16) for unit in (False, True)],
        "stealing": stealing,
        "witness": [
            [repr(loc), [_outcome(o) for o in
                         demonstrate_nondeterminism(graph, loc) or [None]]]
            for loc in racy],
        "oracle": [
            [[repr(r.loc), repr(r.first), repr(r.second)] for r in races],
            [repr(r.second) for r in find_races(graph, max_pairs_per_loc=1)],
            [repr(loc) for loc in racy],
            list(work_and_span(graph))],
    }


def _digests():
    return {
        name: {
            family: hashlib.sha256(json.dumps(value).encode()).hexdigest()
            for family, value in _families(graph).items()}
        for name, graph in _inputs()}


def test_schedules_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())["sha256"]
    got = _digests()
    assert sorted(got) == sorted(golden)
    changed = [f"{name}:{family}" for name, families in golden.items()
               for family, digest in families.items()
               if got[name][family] != digest]
    assert not changed, changed


def _regenerate():
    GOLDEN.write_text(json.dumps(
        {"schema": "repro.schedule-golden/1", "seeds": f"0:{NUM_SEEDS}",
         "sha256": _digests()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
