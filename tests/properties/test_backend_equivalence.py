"""Cross-backend PRECEDE equivalence under fuzzing (ALGORITHM.md §14).

The serial checker only ever asks ``precede(a, b)`` while ``b`` is the
currently executing task — that calling contract is what lets the
vector clocks answer with no graph at hand.  A post-mortem
all-pairs sweep would be degenerate (after the final joins the DTRG
answers ``True`` almost universally, and a frozen clock cannot witness a
task that was live when the query mattered), so the sweep here replays
the contract: an observer forwards every structural event to all three
backends exactly the way the detector does, and at every boundary diffs
``precede(a, current)`` for every task seen so far.

Two properties over 200 generated programs:

1. **Fork-join equivalence** — on the fork-join projection of each
   program (futures demoted to asyncs, gets dropped) the three engines
   (object, array, vc) agree on every in-contract query.
2. **General equivalence** — on the original program (futures and gets
   included) they agree as well.

Verdict-level equivalence (race lists through the full detector) is the
fuzzer's job (``repro-fuzz`` row ``vc``); this sweep pins the query
layer underneath it.
"""

import random

import pytest

from repro.core.array_dtrg import ArrayDTRG
from repro.core.events import ExecutionObserver
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.core.vc_backend import VectorClockBackend
from repro.testing.generator import (
    Async,
    Finish,
    Future,
    Get,
    Program,
    random_program,
    run_program,
)

NUM_SEEDS = 200
BAND = 40


def _forkjoinify(body):
    """Project a program onto the fork-join fragment: futures become
    plain asyncs and gets are dropped (their only semantic content is
    the non-tree join edge)."""
    out = []
    for node in body:
        if isinstance(node, Get):
            continue
        if isinstance(node, (Async, Future)):
            out.append(Async(_forkjoinify(node.body)))
        elif isinstance(node, Finish):
            out.append(Finish(_forkjoinify(node.body)))
        else:
            out.append(node)
    return out


class _Harness(ExecutionObserver):
    """Forward structure to raw backends the way the detector does and
    diff ``precede(a, current)`` across them at every boundary."""

    def __init__(self, backends):
        self.backends = backends  # [(name, backend)]; first is golden
        self.known = []
        self.stack = []
        self.divergences = []
        self.queries = 0

    def _each(self, fn):
        for _, backend in self.backends:
            fn(backend)

    def _diff(self, point):
        if not self.stack:
            return
        cur = self.stack[-1]
        golden_name, golden = self.backends[0]
        for a in self.known:
            want = golden.precede(a, cur)
            for name, backend in self.backends[1:]:
                self.queries += 1
                got = backend.precede(a, cur)
                if got != want:
                    self.divergences.append(
                        f"{point}: precede({a}, {cur}) "
                        f"{name}={got} vs {golden_name}={want}"
                    )

    # Structural callbacks, mirrored from the detector's wiring.
    def on_init(self, main):
        self._each(lambda b: b.add_root(main.tid, name=main.name))
        self.known.append(main.tid)
        self.stack.append(main.tid)
        self._diff("init")

    def on_task_create(self, parent, child):
        self._each(lambda b: b.add_task(
            parent.tid, child.tid,
            is_future=child.is_future, name=child.name,
        ))
        self.known.append(child.tid)
        self.stack.append(child.tid)
        self._diff("task-create")

    def on_task_end(self, task):
        self._diff("task-end")
        self._each(lambda b: b.on_terminate(task.tid))
        if self.stack and self.stack[-1] == task.tid:
            self.stack.pop()

    def on_get(self, consumer, producer):
        self._each(lambda b: b.record_join(consumer.tid, producer.tid))
        self._diff("get")

    def on_finish_start(self, scope):
        self._diff("finish-start")

    def on_finish_end(self, scope):
        owner = scope.owner.tid
        for task in scope.joins:
            self._each(lambda b: b.merge(owner, task.tid))
        self._diff("finish-end")


def _sweep(seed, *, forkjoin):
    prog = random_program(random.Random(seed))
    if forkjoin:
        prog = Program(num_locs=prog.num_locs,
                       body=_forkjoinify(prog.body))
    harness = _Harness([
        ("object", DynamicTaskReachabilityGraph()),
        ("array", ArrayDTRG()),
        ("vc", VectorClockBackend()),
    ])
    run_program(prog, [harness])
    return harness


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_forkjoin_all_backends_agree_in_contract(band):
    queries = 0
    for seed in range(band, band + BAND):
        harness = _sweep(seed, forkjoin=True)
        assert not harness.divergences, (
            f"seed {seed}: {harness.divergences[:5]}"
        )
        queries += harness.queries
    assert queries > 0  # a sweep that never queried proves nothing


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_general_backends_agree_in_contract(band):
    queries = 0
    for seed in range(band, band + BAND):
        harness = _sweep(seed, forkjoin=False)
        assert not harness.divergences, (
            f"seed {seed}: {harness.divergences[:5]}"
        )
        queries += harness.queries
    assert queries > 0
