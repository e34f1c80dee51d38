"""Ablations of the DTRG design choices DESIGN.md calls out.

Each variant runs the full detector over the identical recorded event
stream of the Smith-Waterman wavefront (the most non-tree-join-dense
workload), isolating the cost/benefit of:

* the LSA shortcut vs walking every spawn-tree ancestor;
* query memoization vs path-guarded re-exploration;
* O(1) interval containment vs parent-pointer chasing.

``full`` is the default detector (the kernel); every ablated variant runs
the reference engine, the only one with the switches.  All variants must
report identical verdicts (the property suite proves this on random
programs; the assertion re-checks it here).
"""

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.runtime import Runtime
from repro.workloads import smith_waterman as sw

VARIANTS = [
    ("full", {}),
    ("no-lsa", {"use_lsa": False}),
    ("no-memoization", {"memoize_visit": False}),
    ("no-intervals", {"use_intervals": False}),
    ("naive", {"use_lsa": False, "memoize_visit": False,
               "use_intervals": False}),
]


@pytest.fixture(scope="module")
def sw_trace(scale):
    params = sw.default_params(scale)
    recorder = TraceRecorder()
    rt = Runtime(observers=[recorder])
    rt.run(lambda r: sw.run_future(r, params))
    return list(recorder.trace)  # decoded once: timed replays replay only


@pytest.mark.parametrize("name,options", VARIANTS, ids=[n for n, _ in VARIANTS])
def test_ablation(benchmark, sw_trace, name, options):
    def run():
        det = DeterminacyRaceDetector(**options)
        replay_trace(sw_trace, [det])
        return det

    det = benchmark(run)
    assert not det.report.has_races


def test_variants_agree_on_query_counts(sw_trace):
    """The LSA shortcut must not change answers, only visit counts."""
    full = DeterminacyRaceDetector()
    replay_trace(sw_trace, [full])
    no_lsa = DeterminacyRaceDetector(use_lsa=False)
    replay_trace(sw_trace, [no_lsa])
    assert full.racy_locations == no_lsa.racy_locations
    assert full.dtrg.num_precede_queries == no_lsa.dtrg.num_precede_queries
