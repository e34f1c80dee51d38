"""Theorem 2, property-tested.

"Algorithms 1-10 detect a determinacy race in the input program if and only
if a determinacy race exists."

For arbitrary generated async/finish/future programs that respect the
language's reference-flow discipline (a task joins only futures whose
handles it legitimately holds — see :mod:`repro.testing.generator`), the
detector's per-location verdicts must equal the brute-force transitive
closure's, both directions at once:

* soundness (only real races reported) — no location in
  ``detector − oracle``;
* completeness (no race missed) — no location in ``oracle − detector``.

A second property runs the same comparison for every DTRG ablation, and a
third exercises the out-of-model "wild" handle flow for robustness (no
crashes; verdicts may legitimately differ there, as the paper's precision
proof conditions on reference-flow race-freedom — DESIGN.md discusses why).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DeterminacyRaceDetector, ParallelRaceDetector
from repro.baselines import BruteForceDetector
from repro.testing.generator import program_strategy, random_program, run_program

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(program=program_strategy())
@settings(max_examples=200, **COMMON)
def test_detector_matches_oracle_per_location(program):
    det = DeterminacyRaceDetector()
    oracle = BruteForceDetector()
    run_program(program, [det, oracle])
    assert det.racy_locations == oracle.racy_locations, str(program)


@given(program=program_strategy(num_locs=2, max_leaves=25))
@settings(max_examples=60, **COMMON)
@pytest.mark.parametrize(
    "options",
    [
        {"use_lsa": False},
        {"memoize_visit": False},
        {"use_intervals": False},
        {"use_lsa": False, "memoize_visit": False, "use_intervals": False},
        {"engine": "array"},
        {"use_lsa": False, "memoize_visit": False},
    ],
)
def test_ablations_preserve_verdicts(options, program):
    det = DeterminacyRaceDetector(**options)
    oracle = BruteForceDetector()
    run_program(program, [det, oracle])
    assert det.racy_locations == oracle.racy_locations, (options, str(program))


@given(program=program_strategy())
@settings(max_examples=100, **COMMON)
def test_vector_clock_agrees_with_dtrg(program):
    """The two fully-general detectors must agree everywhere."""
    det = DeterminacyRaceDetector()
    vc = ParallelRaceDetector()
    run_program(program, [det, vc])
    assert det.racy_locations == vc.racy_locations, str(program)


@given(program=program_strategy(), seed=st.integers(0, 2**16))
@settings(max_examples=60, **COMMON)
def test_wild_handle_flow_never_crashes(program, seed):
    """Out-of-band joins are outside the model's guarantee but must not
    break the detector; the exact oracle still works on the executed
    graph, and the detector never misses a program-wide verdict in the
    completeness direction for *tree-only* wild runs (weak sanity)."""
    det = DeterminacyRaceDetector()
    oracle = BruteForceDetector()
    run_program(program, [det, oracle], scoped_handles=False)
    # both produced verdicts without exceptions; nothing else is promised
    assert isinstance(det.racy_locations, set)
    assert isinstance(oracle.racy_locations, frozenset | set)


def test_bulk_random_differential_sweep():
    """A deterministic high-volume sweep beyond hypothesis's budget."""
    mismatches = []
    for seed in range(1500):
        program = random_program(random.Random(seed))
        det = DeterminacyRaceDetector()
        oracle = BruteForceDetector()
        run_program(program, [det, oracle])
        if det.racy_locations != oracle.racy_locations:
            mismatches.append(seed)
    assert not mismatches, mismatches[:5]


@given(program=program_strategy())
@settings(max_examples=120, **COMMON)
def test_exact_detector_matches_oracle_even_wild(program):
    """The beyond-paper ExactDetector needs no reference-flow assumption:
    per-location verdicts equal the oracle's even for out-of-band joins."""
    from repro.core.exact import ExactDetector

    det = ExactDetector()
    oracle = BruteForceDetector()
    run_program(program, [det, oracle], scoped_handles=False)
    assert det.racy_locations == oracle.racy_locations, str(program)
