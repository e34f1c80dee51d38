"""§5's structured-parallelism claim: "the slowdowns for Series-af and
Crypt-af are comparable to the slowdowns reported for the ESP-Bags
algorithm … our determinacy race detector does not incur additional
overhead for async/finish constructs relative to state-of-the-art
implementations."

We make the comparison sharper than wall-clock workload runs: record each
async-finish workload's instrumentation stream once, then replay the
*identical* event stream through every detector, so the numbers are pure
detector cost on identical inputs.  SP-bags/ESP-bags only run on the
async-finish traces; the futures trace additionally compares the DTRG
detector against vector clocks (the only other future-capable baseline).
"""

import pytest

from repro.baselines import (
    BruteForceDetector,
    ESPBagsDetector,
    OffsetSpanDetector,
    SPBagsDetector,
    SPD3Detector,
)
from repro.core.detector import DeterminacyRaceDetector
from repro.core.parallel_detector import ParallelRaceDetector
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.runtime import Runtime
from repro.workloads import crypt_idea, jacobi, series


def record_trace(entry):
    recorder = TraceRecorder()
    rt = Runtime(observers=[recorder])
    rt.run(entry)
    return list(recorder.trace)  # decoded once: timed replays replay only


@pytest.fixture(scope="module")
def series_af_trace(scale):
    params = series.default_params(scale)
    return record_trace(lambda rt: series.run_af(rt, params))


@pytest.fixture(scope="module")
def crypt_af_trace(scale):
    params = crypt_idea.default_params(scale)
    return record_trace(lambda rt: crypt_idea.run_af(rt, params))


@pytest.fixture(scope="module")
def jacobi_future_trace(scale):
    params = jacobi.default_params(scale)
    return record_trace(lambda rt: jacobi.run_future(rt, params))


DETECTORS_AF = [
    ("dtrg", DeterminacyRaceDetector),
    ("espbags", ESPBagsDetector),
    ("spbags", SPBagsDetector),
    ("spd3", SPD3Detector),
    ("offset-span", OffsetSpanDetector),
    ("vector-clock", ParallelRaceDetector),
]


@pytest.mark.parametrize("name,cls", DETECTORS_AF, ids=[n for n, _ in DETECTORS_AF])
def test_series_af_trace(benchmark, series_af_trace, name, cls):
    det = benchmark(lambda: _replay(series_af_trace, cls))
    assert not det.report.has_races


@pytest.mark.parametrize("name,cls", DETECTORS_AF, ids=[n for n, _ in DETECTORS_AF])
def test_crypt_af_trace(benchmark, crypt_af_trace, name, cls):
    det = benchmark(lambda: _replay(crypt_af_trace, cls))
    assert not det.report.has_races


DETECTORS_FUT = [
    ("dtrg", DeterminacyRaceDetector),
    ("vector-clock", ParallelRaceDetector),
    ("brute-force", BruteForceDetector),
]


@pytest.mark.parametrize(
    "name,cls", DETECTORS_FUT, ids=[n for n, _ in DETECTORS_FUT]
)
def test_jacobi_future_trace(benchmark, jacobi_future_trace, name, cls):
    det = benchmark(lambda: _replay(jacobi_future_trace, cls))
    assert not det.report.has_races


def _replay(trace, cls):
    det = cls()
    replay_trace(trace, [det])
    return det
