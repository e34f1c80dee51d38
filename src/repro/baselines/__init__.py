"""Baseline race detectors the paper positions itself against (Sections 1, 6).

* :class:`BruteForceDetector` — exact transitive-closure oracle;
* :class:`SPBagsDetector` — Feng & Leiserson [15], fully strict spawn-sync;
* :class:`ESPBagsDetector` — Raman et al. [23/24], async-finish;
* :class:`SPD3Detector` — Raman et al. [25], DPST/LCA, async-finish;
* :class:`OffsetSpanDetector` — Mellor-Crummey [20], nested fork-join.

The [1, 16]-style precise vector-clock detector, fully general but with
per-task clocks whose size grows with the task count, is
:class:`repro.core.parallel_detector.ParallelRaceDetector`.
"""

from repro.baselines.base import BaselineDetector
from repro.baselines.brute_force import BruteForceDetector
from repro.baselines.espbags import ESPBagsDetector
from repro.baselines.offset_span import OffsetSpanDetector
from repro.baselines.spbags import SPBagsDetector
from repro.baselines.spd3 import SPD3Detector

__all__ = [
    "BaselineDetector",
    "BruteForceDetector",
    "SPBagsDetector",
    "ESPBagsDetector",
    "SPD3Detector",
    "OffsetSpanDetector",
]
