"""The observability overhead gate can see an overhead.

``benchmarks/bench_obs_overhead.py`` gates the disabled-obs and live legs
at 5% of the baseline.  Its samples are long enough (40 ms or more) that
the relative bound decides, so a 50% slowdown injected into the null leg
must fail the gate.  Each leg keeps the best of nine interleaved
samples: with two, a loaded machine could slow both baseline samples
past the injected 50% and the gate would pass.
"""

import importlib.util
import time
from pathlib import Path

from repro.obs import NULL_OBSERVABILITY

SCRIPT = (Path(__file__).resolve().parents[2] / "benchmarks"
          / "bench_obs_overhead.py")


def _load_gate():
    spec = importlib.util.spec_from_file_location("bench_obs_overhead",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_half_again_slower_null_leg_fails_the_gate(monkeypatch, capsys):
    gate = _load_gate()
    real_run = gate._run

    def slow_run(params, obs):
        start = time.perf_counter()
        run = real_run(params, obs)
        if obs is NULL_OBSERVABILITY:
            end = time.perf_counter()
            deadline = end + 0.5 * (end - start)
            while time.perf_counter() < deadline:
                pass
        return run

    monkeypatch.setattr(gate, "_run", slow_run)
    assert gate.main(["--quick", "--repeats", "9"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: disabled-obs overhead" in out
    assert "runs/sample=" in out
