"""Importing the library does not import hypothesis, a dev dependency
that only :func:`repro.testing.generator.program_strategy` needs."""

import os
import subprocess
import sys


def test_importing_the_generator_leaves_hypothesis_out():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.testing.generator; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == "
         "'hypothesis'))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
