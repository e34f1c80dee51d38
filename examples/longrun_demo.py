#!/usr/bin/env python3
"""A deliberately long check, built for watching the live telemetry plane.

Repeated recursive divide-and-conquer sweeps over one shared array: each
leaf task reads and rewrites only its own cell range, sweeps are separated
by ``finish`` barriers, so the program is race-free by construction — the
interesting output is not the (empty) race set but the run itself.  The
recursion spawns from *inside* worker tasks, so a threaded run populates
worker deques and produces real steals (unlike the Jacobi example, whose
tiles are all injected from the caller thread), and every cell access is
checked by the online detector — steals and checked accesses are the two
counts the telemetry acceptance check watches.

Watch it live (README "Watching a long run")::

    repro-racecheck examples/longrun_demo.py --serve-metrics 9464 \
        --heartbeat 2 &
    curl -s localhost:9464/metrics | grep repro_detector_accesses
    curl -s localhost:9464/snapshot | python -m json.tool

or threaded, to see the steal and checked-access counts move::

    repro-racecheck examples/longrun_demo.py --runtime threads \
        --workers 2 --serve-metrics 9464
"""

from repro.memory.shared import SharedArray

SIZE = 32768      #: shared cells per sweep
CUTOFF = 256      #: leaf range width (128 leaves per sweep)
SWEEPS = 12       #: finish-separated passes over the array

_MASK = 0x7FFFFFFF


def _step(value: int, i: int) -> int:
    return (value * 1103515245 + 12345 + i) & _MASK


def setup(rt):
    return None


def program(rt, params=None):
    cells = SharedArray(rt, "cells", SIZE)

    def sweep(lo: int, hi: int) -> None:
        if hi - lo <= CUTOFF:
            for i in range(lo, hi):
                value = cells.read(i)
                cells.write(i, _step(0 if value is None else value, i))
            return
        mid = (lo + hi) // 2
        with rt.finish():
            rt.async_(sweep, lo, mid, name=f"sweep[{lo}:{mid}]")
            rt.async_(sweep, mid, hi, name=f"sweep[{mid}:{hi}]")

    for _ in range(SWEEPS):
        with rt.finish():
            rt.async_(sweep, 0, SIZE, name="sweep-root")

    # Self-check: every cell is its index pushed through SWEEPS steps.
    for i in (0, SIZE // 2, SIZE - 1):
        expected = 0
        for _ in range(SWEEPS):
            expected = _step(expected, i)
        got = cells.read(i)
        assert got == expected, (i, got, expected)


def main():
    from repro import Runtime

    rt = Runtime()
    rt.run(program)
    print(f"longrun demo: {SWEEPS} sweeps over {SIZE} cells verified")


if __name__ == "__main__":
    main()
