#!/usr/bin/env python3
"""A realistic debugging session: a wavefront with a missing dependence.

Scenario: a tiled prefix-sum-style wavefront where the programmer forgot
the *vertical* dependence — tiles wait for their left neighbor but not the
one above.  The workflow shown:

1. run once under the detector, recording the trace *with race
   provenance*, then explain the races from the trace → races reported
   with task names and source call sites, plus a non-ordering witness
   per race explaining why PRECEDE answered false;
2. write the self-contained HTML report (the artifact you would attach
   to a bug ticket) — the same thing ``repro-racecheck --explain --html``
   produces;
3. extract two concrete schedules that produce different results for a
   racy cell (the executable witness of nondeterminism);
4. apply the fix (add the missing ``get``) → clean report, and the result
   now provably equals the serial elision on every schedule.

Run:  python examples/race_debugging.py
"""

import tempfile

from repro import DeterminacyRaceDetector, Runtime, SharedMatrix, SharedNDArray
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.memory.tracer import TraceRecorder
from repro.obs import (
    RaceProvenance, explain_races, render_html_report, render_witness_text,
)
from repro.graph.schedule import demonstrate_nondeterminism

import numpy as np

N_TILES = 3
TILE = 2
N = N_TILES * TILE


def wavefront(rt, grid, handles, *, wait_above: bool):
    """Tile (bi, bj) = max of its own inputs and the tiles left/above."""

    def tile_body(bi, bj):
        if bj > 0:
            handles.read(bi, bj - 1).get()
        if bi > 0 and wait_above:
            handles.read(bi - 1, bj).get()
        for i in range(bi * TILE, (bi + 1) * TILE):
            for j in range(bj * TILE, (bj + 1) * TILE):
                left = grid.read((i, j - 1)) if j > 0 else 0
                up = grid.read((i - 1, j)) if i > 0 else 0
                grid.write((i, j), grid.read((i, j)) + max(left, up))

    for bi in range(N_TILES):
        for bj in range(N_TILES):
            handles.write(bi, bj, rt.future(tile_body, bi, bj,
                                            name=f"tile({bi},{bj})"))
    for bi in range(N_TILES):
        for bj in range(N_TILES):
            handles.read(bi, bj).get()


def run(wait_above: bool, provenance=None):
    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    recorder = TraceRecorder(provenance)
    rt = Runtime(observers=[recorder, det, gb], provenance=provenance)
    grid = SharedNDArray(rt, "grid",
                         np.arange(N * N, dtype=np.int64).reshape(N, N))
    handles = SharedMatrix(rt, "handles", N_TILES, N_TILES)
    rt.run(lambda _rt: wavefront(rt, grid, handles, wait_above=wait_above))
    return det, recorder.trace, gb.graph, grid


def main() -> None:
    print("=== step 1: run the buggy version with race provenance ===")
    prov = RaceProvenance()
    det, trace, graph, _ = run(wait_above=False, provenance=prov)
    # One pass over the recorded trace, stopping at each race's access
    # row, gives every race its call sites and its witness.
    races, witnesses = explain_races(trace, det.races, det.race_rows)
    det.report.races[:] = races
    print(det.report.summary())  # each race now carries its call sites
    assert det.report.has_races
    assert all(r.prev_site and r.current_site for r in det.report)
    print("\nwhy the first pair is unordered (non-ordering certificate):")
    print(render_witness_text(witnesses[0]))

    print("\n=== step 2: write the shareable HTML report ===")
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".html", delete=False
    ) as fh:
        fh.write(render_html_report(
            program="examples/race_debugging.py (buggy wavefront)",
            report=det.report,
            witnesses=witnesses,
            provenance=prov,
        ))
        print(f"HTML race report written to {fh.name}")
        print("(repro-racecheck --explain --html report.html does the "
              "same for any program file)")

    print("\n=== step 3: turn one race into an executable witness ===")
    loc = sorted(det.racy_locations)[0]
    witness = demonstrate_nondeterminism(graph, loc,
                                         ReachabilityClosure(graph))
    assert witness is not None
    a, b = witness
    print(f"two legal schedules disagree on {loc}:")
    for diff in a.differs_from(b)[:3]:
        print("  -", diff)

    print("\n=== step 4: add the missing vertical get() and re-run ===")
    det, _, graph, grid = run(wait_above=True)
    print(det.report.summary())
    assert not det.report.has_races
    print("fixed wavefront result (race-free => deterministic):")
    print(grid.data)


if __name__ == "__main__":
    main()
