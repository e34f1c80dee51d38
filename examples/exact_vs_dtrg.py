#!/usr/bin/env python3
"""Where the paper's detector stops being exact — and a detector that doesn't.

The paper's precision guarantee quietly assumes future handles flow only
through the language (spawn arguments, future values, race-checked shared
memory).  This walkthrough builds the two minimal programs outside that
discipline (found by this repository's differential testing, DESIGN.md
deviation #4), runs the paper's DTRG detector, the access-stamp
vector-clock detector (``ParallelRaceDetector``, ``racecheck --detector
exact``), and the ground-truth transitive closure on each, and shows the
disagreement — then shows that inside the discipline all three agree,
which is the regime the paper (correctly) claims.

Run:  python examples/exact_vs_dtrg.py
"""

from repro import DeterminacyRaceDetector, ParallelRaceDetector
from repro.baselines import BruteForceDetector
from repro.testing.generator import (
    Async,
    Future,
    Get,
    Program,
    Read,
    Write,
    run_program,
)

CASES = [
    (
        "prefix escape (task-level FALSE POSITIVE)",
        "async A { write x3; F = future{} };  F.get();  write x3",
        "main's get on F orders A's *prefix* (which wrote x3) before the\n"
        "   second write — no race.  Task-level PRECEDE(A, main) is false\n"
        "   because A's post-spawn suffix escaped the ordering.",
        Program(
            body=(
                Async(body=(Write(loc=3), Future(body=()))),
                Get(selector=0.9),
                Write(loc=3),
            ),
            num_locs=4,
        ),
    ),
    (
        "suffix escape (task-level FALSE NEGATIVE)",
        "async A { F = future{}; write x2 };  G = future { F.get(); read x2 }",
        "A's write happens *after* spawning F, so G's join on F does not\n"
        "   order it — the read races.  Task-level containment (A is an\n"
        "   ancestor of F) hides the racy suffix.",
        Program(
            body=(
                Async(body=(Future(body=()), Write(loc=2))),
                Future(body=(Get(selector=0.4), Read(loc=2))),
            ),
            num_locs=4,
        ),
    ),
]


def verdicts(program, scoped):
    dtrg = DeterminacyRaceDetector()
    exact = ParallelRaceDetector()
    oracle = BruteForceDetector()
    run_program(program, [dtrg, exact, oracle], scoped_handles=scoped)
    return dtrg.racy_locations, exact.racy_locations, set(oracle.racy_locations)


def main() -> None:
    print("OUT-OF-DISCIPLINE handle flows (the `get` uses a channel the")
    print("language cannot express — our generator's 'wild' mode):\n")
    for title, source, explanation, program in CASES:
        d, e, o = verdicts(program, scoped=False)
        print(f"* {title}")
        print(f"   {source}")
        print(f"   {explanation}")
        print(f"   ground truth: {sorted(o) or 'race-free'}")
        print(f"   DTRG (paper): {sorted(d) or 'race-free'}   <-- wrong here")
        print(f"   vector clock: {sorted(e) or 'race-free'}   <-- matches\n")
        assert e == o and d != o

    print("INSIDE the discipline these programs are not expressible, and on")
    print("everything that is, all three detectors agree (property-tested on")
    print("thousands of programs) — the paper's Theorem 2, with its implicit")
    print("scope made explicit.  Not needing the assumption is cheap at")
    print("these sizes: replaying the table2-scale Series, Crypt, Jacobi,")
    print("Smith-Waterman and Strassen traces, the vector-clock detector")
    print("took 0.75-2.0x the DTRG detector's time (2 cores, CPython")
    print("3.11).  Its cost is memory: each clock grows with the tasks")
    print("joined, the blow-up the paper's §1 warns of")
    print("(benchmarks/bench_vector_clock_scaling.py).")


if __name__ == "__main__":
    main()
