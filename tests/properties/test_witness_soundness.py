"""Witness soundness: every emitted certificate describes a real race.

Theorem 2 makes the DTRG detector's *verdicts* exact; this suite pins the
same property for the provenance layer's *explanations*:

* every :class:`~repro.obs.provenance.RaceWitness` that
  :func:`~repro.obs.provenance.explain_races` builds from the recorded
  trace is
  independently confirmed by the brute-force transitive closure of the
  computation graph (``confirm_witness``) — a pair of accesses with the
  witnessed roles really is logically parallel;
* the certificate's recorded verdict matches a fresh ``precede`` query,
  i.e. ``explain_precede`` is a faithful read-only replay of the decision
  procedure, each set's ``rep`` is its root-most member (the first of its
  ``members``), and every witness passes the JSON schema validator;
* the witnessed location is racy under the access-stamp vector-clock
  detector too (Theorem 2 cross-check at location granularity).

Plus one anatomy regression: the checked-in non-tree-join corpus program
whose certificate must contain a walked LSA chain and an exhausted VISIT
frontier (the interesting half of the PRECEDE search).
"""

import json
import random
from pathlib import Path

from repro.core.detector import DeterminacyRaceDetector
from repro.core.parallel_detector import ParallelRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.memory.tracer import TraceRecorder
from repro.obs.provenance import (
    RaceProvenance, confirm_witness, explain_races,
)
from repro.obs.validate import validate_witness
from repro.testing.codec import entry_from_data
from repro.testing.generator import random_program, run_program

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

#: Seed budget for the sweep; each seed is one full program execution with
#: recorder + dtrg + graph builder + vector-clock detector attached.
NUM_SEEDS = 200


def detect_with_witnesses(program):
    """Run once with a provenance recorder + dtrg (whose graph the sweep
    queries afterwards) + graph builder + vector clocks, then explain the
    races from the trace."""
    prov = RaceProvenance()
    recorder = TraceRecorder(prov)
    det = DeterminacyRaceDetector()
    gb = GraphBuilder()
    vc = ParallelRaceDetector()
    run_program(program, [recorder, det, gb, vc], scoped_handles=True,
                provenance=prov)
    _, witnesses = explain_races(recorder.trace, det.races, det.race_rows)
    return det, witnesses, gb, vc


def test_generated_program_witnesses_are_sound():
    confirmed = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        det, witnesses, gb, vc = detect_with_witnesses(program)
        assert len(witnesses) == len(list(det.report))
        if not witnesses:
            continue
        closure = ReachabilityClosure(gb.graph)
        for w in witnesses:
            # (1) brute-force graph confirms the pair is unordered
            assert confirm_witness(w, gb.graph, closure=closure), (
                f"seed {seed}: witness {w.witness_id} for {w.loc!r} "
                f"({w.kind}, tasks {w.prev_task}/{w.current_task}) refuted "
                f"by the transitive closure\n{program}"
            )
            # (2) the detection-time certificate says unordered, and a
            # fresh explain replay agrees with a fresh precede query on
            # the *final* DTRG (joins after the race may have ordered the
            # pair since, so both are re-queried on the same state).
            cert = w.certificate
            assert cert["verdict"] is False
            # A set's representative is its root-most member, the first
            # of its members in creation order.
            for side in ("a_set", "b_set"):
                assert cert[side]["rep"] == cert[side]["members"][0], (
                    f"seed {seed}: {side} rep is not its root-most member")
            replayed = det.dtrg.explain_precede(
                w.prev_task, w.current_task
            )
            assert replayed["verdict"] == det.dtrg.precede(
                w.prev_task, w.current_task
            ), f"seed {seed}: explain_precede disagrees with precede"
            # (3) schema-valid and JSON-serializable
            assert validate_witness(w.to_data()) == []
            json.dumps(w.to_data())
            # (4) the location is racy under the vector clocks too
            assert w.loc in set(vc.racy_locations), (
                f"seed {seed}: witnessed loc {w.loc!r} not racy per "
                "vector clocks"
            )
            confirmed += 1
    # the generator must actually exercise the property
    assert confirmed > 50, f"only {confirmed} witnesses over {NUM_SEEDS} seeds"


def test_corpus_lsa_chain_witness_anatomy():
    """The checked-in non-tree-join race must be explained *through* the
    LSA chain: the backward search climbs from the reader's set via its
    lowest significant ancestor, scans the non-tree predecessor acquired
    by the ``get``, and exhausts the frontier without reaching the
    writer's set."""
    entry = entry_from_data(json.loads(
        (CORPUS / "future_nt_join_lsa_witness.json").read_text()
    ))
    det, witnesses, gb, _ = detect_with_witnesses(entry.program)
    assert set(det.racy_locations) == {("x", 0)}
    (w,) = witnesses
    assert w.kind == "write-read"
    search = w.certificate["search"]
    assert search is not None, "race must not be level-0/prune resolvable"
    assert search["lsa_chain"], "certificate must walk the LSA chain"
    assert search["frontier_exhausted"] is True
    assert any(rec["via"] == "lsa" for rec in search["expanded"])
    assert any(rec["via"] == "nt" for rec in search["expanded"])
    assert confirm_witness(w, gb.graph,
                           closure=ReachabilityClosure(gb.graph))
    assert validate_witness(w.to_data()) == []
