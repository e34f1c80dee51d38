"""Figure 3 / Table 1 — dynamic task reachability graph snapshots.

The paper's Figure 3 (an image we must reconstruct) shows a 7-task program
whose DTRG is dumped twice in Table 1:

* **(a) after "step 11"** — ``T3`` has performed non-tree joins on ``T1``
  and ``T2`` (so ``P(T3) = {T1, T2}``) and then spawned ``T4``, ``T5``,
  ``T6``, whose lowest significant ancestor is therefore ``T3``; every task
  is still its own singleton disjoint set.
* **(b) after "step 17"** — ``T0, T3, T4, T5, T6`` have been connected by
  tree joins and share one disjoint set; ``T1`` and ``T2`` remain apart.

The program below realizes exactly those states::

    // T0 (main)
    T1 = future { ... }
    T2 = future { ... }
    T3 = future(T1, T2) {
        T1.get()        // non-tree: T3 is not an ancestor of T1
        T2.get()        // non-tree
        T4 = future { ... }     // LSA(T4) = T3
        T5 = future { ... }     // LSA(T5) = T3
        T6 = future { ... }     // LSA(T6) = T3
        --- snapshot (a) taken here ---
        T4.get(); T5.get(); T6.get()   // tree joins into T3's set
    }
    T3.get()                            // tree join into T0's set
    --- snapshot (b) taken here ---

``run_figure3`` executes it against a
:class:`~repro.core.detector.DeterminacyRaceDetector` and captures both
snapshots; ``tests/paper/test_figure3_table1.py`` asserts every Table 1
fact against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.detector import DeterminacyRaceDetector
from repro.runtime.runtime import Runtime

__all__ = ["DtrgSnapshot", "Figure3Result", "run_figure3"]


@dataclass
class DtrgSnapshot:
    """Frozen view of the DTRG facts Table 1 reports."""

    partition: List[Set[str]]                 #: disjoint sets, as name sets
    nt_preds: Dict[str, Tuple[str, ...]]      #: P — per task, its set's nt list
    lsa: Dict[str, Optional[str]]             #: A — per task, its set's LSA
    labels: Dict[str, Tuple[int, int]]        #: L — per task, (pre, post/raw)


@dataclass
class Figure3Result:
    detector: DeterminacyRaceDetector
    after_step_11: DtrgSnapshot
    after_step_17: DtrgSnapshot
    tids: Dict[str, int]


def _snapshot(det: DeterminacyRaceDetector, tids: Dict[str, int]) -> DtrgSnapshot:
    det.flush()  # apply the structure events the kernel has not consumed
    names = {tid: name for name, tid in tids.items()}
    known = [tid for tid in tids.values()]
    partition: List[Set[str]] = []
    seen: set = set()
    for name, tid in tids.items():
        if tid in seen:
            continue
        group = {
            names[other]
            for other in known
            if det.dtrg.same_set(tid, other)
        }
        seen.update(tids[g] for g in group)
        partition.append(group)
    nt = {
        name: tuple(
            names[k] for k in det.dtrg.non_tree_predecessors(tid) if k in names
        )
        for name, tid in tids.items()
    }
    lsa = {}
    for name, tid in tids.items():
        anc = det.dtrg.lsa_of(tid)
        lsa[name] = names.get(anc) if anc is not None else None
    labels = {
        name: det.dtrg.label_of(tid) for name, tid in tids.items()
    }
    return DtrgSnapshot(partition=partition, nt_preds=nt, lsa=lsa, labels=labels)


def run_figure3(extra_observers: Sequence = ()) -> Figure3Result:
    """Execute the reconstructed Figure 3 program under the default
    detector, snapshotting its DTRG (sets, labels, ``P`` and LSAs: what
    Table 1 lists)."""
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det, *extra_observers])
    tids: Dict[str, int] = {}
    snapshots: Dict[str, DtrgSnapshot] = {}

    def program(rt: Runtime) -> None:
        tids["T0"] = rt.current_task.tid
        with rt.finish():
            t1 = rt.future(lambda: None, name="T1")
            tids["T1"] = t1.task.tid
            t2 = rt.future(lambda: None, name="T2")
            tids["T2"] = t2.task.tid

            def body_t3() -> None:
                tids["T3"] = rt.current_task.tid
                t1.get()   # non-tree join T1 -> T3
                t2.get()   # non-tree join T2 -> T3
                t4 = rt.future(lambda: None, name="T4")
                tids["T4"] = t4.task.tid
                t5 = rt.future(lambda: None, name="T5")
                tids["T5"] = t5.task.tid
                t6 = rt.future(lambda: None, name="T6")
                tids["T6"] = t6.task.tid
                # --- Table 1 (a): "after the execution of step 11" ---
                snapshots["a"] = _snapshot(det, dict(tids))
                t4.get()   # tree join: merge T4 into T3's set
                t5.get()
                t6.get()

            t3 = rt.future(body_t3, name="T3")
            tids["T3"] = t3.task.tid
            t3.get()       # tree join: merge T3's set into T0's
            # --- Table 1 (b): "after the execution of step 17" ---
            snapshots["b"] = _snapshot(det, dict(tids))

    rt.run(program)
    return Figure3Result(
        detector=det,
        after_step_11=snapshots["a"],
        after_step_17=snapshots["b"],
        tids=tids,
    )
