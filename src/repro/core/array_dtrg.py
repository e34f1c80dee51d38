"""Flat-array *live* DTRG: the object graph's hot path in integer columns.

:class:`ArrayDTRG` reimplements the mutable
:class:`~repro.core.reachability.DynamicTaskReachabilityGraph` (Algorithms
1-7 and 10) over growable ``array('q')`` columns instead of per-task
``TaskNode``/``SetData`` objects.  It is the only array form of Algorithm
10: the one checking kernel (:mod:`repro.core.fastcheck`) runs it, live
in the default detector, over a recorded trace for ``--fast``, and in
every shard of the sharded checker (:mod:`repro.core.parallel_check`).  One slot per task, allocated
in spawn order:

=============  ==========================================================
column         meaning (indexed by dense task index)
=============  ==========================================================
``pre``        preorder value, assigned at spawn from the shared ``dfid``
               counter (:mod:`repro.core.labels` discipline, bit-exact)
``post``       postorder value — *temporary* (near ``MAXID``, from the
               decreasing ``tmpid`` counter) until the task terminates
               and the final value is installed in place
``final``     ``bytearray`` flag: 1 once ``post`` is final
``parent``     spawn-tree parent index, ``-1`` for the root
``is_future``  ``bytearray`` flag
``uf``         union-find parent (Python list — unboxed loads are
               faster than ``array`` in the ``find`` loop)
``max_pre``    largest member preorder of the set, valid at *root* slots
``lsa``        lowest-significant-ancestor task index (``-1`` none),
               valid at root slots
``nt``         per-root non-tree predecessor task-index list (``None``
               when empty — the common case allocates nothing)
=============  ==========================================================

**The root-is-owner invariant.**  In the object graph a set's interval
label is the label *object* of its root-most member, aliased into
``SetData.label`` so a terminate finalizes the set label in place.  Here
unions always keep the *ancestor* side's root as the physical union-find
root (``uf[descendant_root] = ancestor_root``), and by induction the
physical root of every set is its root-most member.  The set label is therefore just
``(pre[root], post[root])`` — no label copies, no owner indirection, and
``on_terminate`` updating ``post[i]`` in place finalizes the set label
exactly when the object graph would.

Equivalence contract (pinned by ``tests/properties/test_array_equivalence``
and the ``dtrg[object]`` fuzz row): verdicts, ``num_precede_queries``,
``num_visits``, ``mutation_epoch``, ``num_tree_merges`` and
``num_non_tree_edges`` are bit-identical to the object graph's on the
same event sequence.  ``num_visits`` holds because both graphs keep the
same verdict memo for searched queries: keyed by the pair of set
representatives and dropped at every mutation.  The two graphs may pick
different members as a set's representative, but within one epoch each
set has exactly one, so a query hits the memo in one graph iff it hits
in the other.

Growth policy: columns grow by plain ``append`` — CPython's ``array`` and
``list`` over-allocate geometrically (~12.5% and ~12.5-25% headroom), so
appends are amortized O(1) and no manual doubling is needed.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Dict, Hashable, List, Optional

from repro.core.labels import MAXID

__all__ = ["ArrayDTRG", "TracedArrayDTRG"]


class ArrayDTRG:
    """Growable flat-column DTRG with the object graph's exact counter
    discipline (see module docstring).

    Two API layers:

    * **key layer** — ``add_root`` / ``add_task`` / ``on_terminate`` /
      ``record_join`` / ``merge`` / ``precede`` by task key, drop-in for
      the detector;
    * **index layer** — ``*_idx`` twins taking dense slot indices, used
      by the fast checker whose encoded traces already carry dense
      indices (:func:`repro.core.events.encode_trace` renumbers tasks in
      the same spawn order this graph allocates slots, so the mapping is
      the identity).
    """

    __slots__ = (
        "index", "keys",
        "pre", "post", "final", "parent", "is_future",
        "uf", "max_pre", "lsa", "nt",
        "mutation_epoch", "num_precede_queries", "num_visits",
        "num_non_tree_edges", "num_tree_merges",
        "_dfid", "_tmpid", "_stamp", "_qid", "_memo", "_memo_epoch",
    )

    def __init__(self) -> None:
        self.index: Dict[Hashable, int] = {}
        self.keys: List[Hashable] = []
        self.pre = array("q")
        self.post = array("q")
        self.final = bytearray()
        self.parent = array("q")
        self.is_future = bytearray()
        self.uf: List[int] = []
        self.max_pre = array("q")
        self.lsa = array("q")
        self.nt: List[Optional[list]] = []
        self.mutation_epoch = 0
        self.num_precede_queries = 0
        self.num_visits = 0
        self.num_non_tree_edges = 0
        self.num_tree_merges = 0
        self._dfid = 0
        self._tmpid = MAXID
        self._stamp: List[int] = []
        self._qid = 0
        #: Epoch-keyed verdict memo for queries that survive the level-0
        #: checks, the same one the object graph keeps: roots only change
        #: under mutations, every mutation bumps the epoch, and the memo
        #: is dropped on any epoch change (docs/ALGORITHM.md §7).
        self._memo: Dict = {}
        self._memo_epoch = 0

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.uf)

    @property
    def num_tasks(self) -> int:
        return len(self.uf)

    # ------------------------------------------------------------------ #
    # Mutation — index layer                                             #
    # ------------------------------------------------------------------ #
    def _new_slot(self, parent_idx: int, is_future: bool, key) -> int:
        i = len(self.uf)
        self.pre.append(self._dfid)
        self.post.append(self._tmpid)
        self.max_pre.append(self._dfid)
        self._dfid += 1
        self._tmpid -= 1
        self.final.append(0)
        self.parent.append(parent_idx)
        self.is_future.append(1 if is_future else 0)
        self.uf.append(i)
        if parent_idx < 0:
            self.lsa.append(-1)
        else:
            # Algorithm 2 lines 7-11: LSA is the parent itself if the
            # parent's *set* has incoming non-tree edges, else inherited.
            rp = self.find(parent_idx)
            self.lsa.append(parent_idx if self.nt[rp] else self.lsa[rp])
        self.nt.append(None)
        self._stamp.append(0)
        if key is None:
            key = i
        self.index[key] = i
        self.keys.append(key)
        return i

    def add_root_idx(self, key=None) -> int:
        """Register the main task (Algorithm 1).  Returns slot 0."""
        if self.uf:
            raise ValueError("root already added")
        return self._new_slot(-1, False, key)

    def add_task_idx(self, parent_idx: int, is_future: bool,
                     key=None) -> int:
        """Register a spawn (Algorithm 2) by parent slot index; the child
        gets the next dense index (== ``key`` when ``key`` is omitted)."""
        i = self._new_slot(parent_idx, is_future, key)
        self.mutation_epoch += 1
        return i

    def on_terminate_idx(self, i: int) -> None:
        """Install the final postorder of a terminating task
        (Algorithm 3) — finalizes its set's label in place when the task
        is a set root (the root-is-owner invariant)."""
        if self.final[i]:
            raise ValueError("label already finalized")
        self.post[i] = self._dfid
        self.final[i] = 1
        self._dfid += 1
        self._tmpid += 1
        self.mutation_epoch += 1

    def record_join_idx(self, consumer_idx: int, producer_idx: int) -> None:
        """Process ``consumer.get(producer)`` (Algorithm 4)."""
        rc = self.find(consumer_idx)
        if rc == self.find(producer_idx):
            return  # repeated get after an earlier merge
        par = self.parent[producer_idx]
        if par >= 0 and self.find(par) == rc:
            self.merge_idx(consumer_idx, producer_idx)
        else:
            nt_c = self.nt[rc]
            if nt_c is None:
                self.nt[rc] = [producer_idx]
            else:
                nt_c.append(producer_idx)
            self.num_non_tree_edges += 1
            self.mutation_epoch += 1

    def merge_idx(self, ancestor_idx: int, descendant_idx: int) -> None:
        """Tree-join merge (Algorithm 7): union keeping the ancestor
        side's root (and thus its label/LSA, which live at the root
        slot), concatenating non-tree lists ancestor-first."""
        ra = self.find(ancestor_idx)
        rb = self.find(descendant_idx)
        if ra == rb:
            return  # already one set (e.g. future both got and IEF-joined)
        nt_b = self.nt[rb]
        if nt_b:
            nt_a = self.nt[ra]
            if nt_a is None:
                self.nt[ra] = list(nt_b)
            else:
                nt_a.extend(nt_b)
        if self.max_pre[rb] > self.max_pre[ra]:
            self.max_pre[ra] = self.max_pre[rb]
        self.uf[rb] = ra
        self.nt[rb] = None  # absorbed above; drop the dead list
        self.num_tree_merges += 1
        self.mutation_epoch += 1

    # ------------------------------------------------------------------ #
    # Mutation — key layer (the PrecedeBackend protocol; names unused)  #
    # ------------------------------------------------------------------ #
    def add_root(self, key: Hashable, name: str = "main") -> int:
        return self.add_root_idx(key)

    def add_task(self, parent_key: Hashable, child_key: Hashable, *,
                 is_future: bool, name: Optional[str] = None) -> int:
        return self.add_task_idx(self.index[parent_key], is_future,
                                 child_key)

    def on_terminate(self, key: Hashable) -> None:
        self.on_terminate_idx(self.index[key])

    def record_join(self, consumer_key: Hashable,
                    producer_key: Hashable) -> None:
        self.record_join_idx(self.index[consumer_key],
                             self.index[producer_key])

    def merge(self, ancestor_key: Hashable, descendant_key: Hashable) -> None:
        self.merge_idx(self.index[ancestor_key], self.index[descendant_key])

    # ------------------------------------------------------------------ #
    # Union-find with path halving (mirrors DisjointSets.find)           #
    # ------------------------------------------------------------------ #
    def find(self, x: int) -> int:
        uf = self.uf
        p = uf[x]
        while p != x:
            g = uf[p]
            uf[x] = g
            x = g
            p = uf[x]
        return x

    def same_set_idx(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    # ------------------------------------------------------------------ #
    # Algorithm 10 (default strategy: intervals + memoized VISIT + LSA), #
    # allocation-free: the visited set is an integer-stamp column reused #
    # across queries by bumping one query id.                            #
    # ------------------------------------------------------------------ #
    def precede(self, a_key: Hashable, b_key: Hashable) -> bool:
        """``PRECEDE(A, B)`` by task key (detector entry point)."""
        self.num_precede_queries += 1
        if a_key == b_key:
            return True
        return self._precede(self.index[a_key], self.index[b_key])

    def precede_idx(self, ia: int, ib: int) -> bool:
        """``PRECEDE`` by dense slot index (fast-checker entry point)."""
        self.num_precede_queries += 1
        if ia == ib:
            return True
        return self._precede(ia, ib)

    def _precede(self, ia: int, ib: int) -> bool:
        ra = self.find(ia)
        rb = self.find(ib)
        if ra == rb:
            return True
        pre = self.pre
        post = self.post
        la_pre = pre[ra]
        la_post = post[ra]
        if la_pre <= pre[rb] and post[rb] <= la_post:
            return True
        if la_pre > self.max_pre[rb]:
            return False
        if not self.nt[rb] and self.lsa[rb] < 0:
            return False
        memo = self._memo
        if self._memo_epoch != self.mutation_epoch:
            memo.clear()
            self._memo_epoch = self.mutation_epoch
        else:
            v = memo.get((ra, rb))
            if v is not None:
                return v
        self._qid += 1
        qid = self._qid
        self._stamp[rb] = qid
        self.num_visits += 1
        v = self._explore(ra, la_pre, la_post, rb, qid)
        memo[(ra, rb)] = v
        return v

    def _visit(self, ra: int, la_pre: int, la_post: int,
               b_idx: int, qid: int) -> bool:
        rb = self.find(b_idx)
        if rb == ra:
            return True
        if la_pre <= self.pre[rb] and self.post[rb] <= la_post:
            return True
        if la_pre > self.max_pre[rb]:
            return False
        stamp = self._stamp
        if stamp[rb] == qid:
            return False
        stamp[rb] = qid
        self.num_visits += 1
        return self._explore(ra, la_pre, la_post, rb, qid)

    def _explore(self, ra: int, la_pre: int, la_post: int,
                 rb: int, qid: int) -> bool:
        visit = self._visit
        nt_b = self.nt[rb]
        if nt_b:
            for pred in nt_b:
                if visit(ra, la_pre, la_post, pred, qid):
                    return True
        stamp, lsa = self._stamp, self.lsa
        anc = lsa[rb]
        while anc >= 0:
            r = self.find(anc)
            if stamp[r] != qid:
                stamp[r] = qid
                self.num_visits += 1
                nt_r = self.nt[r]
                if nt_r:
                    for pred in nt_r:
                        if visit(ra, la_pre, la_post, pred, qid):
                            return True
            anc = lsa[r]
        return False


class TracedArrayDTRG(ArrayDTRG):
    """:class:`ArrayDTRG` reporting to a :class:`repro.obs.Observability`.

    Each index-layer PRECEDE query reports its wall time, VISIT-expansion
    count and outcome: ``search`` when it expanded a set, ``memo`` when
    ``(find(a), find(b))`` is in the current epoch's verdict memo (only
    queries that failed level 0 are stored there, so a memo answer is
    recognized after the fact and the plain query is left untouched),
    else ``level0``.  Each mutation reports an instant carrying the new
    epoch.  The counters and verdicts are the plain graph's.

    A subclass rather than rebound methods, because the graph uses
    ``__slots__``; the kernel binds the ``*_idx`` methods when it starts,
    so every event of the run is traced.  ``names[i]`` is the display
    name of task index ``i`` (the ``add_task`` instants carry it).
    """

    __slots__ = ("_obs", "_names")

    def __init__(self, obs, names: List[str]) -> None:
        super().__init__()
        self._obs = obs
        self._names = names

    def precede_idx(self, ia: int, ib: int) -> bool:
        visits0 = self.num_visits
        start = perf_counter_ns()
        verdict = super().precede_idx(ia, ib)
        dur = perf_counter_ns() - start
        expansions = self.num_visits - visits0
        if expansions:
            outcome = "search"
        elif (self._memo_epoch == self.mutation_epoch
              and (self.find(ia), self.find(ib)) in self._memo):
            outcome = "memo"
        else:
            outcome = "level0"
        self._obs.on_precede(
            self.keys[ia], self.keys[ib], verdict, dur, expansions, outcome,
            self.mutation_epoch,
        )
        return verdict

    def add_task_idx(self, parent_idx: int, is_future: bool,
                     key=None) -> int:
        i = super().add_task_idx(parent_idx, is_future, key)
        self._obs.on_mutation("add_task", self.mutation_epoch,
                              self._names[i])
        return i

    def on_terminate_idx(self, i: int) -> None:
        super().on_terminate_idx(i)
        self._obs.on_mutation("terminate", self.mutation_epoch,
                              str(self.keys[i]))

    def record_join_idx(self, consumer_idx: int, producer_idx: int) -> None:
        super().record_join_idx(consumer_idx, producer_idx)
        self._obs.on_mutation(
            "record_join", self.mutation_epoch,
            f"{self.keys[consumer_idx]}<-{self.keys[producer_idx]}",
        )

    def merge_idx(self, ancestor_idx: int, descendant_idx: int) -> None:
        super().merge_idx(ancestor_idx, descendant_idx)
        self._obs.on_mutation(
            "merge", self.mutation_epoch,
            f"{self.keys[ancestor_idx]}+{self.keys[descendant_idx]}",
        )
