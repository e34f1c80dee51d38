"""The dynamic task reachability graph (DTRG) in flat integer columns.

:class:`ArrayDTRG` is the one implementation of the paper's Section 4.1
graph and Algorithms 1-7 and 10.  The one checking kernel
(:mod:`repro.core.fastcheck`) runs it live in the default detector, over
a recorded trace for ``--fast``, and in every shard of the sharded
checker (:mod:`repro.core.parallel_check`).  It is the 5-tuple
``R = (N, D, L, P, A)`` of Definition 1 over growable ``array('q')``
columns, one slot per task, allocated in spawn order:

=============  ==========================================================
column         meaning (indexed by dense task index)
=============  ==========================================================
``pre``        preorder value, assigned at spawn from the shared ``dfid``
               counter (``L``)
``post``       postorder value — *temporary* (near ``MAXID``, from the
               decreasing ``tmpid`` counter) until the task terminates
               and the final value is installed in place
``final``     ``bytearray`` flag: 1 once ``post`` is final
``parent``     spawn-tree parent index, ``-1`` for the root
``is_future``  ``bytearray`` flag
``uf``         union-find parent (``D``; Python list — unboxed loads are
               faster than ``array`` in the ``find`` loop)
``max_pre``    largest member preorder of the set, valid at *root* slots
``lsa``        lowest-significant-ancestor task index (``A``; ``-1``
               none), valid at root slots
``nt``         per-root non-tree predecessor task-index list (``P``;
               ``None`` when empty — the common case allocates nothing)
=============  ==========================================================

**Online interval labels (Algorithms 1-3).**  ``pre`` comes from a
counter ``dfid`` that increases over time: under serial depth-first
execution spawn order *is* preorder.  ``post`` starts as a temporary from
a counter ``tmpid`` that starts at ``MAXID`` and decreases at each spawn;
a terminate installs the final value from ``dfid`` and gives the
temporary back (``tmpid`` increases), so temporaries are recycled in
stack order as tasks nest.  A live task's temporary is larger than every
final postorder and than the temporaries of its live descendants, so
interval containment answers ancestor queries correctly at every
intermediate moment, not just post-mortem.

**The root-is-owner invariant.**  A set's interval label is the label of
its root-most member.  Unions always keep the *ancestor* side's root as
the physical union-find root (``uf[descendant_root] = ancestor_root``),
and by induction the physical root of every set is its root-most member.
The set label is therefore just ``(pre[root], post[root])``, and
``on_terminate`` updating ``post[i]`` in place finalizes the set label
when the root-most member terminates.  The set's representative (``rep``
in race witnesses) is that same member.

**PRECEDE (Algorithm 10).**  Same set → true; set-interval containment →
true; preorder pruning — the paper prunes when ``pre(A) > pre(B)``
because a non-tree edge's source predates its sink, but after tree-join
merges a set's *label* carries the root-most (smallest) preorder while
its non-tree edges may belong to later members, so the prune compares
against the set's ``max_pre`` to stay sound (DESIGN.md deviation #3);
otherwise search backwards through the non-tree predecessors of B's set
and of every significant ancestor of B, each set expanded at most once
per query (the Theorem 1 bound).  Searched verdicts are memoized for the
current ``mutation_epoch``, keyed by the pair of set roots, and the memo
is dropped at every mutation (docs/ALGORITHM.md §7).

:class:`AblatedArrayDTRG` turns those accelerations off one by one for
the ablation benchmark; :class:`TracedArrayDTRG` reports to an attached
:class:`repro.obs.Observability`.

Growth policy: columns grow by plain ``append`` — CPython's ``array`` and
``list`` over-allocate geometrically (~12.5% and ~12.5-25% headroom), so
appends are amortized O(1) and no manual doubling is needed.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["AblatedArrayDTRG", "ArrayDTRG", "MAXID", "TracedArrayDTRG"]

#: Stand-in for the paper's MAXINT, the first temporary postorder.
#: Python ints are unbounded; any value above the largest task count works.
MAXID = sys.maxsize


class ArrayDTRG:
    """Growable flat-column DTRG (see module docstring).

    Two API layers:

    * **index layer** — ``add_root_idx`` / ``add_task_idx`` /
      ``on_terminate_idx`` / ``record_join_idx`` / ``merge_idx`` /
      ``precede_idx`` by dense slot index: the surface the kernel drives
      (:func:`repro.core.events.encode_trace` renumbers tasks in the same
      spawn order this graph allocates slots, so the mapping is the
      identity);
    * **key layer** — the same mutators and ``precede`` by task key, plus
      the read-only views Table 1 and the race witnesses read
      (``same_set``, ``non_tree_predecessors``, ``lsa_of``,
      ``label_of``, ``partition``, ``explain_precede``).

    Counters: ``num_precede_queries``; ``num_visits`` counts VISIT
    *expansions* — sets whose non-tree frontier a search scans, the LSA
    hops included — so queries resolved at level 0 (same set, interval
    containment, preorder prune, empty frontier) or from the memo count
    zero, and the counter measures exactly the backward-search work
    Theorem 1 bounds; ``num_non_tree_edges``; ``num_tree_merges``;
    ``mutation_epoch``, bumped by every mutation but ``add_root``.
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
        #: checks: roots only change under mutations, every mutation bumps
        #: the epoch, and the memo is dropped on any epoch change
        #: (docs/ALGORITHM.md §7).
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
    # Union-find with path halving                                       #
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

    # ------------------------------------------------------------------ #
    # Read-only views by key (Table 1 dumps, race witnesses, tests).     #
    # They touch no counter, memo or stamp (``find`` only halves paths). #
    # ------------------------------------------------------------------ #
    def same_set(self, a_key: Hashable, b_key: Hashable) -> bool:
        """True iff the two tasks are currently in the same disjoint set."""
        return self.find(self.index[a_key]) == self.find(self.index[b_key])

    def non_tree_predecessors(self, key: Hashable) -> List[Hashable]:
        """Keys of the non-tree predecessors of ``key``'s set (``P``), in
        insertion order."""
        return [self.keys[p] for p in self.nt[self.find(self.index[key])] or ()]

    def lsa_of(self, key: Hashable) -> Optional[Hashable]:
        """Key of the lowest significant ancestor of ``key``'s set
        (``A``), or ``None``."""
        anc = self.lsa[self.find(self.index[key])]
        return None if anc < 0 else self.keys[anc]

    def label_of(self, key: Hashable) -> Tuple[int, int]:
        """The task's *own* interval label ``(pre, post)`` (``L``)."""
        i = self.index[key]
        return self.pre[i], self.post[i]

    def partition(self) -> List[List[Hashable]]:
        """The disjoint-set partition ``D`` as lists of task keys: groups
        in order of their first-created member, members in creation
        order."""
        groups: Dict[int, List[Hashable]] = {}
        for i, key in enumerate(self.keys):
            groups.setdefault(self.find(i), []).append(key)
        return list(groups.values())

    def explain_precede(self, a_key: Hashable, b_key: Hashable) -> dict:
        """Replay ``PRECEDE(a, b)`` read-only and return a JSON-able
        certificate of the verdict (the race-witness payload).

        The recorded walk is the default strategy (interval level-0
        checks, memoized VISIT, LSA-chain ancestors); its verdict is the
        reachability answer every strategy computes.  A set's ``rep`` is
        its root-most member, the task whose label is the set label, so
        ``rep == members[0]`` (members are listed in creation order).

        Certificate layout (all task references are keys)::

            {"query": {"a", "b"}, "verdict": bool,
             "a_label"/"b_label": {"pre", "post", "final"},
             "a_set"/"b_set": {"rep", "label", "max_pre", "nt", "lsa",
                               "members", "members_truncated"},
             "level0": {"same_task", "same_set", "interval_ancestor",
                        "preorder_pruned", "empty_frontier"},
             "search": None | {"expanded": [{"rep", "label", "via",
                                             "nt_scanned"}],
                               "lsa_chain": [...],
                               "frontier_exhausted": bool}}
        """
        keys, pre, post, max_pre = self.keys, self.pre, self.post, self.max_pre
        root = self.find
        ia, ib = self.index[a_key], self.index[b_key]
        ra, rb = root(ia), root(ib)
        la_pre, la_post = pre[ra], post[ra]

        def label_data(i: int) -> dict:
            return {"pre": pre[i], "post": post[i],
                    "final": bool(self.final[i])}

        def nt_keys(r: int) -> list:
            return [keys[p] for p in self.nt[r] or ()]

        def contains(r: int) -> bool:
            return la_pre <= pre[r] and post[r] <= la_post

        def set_info(r: int) -> dict:
            members = [keys[i] for i in range(len(keys)) if root(i) == r]
            return {
                "rep": keys[r],
                "label": label_data(r),
                "max_pre": max_pre[r],
                "nt": nt_keys(r),
                "lsa": keys[self.lsa[r]] if self.lsa[r] >= 0 else None,
                "members": members[:64],
                "members_truncated": len(members) > 64,
            }

        level0 = {
            "same_task": a_key == b_key,
            "same_set": ra == rb,
            "interval_ancestor": contains(rb),
            "preorder_pruned": la_pre > max_pre[rb],
            "empty_frontier": not self.nt[rb] and self.lsa[rb] < 0,
        }
        cert = {
            "query": {"a": a_key, "b": b_key},
            "a_label": label_data(ia),
            "b_label": label_data(ib),
            "a_set": set_info(ra),
            "b_set": set_info(rb),
            "level0": level0,
        }
        if (level0["same_task"] or level0["same_set"]
                or level0["interval_ancestor"]):
            cert["verdict"] = True
            cert["search"] = None
            return cert
        if level0["preorder_pruned"]:
            cert["verdict"] = False
            cert["search"] = None
            return cert

        # The backward search of _visit/_explore with a local visited
        # set, recording every expansion and the LSA chain hops.
        expanded: list = []
        lsa_chain: list = []
        visited = {rb}

        def expansion(r: int, via: str) -> dict:
            return {"rep": keys[r], "label": label_data(r), "via": via,
                    "nt_scanned": nt_keys(r)}

        def visit(i: int) -> bool:
            r = root(i)
            if r == ra or contains(r):
                return True
            if la_pre > max_pre[r] or r in visited:
                return False
            visited.add(r)
            expanded.append(expansion(r, "nt"))
            return explore(r)

        def explore(r: int) -> bool:
            if any(visit(p) for p in self.nt[r] or ()):
                return True
            anc = self.lsa[r]
            while anc >= 0:
                r_anc = root(anc)
                if r_anc not in visited:
                    visited.add(r_anc)
                    lsa_chain.append(keys[r_anc])
                    expanded.append(expansion(r_anc, "lsa"))
                    if any(visit(p) for p in self.nt[r_anc] or ()):
                        return True
                anc = self.lsa[r_anc]
            return False

        expanded.append(expansion(rb, "start"))
        found = explore(rb)
        cert["verdict"] = found
        cert["search"] = {
            "expanded": expanded,
            "lsa_chain": lsa_chain,
            "frontier_exhausted": not found,
        }
        return cert


class AblatedArrayDTRG(ArrayDTRG):
    """:class:`ArrayDTRG` with Algorithm 10's accelerations switchable off
    (``benchmarks/bench_ablations.py``; the fuzzer's ``dtrg[no-*]`` rows).

    * ``use_intervals=False`` — the set-level ancestor test walks
      ``parent`` from B's set root up to A's instead of comparing
      interval labels;
    * ``use_lsa=False`` — the search walks *every* spawn-tree ancestor of
      the searched task instead of hopping along the LSA chain, and an
      empty frontier no longer ends a query at level 0;
    * ``memoize_visit=False`` — a set expanded by a failed branch is
      un-visited on backtrack, so another branch may expand it again.
      The visited mark then only breaks cycles: the set-level backward
      graph can be cyclic though the step graph is a DAG, because a
      merged set conflates tasks created before and after its non-tree
      sources.  A re-expansion counts again in ``num_visits`` — the cost
      this ablation measures.

    Every combination computes the same verdicts; only ``_precede``,
    ``_visit`` and ``_explore`` differ, so the default class's hot path
    carries no switch.  Here ``_explore``'s fourth argument is any member
    of the set to expand (the ancestor walk starts at that task).
    """

    __slots__ = ("use_lsa", "memoize_visit", "use_intervals")

    def __init__(self, *, use_lsa: bool = True, memoize_visit: bool = True,
                 use_intervals: bool = True) -> None:
        super().__init__()
        self.use_lsa = use_lsa
        self.memoize_visit = memoize_visit
        self.use_intervals = use_intervals

    def _contains(self, ra: int, rb: int) -> bool:
        if self.use_intervals:
            return (self.pre[ra] <= self.pre[rb]
                    and self.post[rb] <= self.post[ra])
        parent = self.parent
        while rb >= 0:
            if rb == ra:
                return True
            rb = parent[rb]
        return False

    def _precede(self, ia: int, ib: int) -> bool:
        ra = self.find(ia)
        rb = self.find(ib)
        if ra == rb or self._contains(ra, rb):
            return True
        la_pre = self.pre[ra]
        if la_pre > self.max_pre[rb]:
            return False
        if self.use_lsa and not self.nt[rb] and self.lsa[rb] < 0:
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
        v = self._explore(ra, la_pre, self.post[ra], ib, qid)
        memo[(ra, rb)] = v
        return v

    def _visit(self, ra: int, la_pre: int, la_post: int,
               b_idx: int, qid: int) -> bool:
        rb = self.find(b_idx)
        if rb == ra or self._contains(ra, rb):
            return True
        if la_pre > self.max_pre[rb]:
            return False
        stamp = self._stamp
        if stamp[rb] == qid:
            return False
        stamp[rb] = qid
        self.num_visits += 1
        found = self._explore(ra, la_pre, la_post, b_idx, qid)
        if not found and not self.memoize_visit:
            stamp[rb] = 0
        return found

    def _explore(self, ra: int, la_pre: int, la_post: int,
                 b_idx: int, qid: int) -> bool:
        visit = self._visit
        for pred in self.nt[self.find(b_idx)] or ():
            if visit(ra, la_pre, la_post, pred, qid):
                return True
        stamp, use_lsa = self._stamp, self.use_lsa
        expanded = []
        found = False
        anc = self.lsa[self.find(b_idx)] if use_lsa else self.parent[b_idx]
        while anc >= 0 and not found:
            r = self.find(anc)
            if stamp[r] != qid:
                stamp[r] = qid
                self.num_visits += 1
                expanded.append(r)
                for pred in self.nt[r] or ():
                    if visit(ra, la_pre, la_post, pred, qid):
                        found = True
                        break
            anc = self.lsa[r] if use_lsa else self.parent[anc]
        if not found and not self.memoize_visit:
            for r in expanded:
                stamp[r] = 0
        return found


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
