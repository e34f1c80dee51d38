"""The dynamic task reachability graph (DTRG) — Section 4.1 + Algorithm 10.

The DTRG answers, on the fly, the query at the core of determinacy race
detection: *must every completed step of task A precede the currently
executing step of task B?*  It is the 5-tuple ``R = (N, D, L, P, A)`` of
Definition 1 (Section 4.1):

* ``N`` — one node per task (:class:`TaskNode`);
* ``D`` — a partition of nodes into disjoint sets; two tasks share a set iff
  they are connected by tree-join + continue edges
  (:class:`repro.core.disjoint_set.DisjointSets`);
* ``L`` — interval labels from the spawn tree's depth-first numbering, one
  per set, equal to the label of the set's root-most task
  (:class:`repro.core.labels.IntervalLabel`);
* ``P`` — per set, the incoming *non-tree* join edges (``nt`` lists);
* ``A`` — per set, the *lowest significant ancestor* (LSA): the nearest
  spawn-tree ancestor whose set has at least one incoming non-tree edge.

:meth:`DynamicTaskReachabilityGraph.precede` implements the paper's
``PRECEDE``/``VISIT`` routine (Algorithm 10, reconstructed from the prose —
see DESIGN.md §3): same set → true; set-interval containment → true;
preorder pruning — the paper prunes when ``pre(A) > pre(B)`` because a
non-tree edge's source predates its sink, but after tree-join merges a set's
*label* carries the root-most (smallest) preorder while its non-tree edges
may belong to later members, so we prune against the set's ``max_pre``
(largest member preorder) to stay sound; otherwise search backwards through
the non-tree predecessors of B's set and of every significant ancestor of B,
memoized so each set is expanded at most once per query (needed for the
Theorem 1 bound).

Ablation switches (used by ``benchmarks/bench_ablations.py``):

* ``use_lsa=False`` — walk *every* spawn-tree ancestor instead of hopping
  through the significant-ancestor chain;
* ``memoize_visit=False`` — drop the per-query visited set;
* ``use_intervals=False`` — answer ancestor queries by chasing parent
  pointers instead of O(1) interval containment.

The graph also maintains :attr:`mutation_epoch`, a counter bumped on every
structural mutation (``add_task``, ``record_join``, ``merge``,
``on_terminate``).  The verdict memo of
:meth:`DynamicTaskReachabilityGraph.precede` is keyed on it: verdicts
that needed a backward search are kept for the current epoch only,
exactly as :class:`repro.core.array_dtrg.ArrayDTRG` keeps them, so the
two graphs count the same ``num_visits`` (docs/ALGORITHM.md §7).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.core.disjoint_set import DisjointSets
from repro.core.labels import IntervalLabel, LabelAllocator

__all__ = ["TaskNode", "SetData", "DynamicTaskReachabilityGraph"]


class TaskNode:
    """DTRG vertex for one task.

    Holds the per-*task* facts (spawn-tree parent, own label, future-ness);
    per-*set* facts live in :class:`SetData` attached to the disjoint set.
    """

    __slots__ = ("key", "parent", "label", "is_future", "name")

    def __init__(
        self,
        key: Hashable,
        parent: Optional["TaskNode"],
        label: IntervalLabel,
        is_future: bool,
        name: str,
    ) -> None:
        self.key = key
        self.parent = parent
        self.label = label
        self.is_future = is_future
        self.name = name

    def __repr__(self) -> str:
        return f"<TaskNode {self.name} {self.label!r}>"


class SetData:
    """Metadata of one disjoint set: its interval label (the label of the
    set's root-most task), the incoming non-tree join edges ``nt``, the
    lowest significant ancestor ``lsa`` (a :class:`TaskNode`, resolved to
    its *current* set at query time via ``find``), and ``max_pre`` — the
    largest preorder value over the set's members.

    ``max_pre`` exists to make the paper's preorder pruning sound after
    merges: a merged set carries the *ancestor's* (small) label, but its
    non-tree edges may have been contributed by later-created members, so
    the prune must compare against the latest member, not the label (see
    DESIGN.md deviation #3; ``tests/core/test_reachability.py`` pins the
    regression)."""

    __slots__ = ("label", "nt", "lsa", "max_pre")

    def __init__(
        self,
        label: IntervalLabel,
        lsa: Optional[TaskNode],
    ) -> None:
        self.label = label
        self.nt: List[TaskNode] = []
        self.lsa = lsa
        self.max_pre = label.pre

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetData(label={self.label!r}, nt={[n.name for n in self.nt]}, "
            f"lsa={self.lsa.name if self.lsa else None})"
        )


class DynamicTaskReachabilityGraph:
    """On-the-fly task-level reachability for non-strict computation graphs.

    The driving detector calls, in serial depth-first execution order:

    * :meth:`add_root` once for the main task (Algorithm 1);
    * :meth:`add_task` at each spawn (Algorithm 2);
    * :meth:`on_terminate` at each task end (Algorithm 3);
    * :meth:`record_join` at each ``get()`` (Algorithm 4);
    * :meth:`merge` for each IEF join at end-finish (Algorithm 6 + 7);
    * :meth:`precede` from the shadow-memory checks (Algorithm 10).
    """

    def __init__(
        self,
        *,
        use_lsa: bool = True,
        memoize_visit: bool = True,
        use_intervals: bool = True,
    ) -> None:
        self._sets: DisjointSets[TaskNode] = DisjointSets()
        self._labels = LabelAllocator()
        self._nodes: Dict[Hashable, TaskNode] = {}
        self.use_lsa = use_lsa
        self.memoize_visit = memoize_visit
        self.use_intervals = use_intervals
        #: Counter bumped on every structural mutation; see module docstring.
        self.mutation_epoch = 0
        #: Verdicts of searched queries, keyed by the pair of set
        #: representatives, valid for ``_memo_epoch`` only (see precede).
        self._memo: Dict[tuple, bool] = {}
        self._memo_epoch = 0
        # Statistics for complexity tests / benchmarks.
        self.num_precede_queries = 0
        #: VISIT *expansions*: sets added to a query's visited set whose
        #: non-tree frontier is then scanned (including the significant-
        #: ancestor expansions of ``_explore``).  Queries resolved at
        #: level 0 — same set, interval containment, preorder prune, empty
        #: frontier — or from the memo contribute zero, so the counter
        #: measures exactly the backward-search work Theorem 1 bounds.
        #: Without ``memoize_visit`` a set re-expanded after backtracking
        #: counts once per expansion (the cost that ablation measures).
        self.num_visits = 0
        self.num_non_tree_edges = 0
        self.num_tree_merges = 0

    # ------------------------------------------------------------------ #
    # Construction (Algorithms 1-7)                                      #
    # ------------------------------------------------------------------ #
    def add_root(self, key: Hashable, name: str = "main") -> TaskNode:
        """Register the main task (Algorithm 1)."""
        label = self._labels.on_spawn()
        node = TaskNode(key, parent=None, label=label, is_future=False, name=name)
        self._nodes[key] = node
        self._sets.make_set(node, SetData(label=label, lsa=None))
        return node

    def add_task(
        self,
        parent_key: Hashable,
        child_key: Hashable,
        *,
        is_future: bool,
        name: Optional[str] = None,
    ) -> TaskNode:
        """Register a freshly spawned task (Algorithm 2).

        The child starts in a singleton set labeled with a fresh preorder
        value and a temporary postorder value.  Its LSA is the parent itself
        if the parent's *set* has incoming non-tree edges, else the parent's
        LSA (Algorithm 2 lines 7-11).
        """
        parent = self._nodes[parent_key]
        label = self._labels.on_spawn()
        node = TaskNode(
            child_key,
            parent=parent,
            label=label,
            is_future=is_future,
            name=name or str(child_key),
        )
        self._nodes[child_key] = node
        parent_data: SetData = self._sets.get_metadata(parent)
        lsa = parent if parent_data.nt else parent_data.lsa
        self._sets.make_set(node, SetData(label=label, lsa=lsa))
        self.mutation_epoch += 1
        return node

    def on_terminate(self, key: Hashable) -> None:
        """Install the final postorder value of a terminating task
        (Algorithm 3).

        Bumps the mutation epoch: finalizing a postorder changes interval
        representations (never the ancestor relation they encode), and the
        terminate also hands execution back to the parent task, so
        memoized verdicts about "the currently executing task" expire."""
        self._labels.on_terminate(self._nodes[key].label)
        self.mutation_epoch += 1

    def record_join(self, consumer_key: Hashable, producer_key: Hashable) -> None:
        """Process ``consumer.get(producer)`` (Algorithm 4).

        If the consumer's set already contains the producer's *parent* —
        i.e. the consumer is an ancestor and every task between it and the
        producer has tree-joined — the join is a tree join and the sets
        merge.  Otherwise it is a non-tree join edge, recorded in the
        consumer set's ``nt`` list.
        """
        consumer = self._nodes[consumer_key]
        producer = self._nodes[producer_key]
        if self._sets.same_set(consumer, producer):
            # Repeated get after an earlier merge: nothing new to record.
            return
        if producer.parent is not None and self._sets.same_set(
            consumer, producer.parent
        ):
            self.merge(consumer_key, producer_key)
        else:
            data: SetData = self._sets.get_metadata(consumer)
            data.nt.append(producer)
            self.num_non_tree_edges += 1
            self.mutation_epoch += 1

    def merge(self, ancestor_key: Hashable, descendant_key: Hashable) -> None:
        """Tree-join merge (Algorithm 7): union the two sets, keeping the
        ancestor set's label and LSA and combining the non-tree lists."""
        a = self._nodes[ancestor_key]
        b = self._nodes[descendant_key]
        data_a: SetData = self._sets.get_metadata(a)
        data_b: SetData = self._sets.get_metadata(b)
        if data_a is data_b:
            return  # already one set (e.g. future both got and IEF-joined)
        data_a.nt.extend(data_b.nt)
        if data_b.max_pre > data_a.max_pre:
            data_a.max_pre = data_b.max_pre
        self._sets.union(a, b)
        self._sets.set_metadata(a, data_a)
        self.num_tree_merges += 1
        self.mutation_epoch += 1

    # ------------------------------------------------------------------ #
    # Queries (Algorithm 10)                                             #
    # ------------------------------------------------------------------ #
    def precede(self, a_key: Hashable, b_key: Hashable) -> bool:
        """``PRECEDE(A, B)``: must every completed step of task A precede
        the currently executing step of task B?

        ``B`` is expected to be the currently executing task (the detector
        only queries from shadow-memory checks); ``A`` is any previously
        observed task.  A task trivially precedes itself (program order).

        Verdicts that survive the level-0 checks (the ones that would pay a
        backward search) are memoized for the current mutation epoch,
        keyed by the pair of current set representatives.  Within one
        epoch the graph is frozen, so the verdict is a pure function of
        the key; any mutation drops the memo.  The level-0 checks are
        already cheaper than a table probe and stay unmemoized.
        """
        self.num_precede_queries += 1
        if a_key == b_key:
            return True
        a = self._nodes[a_key]
        b = self._nodes[b_key]
        sets = self._sets
        root_a, data_a = sets.root_and_metadata(a)
        # Level-0 checks are inlined (hot path: most queries resolve here
        # without allocating the visited set — per the HPC guides, this is
        # the measured bottleneck of every access-dominated benchmark).
        # They bump no counter: ``num_visits`` counts expansions only (see
        # __init__), and level-0 work is already implied by
        # ``num_precede_queries``.
        root_b, data_b = sets.root_and_metadata(b)
        if root_b is root_a:
            return True  # same disjoint set: tree-join/continue path exists
        la, lb = data_a.label, data_b.label
        if self.use_intervals:
            if la.pre <= lb.pre and lb.post <= la.post:
                return True  # A's set is an ancestor interval of B's set
        elif self._contains(root_a, data_a, root_b, data_b):
            return True
        if la.pre > data_b.max_pre:
            return False  # preorder prune (see _visit)
        if not data_b.nt and data_b.lsa is None and self.use_lsa:
            return False  # nothing to search backwards through
        memo = self._memo
        if self._memo_epoch != self.mutation_epoch:
            memo.clear()
            self._memo_epoch = self.mutation_epoch
        else:
            verdict = memo.get((root_a, root_b))
            if verdict is not None:
                return verdict
        self.num_visits += 1  # B's set is expanded by the _explore below
        visited = {root_b}
        verdict = self._explore(root_a, data_a, b, root_b, data_b, visited)
        memo[(root_a, root_b)] = verdict
        return verdict

    def _visit(
        self,
        root_a: TaskNode,
        data_a: SetData,
        b: TaskNode,
        visited: set,
    ) -> bool:
        """``VISIT(A, B)`` — search for a path from A's set to B's set.

        ``visited`` holds set representatives already expanded.  With
        ``memoize_visit`` (the default, required for the Theorem 1 bound)
        entries are permanent, so each set is expanded at most once per
        query.  Without it, entries are removed on backtrack
        (:meth:`_explore`): the guard then only breaks cycles — the
        backward *set*-level graph can be cyclic even though the step graph
        is a DAG, because a merged set conflates tasks created before and
        after its non-tree sources — while cross-branch re-exploration (the
        cost the ablation measures) still happens.  Both modes compute the
        same backward-reachability verdict.

        ``num_visits`` is bumped only when the set is actually expanded
        (added to ``visited`` and handed to :meth:`_explore`) — level-0
        resolutions and already-visited probes are free, keeping the
        counter's "expansions only" semantics consistent with the inlined
        level-0 path of :meth:`precede`.
        """
        root_b, data_b = self._sets.root_and_metadata(b)
        if root_b is root_a:
            return True  # same disjoint set: tree-join/continue path exists
        la, lb = data_a.label, data_b.label
        if self.use_intervals:
            if la.pre <= lb.pre and lb.post <= la.post:
                return True  # A's set is an ancestor interval of B's set
        elif self._contains(root_a, data_a, root_b, data_b):
            return True
        if la.pre > data_b.max_pre:
            # Any path into B's set enters through an edge recorded by one
            # of its members; every such source predates the latest member,
            # so a set whose root-most task was created after *all* members
            # of B's set can never be reached backwards from it.
            return False
        if root_b in visited:
            return False
        visited.add(root_b)
        self.num_visits += 1
        found = self._explore(root_a, data_a, b, root_b, data_b, visited)
        if not found and not self.memoize_visit:
            visited.discard(root_b)
        return found

    def _explore(
        self,
        root_a: TaskNode,
        data_a: SetData,
        b: TaskNode,
        root_b: TaskNode,
        data_b: SetData,
        visited: set,
    ) -> bool:
        """Scan B's backward frontier: its set's non-tree predecessors and
        those of its (significant) ancestors.  ``root_b`` must already be
        in ``visited``."""
        # Immediate non-tree predecessors of B's set.
        for pred in data_b.nt:
            if self._visit(root_a, data_a, pred, visited):
                return True
        # Non-tree predecessors of B's (significant) ancestors: any join
        # recorded so far into an ancestor of the *currently executing*
        # B happened before B's branch was spawned, so it reaches B.
        expanded = None
        found = False
        if self.use_lsa:
            # Invariant: a set's lsa is always a *proper* ancestor of
            # the set's root-most member (merges keep the ancestor
            # side's metadata), so chain preorders strictly decrease
            # and the walk terminates.  A set already in `visited` has
            # had its nt list scanned, but its upward chain is exactly
            # this loop's continuation, so we keep walking either way.
            anc = data_b.lsa
            while anc is not None:
                root_anc, data_anc = self._sets.root_and_metadata(anc)
                if root_anc not in visited:
                    visited.add(root_anc)
                    self.num_visits += 1
                    if expanded is None:
                        expanded = [root_anc]
                    else:
                        expanded.append(root_anc)
                    for pred in data_anc.nt:
                        if self._visit(root_a, data_a, pred, visited):
                            found = True
                            break
                    if found:
                        break
                anc = data_anc.lsa
        else:
            # Ablation: walk every spawn-tree ancestor of B.
            anc_task = b.parent
            while anc_task is not None and not found:
                root_anc = self._sets.find(anc_task)
                if root_anc is not root_b and root_anc not in visited:
                    visited.add(root_anc)
                    self.num_visits += 1
                    if expanded is None:
                        expanded = [root_anc]
                    else:
                        expanded.append(root_anc)
                    preds = self._sets.get_metadata(root_anc).nt
                    for pred in preds:
                        if self._visit(root_a, data_a, pred, visited):
                            found = True
                            break
                anc_task = anc_task.parent
        if not self.memoize_visit and expanded is not None and not found:
            for root in expanded:
                visited.discard(root)
        return found

    def explain_precede(self, a_key: Hashable, b_key: Hashable) -> dict:
        """Replay ``PRECEDE(a, b)`` in read-only mode and return a
        JSON-able certificate of the verdict (the race-witness payload).

        Unlike :meth:`precede` this touches **nothing**: no counters, no
        memo lookups or stores — so building witnesses perturbs neither
        the structural columns (``num_precede_queries``/``num_visits``)
        nor memoized verdicts.  The recorded walk is the default strategy
        (interval level-0 checks, memoized VISIT, LSA-chain ancestors);
        the verdict is the same reachability answer every ablation
        computes, asserted against :meth:`precede` by the witness
        soundness tests.

        Certificate layout (all task references are node keys)::

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
        a = self._nodes[a_key]
        b = self._nodes[b_key]
        sets = self._sets
        root_a, data_a = sets.root_and_metadata(a)
        root_b, data_b = sets.root_and_metadata(b)
        la = data_a.label

        def label_data(label: IntervalLabel) -> dict:
            return {"pre": label.pre, "post": label.post,
                    "final": label.final}

        def set_info(root: TaskNode, data: SetData) -> dict:
            members = [n.key for n in sets.members(root)]
            truncated = len(members) > 64
            return {
                "rep": root.key,
                "label": label_data(data.label),
                "max_pre": data.max_pre,
                "nt": [n.key for n in data.nt],
                "lsa": data.lsa.key if data.lsa is not None else None,
                "members": members[:64],
                "members_truncated": truncated,
            }

        level0 = {
            "same_task": a_key == b_key,
            "same_set": root_a is root_b,
            "interval_ancestor": data_a.label.contains(data_b.label),
            "preorder_pruned": la.pre > data_b.max_pre,
            "empty_frontier": not data_b.nt and data_b.lsa is None,
        }
        cert = {
            "query": {"a": a_key, "b": b_key},
            "a_label": label_data(a.label),
            "b_label": label_data(b.label),
            "a_set": set_info(root_a, data_a),
            "b_set": set_info(root_b, data_b),
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

        # Backward search mirroring _visit/_explore with a memoized
        # visited set, recording every expansion and the LSA chain hops.
        expanded: list = []
        lsa_chain: list = []
        visited = {root_b}

        def visit(node: TaskNode, via: str) -> bool:
            root, data = sets.root_and_metadata(node)
            if root is root_a:
                return True
            if data_a.label.contains(data.label):
                return True
            if la.pre > data.max_pre:
                return False
            if root in visited:
                return False
            visited.add(root)
            expanded.append({
                "rep": root.key,
                "label": label_data(data.label),
                "via": via,
                "nt_scanned": [n.key for n in data.nt],
            })
            return explore(data)

        def explore(data: SetData) -> bool:
            for pred in data.nt:
                if visit(pred, "nt"):
                    return True
            anc = data.lsa
            while anc is not None:
                root_anc, data_anc = sets.root_and_metadata(anc)
                if root_anc not in visited:
                    visited.add(root_anc)
                    lsa_chain.append(root_anc.key)
                    expanded.append({
                        "rep": root_anc.key,
                        "label": label_data(data_anc.label),
                        "via": "lsa",
                        "nt_scanned": [n.key for n in data_anc.nt],
                    })
                    for pred in data_anc.nt:
                        if visit(pred, "nt"):
                            return True
                anc = data_anc.lsa
            return False

        expanded.append({
            "rep": root_b.key,
            "label": label_data(data_b.label),
            "via": "start",
            "nt_scanned": [n.key for n in data_b.nt],
        })
        found = explore(data_b)
        cert["verdict"] = found
        cert["search"] = {
            "expanded": expanded,
            "lsa_chain": lsa_chain,
            "frontier_exhausted": not found,
        }
        return cert

    def _contains(
        self,
        root_a: TaskNode,
        data_a: SetData,
        root_b: TaskNode,
        data_b: SetData,
    ) -> bool:
        """Set-level ancestor test: does A's set interval subsume B's?"""
        if self.use_intervals:
            return data_a.label.contains(data_b.label)
        # Ablation: O(depth) parent chase from B's set-root task.  The set
        # label belongs to the root-most member, which is the node whose
        # label object is the set's label; find it by walking up from root_b
        # until the label matches.
        target_label = data_a.label
        node: Optional[TaskNode] = root_b
        while node is not None:
            if node.label is target_label:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------ #
    # Introspection (Table 1-style dumps, tests)                         #
    # ------------------------------------------------------------------ #
    def node(self, key: Hashable) -> TaskNode:
        """The :class:`TaskNode` registered for ``key``."""
        return self._nodes[key]

    def set_data(self, key: Hashable) -> SetData:
        """The :class:`SetData` of the set currently containing ``key``."""
        return self._sets.get_metadata(self._nodes[key])

    def same_set(self, a_key: Hashable, b_key: Hashable) -> bool:
        """True iff the two tasks are currently in the same disjoint set."""
        return self._sets.same_set(self._nodes[a_key], self._nodes[b_key])

    def non_tree_predecessors(self, key: Hashable) -> List[Hashable]:
        """Keys of the immediate non-tree predecessors of ``key``'s set
        (the paper's ``P``), in insertion order."""
        return [n.key for n in self.set_data(key).nt]

    def lsa_of(self, key: Hashable) -> Optional[Hashable]:
        """Key of the lowest significant ancestor of ``key``'s set (``A``)."""
        lsa = self.set_data(key).lsa
        return None if lsa is None else lsa.key

    def label_of(self, key: Hashable) -> IntervalLabel:
        """The task's *own* interval label (``L``)."""
        return self._nodes[key].label

    def partition(self) -> List[List[Hashable]]:
        """The full disjoint-set partition ``D`` as lists of task keys.

        Single pass over the nodes with one ``find`` each — O(n·α(n)).
        Output order is deterministic: groups appear in order of their
        first-created member, members within a group in creation order
        (used by Table 1 dumps and tests)."""
        groups: Dict[TaskNode, List[Hashable]] = {}
        for node in self._nodes.values():  # dict preserves creation order
            groups.setdefault(self._sets.find(node), []).append(node.key)
        return list(groups.values())

    def is_ancestor(self, a_key: Hashable, b_key: Hashable) -> bool:
        """Spawn-tree ancestor-or-self test via task-level interval labels."""
        return self._nodes[a_key].label.contains(self._nodes[b_key].label)
