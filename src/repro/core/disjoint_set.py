"""Disjoint-set (union-find) data structure with per-set metadata.

The paper's Section 4.1 ("Disjoint set representation of tree joins") uses the
classic *fast disjoint-set* structure [CLRS ch. 21/22] with the three
operations ``MakeSet``, ``Union`` and ``FindSet``.  Any ``m`` operations on
``n`` sets take ``O(m * alpha(m, n))`` time, where ``alpha`` is the functional
inverse of Ackermann's function.

Two tasks are kept in the same set if and only if they are connected by
tree-join and continue edges in the computation graph; the set as a whole then
behaves, for reachability purposes, like the root-most task it contains.  To
support that, every *set* (not element) carries a metadata record — the
interval label, the incoming non-tree edges and the lowest significant
ancestor — stored on the set's representative and moved explicitly by
:meth:`DisjointSets.union`, which lets the caller decide which operand's
metadata survives (the paper's Algorithm 7 keeps the metadata of the
ancestor-side set).

The structure is deliberately generic: elements are opaque hashable objects
(task ids in the ESP-bags baseline, plain integers in unit tests).  The
DTRG itself keeps a flat union-find column with the same discipline
(:class:`repro.core.array_dtrg.ArrayDTRG`).
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Hashable, Iterator, Optional, TypeVar

__all__ = ["DisjointSets"]

E = TypeVar("E", bound=Hashable)


class _Entry:
    """Internal per-element record: union-find parent pointer and rank."""

    __slots__ = ("parent", "rank")

    def __init__(self) -> None:
        self.parent: Optional[Any] = None  # None -> self is a root
        self.rank: int = 0


class DisjointSets(Generic[E]):
    """A collection of disjoint sets with per-set metadata.

    Implements union by rank and path compression (via path halving, which
    keeps ``find`` iterative and allocation-free).  The amortized cost of any
    operation is ``O(alpha(n))``, matching the bound the paper's Theorem 1
    relies on.

    Metadata handling
    -----------------
    ``union(a, b)`` merges the set containing ``b`` into the set containing
    ``a`` *logically*: whichever element becomes the union-find root
    physically (rank decides), the resulting set's metadata is the metadata
    previously attached to ``a``'s set.  This mirrors the paper's Algorithm 7
    where the merged set keeps the label/lsa of the ancestor-side set
    ``S_A`` while the ``nt`` lists are combined by the caller.
    """

    def __init__(self) -> None:
        self._entries: Dict[E, _Entry] = {}
        self._metadata: Dict[E, Any] = {}  # keyed by current root only
        self._num_sets = 0
        self._num_unions = 0
        self._num_finds = 0

    # ------------------------------------------------------------------ #
    # Core operations                                                    #
    # ------------------------------------------------------------------ #
    def make_set(self, x: E, metadata: Any = None) -> E:
        """Create a new singleton set containing ``x``.

        Raises :class:`ValueError` if ``x`` is already present — each element
        may be added exactly once (each task is created exactly once).
        """
        if x in self._entries:
            raise ValueError(f"element {x!r} is already in a set")
        self._entries[x] = _Entry()
        if metadata is not None:
            self._metadata[x] = metadata
        self._num_sets += 1
        return x

    def find(self, x: E) -> E:
        """Return the representative of the set containing ``x``.

        Uses path halving: every node on the search path is re-pointed to its
        grandparent, giving the same amortized bound as full path compression
        without recursion.
        """
        self._num_finds += 1
        try:
            entry = self._entries[x]
        except KeyError:
            raise KeyError(f"element {x!r} is not in any set") from None
        while entry.parent is not None:
            parent_entry = self._entries[entry.parent]
            if parent_entry.parent is not None:
                # Path halving: skip a level.
                entry.parent = parent_entry.parent
            x = entry.parent
            entry = self._entries[x]
        return x

    def union(self, a: E, b: E) -> E:
        """Merge the set containing ``b`` into the set containing ``a``.

        Returns the representative of the merged set.  The merged set's
        metadata is the metadata that was attached to ``a``'s set; ``b``'s
        set metadata is discarded (the caller is expected to have combined
        whatever it needs beforehand, as Algorithm 7 does with the ``nt``
        lists).

        A no-op (returning the shared representative) if ``a`` and ``b`` are
        already in the same set.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        meta = self._metadata.pop(ra, None)
        self._metadata.pop(rb, None)
        ea, eb = self._entries[ra], self._entries[rb]
        if ea.rank < eb.rank:
            ra, rb = rb, ra
            ea, eb = eb, ea
        # ra is now the higher-rank root; rb hangs under it.
        eb.parent = ra
        if ea.rank == eb.rank:
            ea.rank += 1
        if meta is not None:
            self._metadata[ra] = meta
        self._num_sets -= 1
        self._num_unions += 1
        return ra

    def same_set(self, a: E, b: E) -> bool:
        """True iff ``a`` and ``b`` currently belong to the same set."""
        return self.find(a) == self.find(b)

    def root_and_metadata(self, x: E):
        """``(representative, metadata)`` in one find — the detector's
        hot-path accessor (a ``find`` + ``get_metadata`` pair would run the
        find twice)."""
        root = self.find(x)
        return root, self._metadata.get(root)

    # ------------------------------------------------------------------ #
    # Metadata                                                           #
    # ------------------------------------------------------------------ #
    def get_metadata(self, x: E) -> Any:
        """Return the metadata of the set containing ``x`` (or ``None``)."""
        return self._metadata.get(self.find(x))

    def set_metadata(self, x: E, metadata: Any) -> None:
        """Attach ``metadata`` to the set containing ``x``."""
        self._metadata[self.find(x)] = metadata

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __contains__(self, x: E) -> bool:
        return x in self._entries

    def __len__(self) -> int:
        """Number of elements (not sets)."""
        return len(self._entries)

    @property
    def num_sets(self) -> int:
        """Number of disjoint sets currently alive."""
        return self._num_sets

    @property
    def num_unions(self) -> int:
        """Total unions performed (operation counter for complexity tests)."""
        return self._num_unions

    @property
    def num_finds(self) -> int:
        """Total finds performed (operation counter for complexity tests)."""
        return self._num_finds

    def elements(self) -> Iterator[E]:
        """Iterate over every element ever added."""
        return iter(self._entries)

    def members(self, x: E) -> list:
        """Return all elements in the set containing ``x``.

        O(n) — intended for tests and debugging output (Table 1 style DTRG
        dumps), never used on the detector's hot path.
        """
        root = self.find(x)
        return [e for e in self._entries if self.find(e) == root]

    def as_partition(self) -> list:
        """Return the full partition as a list of lists (tests/debugging)."""
        groups: Dict[E, list] = {}
        for e in self._entries:
            groups.setdefault(self.find(e), []).append(e)
        return list(groups.values())
