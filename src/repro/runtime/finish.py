"""Finish scopes.

``finish { S }`` causes the executing task to run ``S`` and then wait for
every task transitively spawned inside ``S`` to complete.  In the computation
graph this inserts a *join edge from the last step of every such task* to the
step immediately following the finish (Section 3, "Join Edges").

In the serial depth-first execution that the detector observes, every spawned
task has already completed by the time the finish ends, so a scope is pure
bookkeeping: it records which tasks have it as their Immediately Enclosing
Finish (``joins`` — the paper's ``F.joins`` used by Algorithm 6) so the
detector can merge their disjoint sets into the parent's set at end-finish.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task import Task

__all__ = ["FinishScope"]


class FinishScope:
    """One dynamic instance of a ``finish`` statement.

    Attributes
    ----------
    fid:
        Dense id in scope-entry order; the implicit root finish is 0.
    owner:
        The task whose code entered the scope (the paper's ``F.parent``).
    enclosing:
        The dynamically enclosing finish scope (``None`` for the root).
    joins:
        Tasks whose IEF is this scope, in spawn order (every runtime
        registers a task when it is spawned).  Algorithm 6 iterates this
        list merging each ``S_B`` into ``S_A`` where ``A`` is the owner;
        ``ThreadRuntime``'s finish exit runs the unstarted ones inline in
        this order, as the serial elision would have run them.
    """

    __slots__ = ("fid", "owner", "enclosing", "joins", "closed")

    def __init__(
        self,
        fid: int,
        owner: "Task",
        enclosing: Optional["FinishScope"],
    ) -> None:
        self.fid = fid
        self.owner = owner
        self.enclosing = enclosing
        self.joins: List["Task"] = []
        self.closed = False

    def register(self, task: "Task") -> None:
        """Record ``task`` as having this scope for its IEF."""
        if self.closed:
            raise ValueError(f"finish scope {self.fid} is already closed")
        self.joins.append(task)

    @property
    def depth(self) -> int:
        """Nesting depth of this scope (root is 0)."""
        d, scope = 0, self.enclosing
        while scope is not None:
            d += 1
            scope = scope.enclosing
        return d

    def __repr__(self) -> str:
        return (
            f"<FinishScope {self.fid} owner={self.owner.name} "
            f"joins={len(self.joins)}{' closed' if self.closed else ''}>"
        )
