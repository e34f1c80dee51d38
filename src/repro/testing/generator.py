"""Random async/finish/future program generation and execution.

The paper's Theorem 2 claims the detector reports a race iff one exists.
We validate that claim mechanically: generate arbitrary programs over the
model's constructs, execute them once (serial depth-first), and compare the
detector's per-location verdicts against the brute-force transitive-closure
oracle.  This module provides

* a tiny program AST (:class:`Stmt` subclasses) covering reads, writes,
  ``async``, ``finish``, futures and ``get``;
* :func:`run_program` — execute an AST on a
  :class:`~repro.runtime.runtime.Runtime` with any observers attached;
* :func:`random_program` — seedable generator used by benchmarks and
  stress tests;
* :func:`program_strategy` — a hypothesis strategy with good shrinking for
  the property tests.

``get`` targets are resolved *during* the depth-first walk: a ``Get`` node
carries a selector in ``[0, 1)`` that indexes the list of futures already
created at that point of the execution, so any generated program is valid
by construction (every ``get`` references an existing task — exactly the
programs expressible in the paper's model, including sibling/cousin joins
that produce non-tree edges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.memory.shared import SharedArray
from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.runtime.executor import ThreadRuntime
from repro.runtime.runtime import Runtime

# hypothesis is a dev dependency: program_strategy, the one function
# that needs it, imports it when called, so importing the library (and
# the benchmark workers that call random_program) does not pay for it.
# Provenance sites name this module's lines: the race witnesses in
# tests/corpus/witness_golden.json pin them, so the interpreters below
# keep their line numbers unless those hashes are regenerated.

__all__ = [
    "Stmt",
    "Read",
    "Write",
    "Get",
    "Async",
    "Future",
    "Finish",
    "Program",
    "run_program",
    "run_program_values",
    "run_program_threads",
    "run_program_asyncio",
    "random_program",
    "program_strategy",
    "count_stmts",
]


class Stmt:
    """Base class of program statements (value objects)."""

    __slots__ = ()


@dataclass(frozen=True)
class Read(Stmt):
    loc: int


@dataclass(frozen=True)
class Write(Stmt):
    loc: int


@dataclass(frozen=True)
class Get(Stmt):
    """``get()`` on the ``int(selector * len(created))``-th future created
    so far in depth-first order; a no-op if none exist yet."""

    selector: float


@dataclass(frozen=True)
class Async(Stmt):
    body: tuple


@dataclass(frozen=True)
class Future(Stmt):
    body: tuple


@dataclass(frozen=True)
class Finish(Stmt):
    body: tuple


@dataclass
class Program:
    """A generated program: the main task's body plus its location count."""

    body: tuple
    num_locs: int

    def __str__(self) -> str:
        lines: List[str] = []
        _pretty(self.body, lines, 0)
        return "\n".join(lines) or "(empty)"


def _pretty(body: Sequence[Stmt], lines: List[str], indent: int) -> None:
    pad = "  " * indent
    for stmt in body:
        if isinstance(stmt, Read):
            lines.append(f"{pad}read x{stmt.loc}")
        elif isinstance(stmt, Write):
            lines.append(f"{pad}write x{stmt.loc}")
        elif isinstance(stmt, Get):
            lines.append(f"{pad}get [{stmt.selector:.2f}]")
        elif isinstance(stmt, (Async, Future, Finish)):
            kw = type(stmt).__name__.lower()
            lines.append(f"{pad}{kw} {{")
            _pretty(stmt.body, lines, indent + 1)
            lines.append(f"{pad}}}")


def count_stmts(body: Sequence[Stmt]) -> int:
    """Total statement count, nested bodies included."""
    total = 0
    for stmt in body:
        total += 1
        if isinstance(stmt, (Async, Future, Finish)):
            total += count_stmts(stmt.body)
    return total


# ---------------------------------------------------------------------- #
# Execution                                                              #
# ---------------------------------------------------------------------- #
def run_program(
    program: Program,
    observers: Sequence = (),
    *,
    scoped_handles: bool = True,
    obs=None,
    provenance=None,
) -> Runtime:
    """Execute ``program`` depth-first on a fresh runtime.

    Returns the runtime (observers hold whatever they recorded).  Shared
    locations are cells of one :class:`SharedArray` named ``"x"``, so the
    oracle/detector location keys are ``("x", loc)``.

    ``scoped_handles`` selects how ``Get`` targets resolve:

    * ``True`` (default) — the *language's* reference-flow discipline: a
      task can join only futures whose handles it legitimately holds —
      those visible to its parent at its spawn plus those it created
      itself.  This is the HJ/X10 capability rule the paper's precision
      proof depends on (Lemma 1: whoever joins ``F`` is already ordered
      after the step holding ``F``'s reference).  Theorem 2 property tests
      use this mode.
    * ``False`` — a "wild" out-of-band registry: any already-created
      future may be joined, including ones whose handle could never have
      reached the joining task without a racy (or impossible) reference
      flow.  Such executions are outside the model's guarantee; they are
      used for robustness (no-crash, no-exception) stress tests only.
    """
    rt = Runtime(observers=list(observers), obs=obs, provenance=provenance)
    mem = SharedArray(rt, "x", program.num_locs)
    registry: List = []  # wild mode: all handles in creation order

    def exec_body(body: Sequence[Stmt], visible: List) -> None:
        for stmt in body:
            if isinstance(stmt, Read):
                mem.read(stmt.loc)
            elif isinstance(stmt, Write):
                mem.write(stmt.loc, None)
            elif isinstance(stmt, Get):
                pool = visible if scoped_handles else registry
                if pool:
                    idx = min(int(stmt.selector * len(pool)), len(pool) - 1)
                    pool[idx].get()
            elif isinstance(stmt, Async):
                # Child inherits a snapshot of the parent's visible handles
                # (references passed as spawn arguments).
                rt.async_(exec_body, stmt.body, list(visible))
            elif isinstance(stmt, Future):
                cell: List = [None]

                def body_with_self(
                    b=stmt.body, v=list(visible), c=cell
                ) -> None:
                    # The future's own handle is not yet bound inside its
                    # body (the assignment happens in the parent after the
                    # spawn), so the child sees the parent's snapshot only.
                    exec_body(b, v)

                handle = rt.future(body_with_self)
                cell[0] = handle
                visible.append(handle)
                registry.append(handle)
            elif isinstance(stmt, Finish):
                with rt.finish():
                    exec_body(stmt.body, visible)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown statement {stmt!r}")

    rt.run(lambda _rt: exec_body(program.body, []))
    return rt


# ---------------------------------------------------------------------- #
# Runtime-parametric execution (runtime-parity sweeps, PR 8)             #
# ---------------------------------------------------------------------- #
# The interpreters below execute the same AST on any RuntimeBase
# implementation and write *statement-path tokens* instead of ``None``:
# every statement of a generated program executes exactly once (the AST
# is a tree and each construct spawns once), so the token identifies the
# write uniquely and the final memory state is a schedule-independent
# fingerprint for race-free programs — the executable form of the
# Determinism Property that the parity tests compare across the serial,
# threaded and asyncio substrates.  Handle-flow caveat: only the scoped
# mode is schedule-independent (the wild registry's creation order is a
# race by construction), so parity legs always run scoped.


def _make_sync_interpreter(rt, mem):
    def exec_body(body: Sequence[Stmt], visible: List, path: tuple = ()) -> None:
        for i, stmt in enumerate(body):
            if isinstance(stmt, Read):
                mem.read(stmt.loc)
            elif isinstance(stmt, Write):
                mem.write(stmt.loc, path + (i,))
            elif isinstance(stmt, Get):
                if visible:
                    idx = min(int(stmt.selector * len(visible)),
                              len(visible) - 1)
                    visible[idx].get()
            elif isinstance(stmt, Async):
                rt.async_(exec_body, stmt.body, list(visible), path + (i,))
            elif isinstance(stmt, Future):
                visible.append(rt.future(
                    exec_body, stmt.body, list(visible), path + (i,)
                ))
            elif isinstance(stmt, Finish):
                with rt.finish():
                    exec_body(stmt.body, visible, path + (i,))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown statement {stmt!r}")

    return exec_body


def _make_async_interpreter(rt, mem):
    async def exec_body(
        body: Sequence[Stmt], visible: List, path: tuple = ()
    ) -> None:
        for i, stmt in enumerate(body):
            if isinstance(stmt, Read):
                mem.read(stmt.loc)
            elif isinstance(stmt, Write):
                mem.write(stmt.loc, path + (i,))
            elif isinstance(stmt, Get):
                if visible:
                    idx = min(int(stmt.selector * len(visible)),
                              len(visible) - 1)
                    await visible[idx].get()
            elif isinstance(stmt, Async):
                rt.async_(exec_body, stmt.body, list(visible), path + (i,))
            elif isinstance(stmt, Future):
                visible.append(rt.future(
                    exec_body, stmt.body, list(visible), path + (i,)
                ))
            elif isinstance(stmt, Finish):
                async with rt.finish():
                    await exec_body(stmt.body, visible, path + (i,))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown statement {stmt!r}")

    return exec_body


def run_program_values(program: Program, observers: Sequence = ()):
    """Serial depth-first execution with path-token writes.

    The reference leg of the runtime-parity sweep: same substrate as
    :func:`run_program` but writes statement-path tokens so the final
    memory is comparable.  Returns ``(runtime, final_memory)``.
    """
    rt = Runtime(observers=list(observers))
    mem = SharedArray(rt, "x", program.num_locs)
    exec_body = _make_sync_interpreter(rt, mem)
    rt.run(lambda _rt: exec_body(program.body, [], ()))
    return rt, mem.to_list()


def run_program_threads(
    program: Program,
    observers: Sequence = (),
    *,
    workers: int = 2,
    steal_seed: int = 0,
):
    """Execute ``program`` on a :class:`ThreadRuntime` with path-token
    writes.  Returns ``(runtime, final_memory)``; observers must be
    schedule-robust (``ParallelRaceDetector``)."""
    rt = ThreadRuntime(
        observers=list(observers), workers=workers, steal_seed=steal_seed,
    )
    mem = SharedArray(rt, "x", program.num_locs)
    exec_body = _make_sync_interpreter(rt, mem)
    rt.run(lambda _rt: exec_body(program.body, [], ()))
    return rt, mem.to_list()


def run_program_asyncio(program: Program, observers: Sequence = ()):
    """Execute ``program`` on an :class:`AsyncioRuntime` with path-token
    writes.  Returns ``(runtime, final_memory)``."""
    rt = AsyncioRuntime(observers=list(observers))
    mem = SharedArray(rt, "x", program.num_locs)
    exec_body = _make_async_interpreter(rt, mem)

    async def main(_rt):
        await exec_body(program.body, [], ())

    rt.run(main)
    return rt, mem.to_list()


# ---------------------------------------------------------------------- #
# Seedable random generation (benchmarks, stress)                        #
# ---------------------------------------------------------------------- #
def random_program(
    rng: random.Random,
    *,
    num_locs: int = 4,
    max_depth: int = 4,
    max_block: int = 6,
    p_task: float = 0.35,
    p_get: float = 0.2,
) -> Program:
    """Generate a random program.

    ``p_task`` is the probability that a statement is a nested construct
    (split between async/future/finish); ``p_get`` the probability of a
    ``get``; the rest are reads/writes split evenly.
    """

    def gen_block(depth: int) -> tuple:
        # At max_depth no nested construct may be drawn; fold the p_task
        # mass back into the read/write share so maximally nested blocks
        # stay access-heavy as documented (previously it fell through the
        # elif chain into Get, making them join-heavy instead).
        p_nest = p_task if depth < max_depth else 0.0
        stmts: List[Stmt] = []
        for _ in range(rng.randint(1, max_block)):
            r = rng.random()
            if r < p_nest:
                body = gen_block(depth + 1)
                kind = rng.random()
                if kind < 0.4:
                    stmts.append(Async(body))
                elif kind < 0.8:
                    stmts.append(Future(body))
                else:
                    stmts.append(Finish(body))
            elif r < p_nest + p_get:
                stmts.append(Get(rng.random()))
            elif r < p_nest + p_get + (1 - p_nest - p_get) / 2:
                stmts.append(Read(rng.randrange(num_locs)))
            else:
                stmts.append(Write(rng.randrange(num_locs)))
        return tuple(stmts)

    return Program(body=gen_block(0), num_locs=num_locs)


# ---------------------------------------------------------------------- #
# Hypothesis strategy                                                    #
# ---------------------------------------------------------------------- #
def program_strategy(
    *,
    num_locs: int = 3,
    max_leaves: int = 40,
):
    """Hypothesis strategy producing :class:`Program` values.

    Uses :func:`hypothesis.strategies.recursive` so shrinking peels
    constructs from the outside in; selectors shrink toward 0 (the oldest
    future), which tends to shrink counterexamples toward parent-joins.
    """
    try:
        from hypothesis import strategies as st
    except ImportError:  # pragma: no cover
        raise ImportError(
            "hypothesis is required for program_strategy") from None

    leaf = st.one_of(
        st.builds(Read, loc=st.integers(0, num_locs - 1)),
        st.builds(Write, loc=st.integers(0, num_locs - 1)),
        st.builds(
            Get,
            selector=st.floats(
                0, 1, exclude_max=True, allow_nan=False, width=32
            ),
        ),
    )

    def wrap(children):
        block = st.lists(children, min_size=0, max_size=4).map(tuple)
        return st.one_of(
            st.builds(Async, body=block),
            st.builds(Future, body=block),
            st.builds(Finish, body=block),
        )

    stmt = st.recursive(leaf, wrap, max_leaves=max_leaves)
    body = st.lists(stmt, min_size=0, max_size=6).map(tuple)
    return st.builds(Program, body=body, num_locs=st.just(num_locs))
