"""Finite-difference structure: state-classes and their matching across machines.

Two states are finitely different (written p ~ q) when the languages accepted
from them differ on only finitely many words.  ~ is an equivalence; its classes
over a machine's states are the state-classes, and the set of classes touched
by a machine is its signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Dfa, _peel
from .minimize import StatePartition, moore_blocks


@dataclass(frozen=True)
class StateClassPartition:
    """States grouped by ~; each class is identified by its smallest member."""

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


class _TableAnalysis:
    """The Moore blocks, finite part, ~ classes and class members of one raw
    table, each computed on first read: one machine's table, or the disjoint
    union of two, whose classes are ~ across both.  One is built per call."""

    def __init__(self, delta, accepting):
        self.delta, self.accepting = delta, accepting

    @cached_property
    def blocks(self) -> StatePartition:
        return moore_blocks(self.delta, self.accepting)

    @cached_property
    def finite(self) -> frozenset[int]:
        # peeling needs no start state, so on a union it splits both machines
        return frozenset(_peel(self.delta, range(len(self.delta))))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        # the pass of finite_difference_classes on ``blocks``, which a caller
        # that knows its table is minimized may set instead of refining
        block_of, b = self.blocks.block_of, self.blocks.n_blocks
        succ: list[list[int] | None] = [None] * b
        for q, x in enumerate(block_of):
            if succ[x] is None:
                succ[x] = [block_of[t] for t in self.delta[q]]
        preds: list[list[int]] = [[] for _ in range(b)]
        for x, row in enumerate(succ):
            for y in set(row):
                preds[y].append(x)
        alive = [True] * b
        # rows hold only live blocks, so a key of live blocks maps to the live
        # block whose row it is; a key that holds a merged block is stale and unused
        holder: dict[tuple[int, ...], int] = {}
        merges: list[tuple[int, int]] = []
        work = list(range(b))
        while work:
            x = work.pop()
            if not alive[x]:
                continue
            key = tuple(succ[x])
            y = holder.setdefault(key, x)
            if y == x:
                continue
            if len(preds[x]) > len(preds[y]):
                x, y = y, x
            alive[x] = False
            holder[key] = y
            merges.append((x, y))
            for r in preds[x]:
                if alive[r]:
                    succ[r] = [y if t == x else t for t in succ[r]]
                    work.append(r)
            preds[y] += preds[x]
        leader = list(range(b))
        for x, y in reversed(merges):
            leader[x] = leader[y]
        smallest: dict[int, int] = {}
        for q, x in enumerate(block_of):
            smallest.setdefault(leader[x], q)
        return tuple(smallest[leader[x]] for x in block_of)

    @cached_property
    def members(self) -> dict[int, list[int]]:
        # each class's states in id order, keyed by its smallest member; a key
        # is first seen at that member, so the keys come out in id order
        members: dict[int, list[int]] = {}
        for q, c in enumerate(self.class_of):
            members.setdefault(c, []).append(q)
        return members

    def mergeable_pair(self, states: range) -> tuple[int, int] | None:
        # the pair is_f_minimal reports for the machine on ``states``, renumbered
        # from ``states.start``; equal languages and ~ do not depend on the rest
        # of the table, so a union answers for either of its machines
        first_in_block: dict[int, int] = {}
        for s, x in enumerate(self.blocks.block_of[states.start:states.stop]):
            if first_in_block.setdefault(x, s) != s:
                return first_in_block[x], s
        for p in self.part(states, finite=True):
            q = states.start + p
            mate = next((s for s in self.members[self.class_of[q]] if s != q and s in states), None)
            if mate is not None:
                return p, mate - states.start
        return None

    def part(self, states: range, finite: bool) -> list[int]:
        # the states of ``states`` in the finite (or infinite) part, renumbered
        # from ``states.start``
        return [q - states.start for q in states if (q in self.finite) == finite]


def finite_difference_classes(delta, accepting) -> tuple[int, ...]:
    """The ~ class of every state of a raw transition table, as its smallest member.

    Works on the b Moore blocks, where no two blocks have equal languages.
    There two blocks are ~ exactly when repeatedly merging blocks with equal
    successor vectors, acceptance ignored, puts them in one group (Holzer &
    Maletti, "An n log n algorithm for hyper-minimizing a (minimized)
    deterministic automaton", TCS 2010, Alg. 2).  A merge redirects the edges
    into the merged block to the survivor and requeues their sources.  Merging
    the block with fewer predecessors into the other moves each predecessor
    entry O(log b) times, so the pass costs O(k²·b log b) for k symbols after
    Moore refinement, and it builds no table of block pairs.
    """
    return _TableAnalysis(delta, accepting).class_of


def state_class_partition(d: Dfa) -> StateClassPartition:
    """Group the states of ``d`` into ~ classes."""
    table = _TableAnalysis(d.delta, d.accepting)
    return StateClassPartition(table.class_of, tuple(map(tuple, table.members.values())))
