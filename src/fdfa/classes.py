"""Finite-difference structure: state-classes and their matching across machines.

Two states are finitely different (written p ~ q) when the languages accepted
from them differ on only finitely many words.  ~ is an equivalence; its classes
over a machine's states are the state-classes, and the set of classes touched
by a machine is its signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Dfa, disjoint_union
from .minimize import StatePartition, moore_blocks


@dataclass(frozen=True)
class StateClassPartition:
    """States grouped by ~; each class is identified by its smallest member."""

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @cached_property
    def _by_id(self) -> dict[int, tuple[int, ...]]:
        return {cls[0]: cls for cls in self.classes}

    def members(self, class_id: int) -> tuple[int, ...]:
        return self._by_id[class_id]


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
    return _classes_of_blocks(delta, moore_blocks(delta, accepting))


def _classes_of_blocks(delta, part: StatePartition) -> tuple[int, ...]:
    # the block-merging pass of finite_difference_classes on a given partition
    # into blocks of equal languages, so a caller that already holds one, or
    # knows its table is minimized, skips refinement
    block_of, b = part.block_of, part.n_blocks
    succ: list[list[int] | None] = [None] * b
    for q, x in enumerate(block_of):
        if succ[x] is None:
            succ[x] = [block_of[t] for t in delta[q]]
    preds: list[list[int]] = [[] for _ in range(b)]
    for x, row in enumerate(succ):
        for y in set(row):
            preds[y].append(x)
    alive = [True] * b
    # rows hold only live blocks, so a key of live blocks maps to the live block
    # whose row it is; a key that holds a merged block is stale and unused
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


def state_class_partition(d: Dfa) -> StateClassPartition:
    """Group the states of ``d`` into ~ classes."""
    return _partition_of(finite_difference_classes(d.delta, d.accepting))


def _partition_of(class_of: tuple[int, ...]) -> StateClassPartition:
    grouped: dict[int, list[int]] = {}
    for q, cid in enumerate(class_of):
        grouped.setdefault(cid, []).append(q)
    classes = tuple(tuple(grouped[cid]) for cid in sorted(grouped))
    return StateClassPartition(class_of, classes)


def class_matching(a: Dfa, b: Dfa) -> dict[int, int] | None:
    """Bijection a-class-id -> b-class-id induced by ~ across machines, or None."""
    class_of = finite_difference_classes(*disjoint_union(a, b))
    n = a.n_states
    # in the union, a class holding a state of a is named by its smallest a-state
    a_ids = set(class_of[:n])
    b_id: dict[int, int] = {}
    for q in b.states:
        b_id.setdefault(class_of[n + q], q)
    if a_ids != b_id.keys():
        return None
    return {cid: b_id[cid] for cid in sorted(a_ids)}
