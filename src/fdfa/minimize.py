"""Classical DFA minimization (Moore partition refinement)."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, _lex_symbol_order


@dataclass(frozen=True)
class StatePartition:
    """Assignment of each state to a language-equivalence block."""

    block_of: tuple[int, ...]
    n_blocks: int


def moore_blocks(delta, accepting) -> StatePartition:
    """Refine {accepting, rejecting} by successor blocks until stable.

    Works on a raw transition table (rows of successor ids), which need not be
    a valid :class:`Dfa`: states unreachable from any start are fine.  Each
    round reads the table by columns: a state's signature is its block and its
    successors' blocks, built for all states by one ``zip``, and blocks are
    numbered in first-seen state order.  Refinement stops when a round splits
    no block, or as soon as every block is a single state, which no further
    round can split.
    """
    n = len(delta)
    columns = list(zip(*delta))
    block, count = _first_seen_ids(list(map(accepting.__contains__, range(n))))
    while count < n:
        sigs = list(zip(block, *[map(block.__getitem__, c) for c in columns]))
        block, new_count = _first_seen_ids(sigs)
        if new_count == count:
            break
        count = new_count
    return StatePartition(tuple(block), count)


def _first_seen_ids(keys: list) -> tuple[list[int], int]:
    # each key's rank among the distinct keys in order of first appearance,
    # and the number of distinct keys
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return list(map(ids.__getitem__, keys)), len(ids)


def minimize_with_map(d: Dfa) -> tuple[Dfa, tuple[int, ...]]:
    """Minimize and also return the quotient map old-state -> new-state.

    The result is canonical: quotient states are renumbered by breadth-first
    discovery from the start block, exploring symbols in character order, so
    equal machines always serialize identically.
    """
    part = moore_blocks(d.delta, d.accepting)
    block_of = part.block_of
    nb = part.n_blocks
    rep = [0] * nb
    for q in range(d.n_states - 1, -1, -1):  # keep the smallest state as representative
        rep[block_of[q]] = q
    order = _lex_symbol_order(d)
    new_id = [-1] * nb
    new_id[block_of[d.start]] = 0
    queue = [block_of[d.start]]  # blocks by new id
    for b in queue:
        row = d.delta[rep[b]]
        for ci, _ in order:
            tb = block_of[row[ci]]
            if new_id[tb] < 0:
                new_id[tb] = len(queue)
                queue.append(tb)
    state_new = list(map(new_id.__getitem__, block_of))
    rep_rows = [d.delta[rep[b]] for b in queue]
    delta = tuple(zip(*[map(state_new.__getitem__, column) for column in zip(*rep_rows)]))
    accepting = frozenset(map(state_new.__getitem__, d.accepting))
    quotient = Dfa._unchecked(d.alphabet, 0, accepting, delta)
    return quotient, tuple(state_new)


def minimize(d: Dfa) -> Dfa:
    """The canonical minimal automaton for L(d)."""
    return minimize_with_map(d)[0]


def is_minimized(d: Dfa) -> bool:
    return moore_blocks(d.delta, d.accepting).n_blocks == d.n_states
