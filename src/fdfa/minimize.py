"""Classical DFA minimization (Moore partition refinement) and distinguishing words."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Dfa, Word


@dataclass(frozen=True)
class StatePartition:
    """Assignment of each state to a language-equivalence block."""

    block_of: tuple[int, ...]
    n_blocks: int


def moore_partition(d: Dfa) -> StatePartition:
    """Language-equivalence blocks of the states of ``d``."""
    return moore_blocks(d.delta, d.accepting)


def moore_blocks(delta, accepting) -> StatePartition:
    """Refine {accepting, rejecting} by successor blocks until stable.

    Works on a raw transition table (rows of successor ids), which need not be
    a valid :class:`Dfa`: states unreachable from any start are fine.
    """
    n = len(delta)
    labels: dict[bool, int] = {}
    block = [0] * n
    for q in range(n):
        key = q in accepting
        block[q] = labels.setdefault(key, len(labels))
    count = len(labels)
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        new = [0] * n
        for q in range(n):
            sig = (block[q], *(block[t] for t in delta[q]))
            new[q] = sigs.setdefault(sig, len(sigs))
        block = new
        if len(sigs) == count:
            return StatePartition(tuple(block), count)
        count = len(sigs)


def minimize_with_map(d: Dfa) -> tuple[Dfa, tuple[int, ...]]:
    """Minimize and also return the quotient map old-state -> new-state.

    The result is canonical: quotient states are renumbered by breadth-first
    discovery from the start block, exploring symbols in character order, so
    equal machines always serialize identically.
    """
    part = moore_partition(d)
    block_of = part.block_of
    nb = part.n_blocks
    rep = [0] * nb
    for q in range(d.n_states - 1, -1, -1):  # keep the smallest state as representative
        rep[block_of[q]] = q
    order = sorted(range(len(d.alphabet)), key=lambda ci: d.alphabet[ci])
    new_id = {block_of[d.start]: 0}
    queue = deque([block_of[d.start]])
    while queue:
        b = queue.popleft()
        row = d.delta[rep[b]]
        for ci in order:
            tb = block_of[row[ci]]
            if tb not in new_id:
                new_id[tb] = len(new_id)
                queue.append(tb)
    delta = [None] * nb
    accepting = set()
    names = [None] * nb if d.names is not None else None
    for b in range(nb):
        i = new_id[b]
        r = rep[b]
        delta[i] = tuple(new_id[block_of[t]] for t in d.delta[r])
        if r in d.accepting:
            accepting.add(i)
        if names is not None:
            names[i] = d.names[r]
    quotient = Dfa(d.alphabet, 0, frozenset(accepting), tuple(delta),
                   tuple(names) if names is not None else None)
    return quotient, tuple(new_id[block_of[q]] for q in range(d.n_states))


def minimize(d: Dfa) -> Dfa:
    """The canonical minimal automaton for L(d)."""
    return minimize_with_map(d)[0]


def is_minimized(d: Dfa) -> bool:
    return moore_partition(d).n_blocks == d.n_states


def _pair_distances(d: Dfa) -> list[int]:
    # dist[p*n+q] = length of the shortest word accepted from exactly one of p, q (-1: none)
    n = d.n_states
    k = len(d.alphabet)
    acc = [q in d.accepting for q in range(n)]
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
    for q in range(n):
        row = d.delta[q]
        for ci in range(k):
            preds[ci][row[ci]].append(q)
    dist = [-1] * (n * n)
    queue = deque()
    for p in range(n):
        for q in range(n):
            if acc[p] != acc[q]:
                dist[p * n + q] = 0
                queue.append((p, q))
    while queue:
        x, y = queue.popleft()
        step = dist[x * n + y] + 1
        for ci in range(k):
            for px in preds[ci][x]:
                for py in preds[ci][y]:
                    if dist[px * n + py] == -1:
                        dist[px * n + py] = step
                        queue.append((px, py))
    return dist


def distinguishing_word(d: Dfa, p: int, q: int) -> Word | None:
    """Shortlex-least word accepted from exactly one of ``p`` and ``q``.

    Returns None when the two states have equal languages.
    """
    n = d.n_states
    for s in (p, q):
        if not 0 <= s < n:
            raise ValueError(f"state {s} out of range")
    dist = _pair_distances(d)
    if dist[p * n + q] == -1:
        return None
    order = sorted(range(len(d.alphabet)), key=lambda ci: d.alphabet[ci])
    acc = d.accepting
    out = []
    while (p in acc) == (q in acc):
        remaining = dist[p * n + q]
        for ci in order:
            np_, nq_ = d.delta[p][ci], d.delta[q][ci]
            if dist[np_ * n + nq_] == remaining - 1:
                out.append(d.alphabet[ci])
                p, q = np_, nq_
                break
    return "".join(out)
