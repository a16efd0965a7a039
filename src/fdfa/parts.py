"""The finite/infinite split of a DFA's state set.

A state is in the infinite part when infinitely many words lead to it from the
start; equivalently, when it lies on a cycle or is reachable from a state on a
cycle.  Everything else is the finite part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, Word, _forward_closure, states_on_cycles, states_reaching
from .language import _list_text


@dataclass(frozen=True)
class PartsPartition:
    finite: frozenset[int]
    infinite: frozenset[int]


def compute_parts(d: Dfa) -> PartsPartition:
    """Split states by cycle reachability: infinite = forward closure of on-cycle states."""
    infinite = _forward_closure(d.delta, states_on_cycles(d.delta))
    finite = frozenset(set(d.states) - infinite)
    return PartsPartition(finite, frozenset(infinite))


def words_reaching(d: Dfa, q: int) -> list[Word]:
    """Every word whose run from the start ends at ``q``, shortlex-sorted.

    Only defined for finite-part states; an infinite-part state is reached by
    infinitely many words.
    """
    if q not in d.states:
        raise ValueError(f"state {q} out of range")
    parts = compute_parts(d)
    if q in parts.infinite:
        raise ValueError(f"state {q} is in the infinite part; infinitely many words reach it")
    # every state that can reach q is in the finite part, which is acyclic
    return _list_text(d, states_reaching(d.delta, {q}), {q}).split("\n")[:-1]
