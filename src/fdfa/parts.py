"""The finite/infinite split of a DFA's state set.

A state is in the infinite part when infinitely many words lead to it from the
start; equivalently, when it lies on a cycle or is reachable from a state on a
cycle.  Everything else is the finite part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, Word, _check_states, _peel, states_reaching
from .language import _list_text


@dataclass(frozen=True)
class PartsPartition:
    finite: frozenset[int]
    infinite: frozenset[int]


def compute_parts(d: Dfa) -> PartsPartition:
    """Split states by cycle reachability: the finite part is what peeling the
    whole table removes, and the states left over, the forward closure of the
    on-cycle states, are the infinite part."""
    finite = frozenset(_peel(d.delta, d.states))
    return PartsPartition(finite, frozenset(d.states).difference(finite))


def words_reaching(d: Dfa, q: int) -> list[Word]:
    """Every word whose run from the start ends at ``q``, shortlex-sorted.

    Only defined for finite-part states; an infinite-part state is reached by
    infinitely many words.
    """
    _check_states(d, q)
    # q is in the infinite part exactly when a cycle reaches it, and such a
    # cycle lies among the states that reach q, so peeling them alone decides
    reaching = states_reaching(d.delta, {q})
    if len(_peel(d.delta, reaching)) != len(reaching):
        raise ValueError(f"state {q} is in the infinite part; infinitely many words reach it")
    return _list_text(d, reaching, {q}).split("\n")[:-1]
