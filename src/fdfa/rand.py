"""Deterministic random machine generation.

Uses a fixed 64-bit linear congruential generator rather than ``random`` so
that a seed gives the same machine on every platform and Python version.
"""

from __future__ import annotations

from .core import Dfa, reachable_states

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """x' = (6364136223846793005*x + 1442695040888963407) mod 2**64; draws are the top 32 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state >> 32

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection on the top 32 bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            x = self.next_u32()
            if x < limit:
                return x % n


def random_dfa(n_states: int, alphabet: str, seed: int) -> Dfa:
    """Seeded random DFA with all states reachable.

    Draw order per attempt: transition targets row by row (state ascending,
    symbol position ascending), then the start state, then one accept/reject
    bit per state in ascending order.  Attempts whose machine has unreachable
    states are discarded wholesale and the draws continue.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = Lcg(seed)
    k = len(alphabet)
    while True:
        delta = tuple(
            tuple(rng.below(n_states) for _ in range(k)) for _ in range(n_states)
        )
        start = rng.below(n_states)
        accepting = frozenset(q for q in range(n_states) if rng.below(2) == 1)
        if len(reachable_states(delta, start)) == n_states:
            return Dfa(alphabet, start, accepting, delta)
