"""Deterministic random machine generation.

Uses a fixed 64-bit linear congruential generator rather than ``random`` so
that a seed gives the same machine on every platform and Python version.
"""

from __future__ import annotations

from itertools import compress

from .core import Dfa, check_alphabet, reachable_states

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _below(x: int, n: int, count: int) -> tuple[int, list[int]]:
    """``count`` uniform draws in [0, n) from LCG state ``x``; returns the new state and the draws.

    x' = (6364136223846793005*x + 1442695040888963407) mod 2**64, and a draw is
    the top 32 bits of x', rejected while it is at least 2**32 - (2**32 mod n)
    and then reduced mod n.
    """
    mult, inc, mask = _LCG_MULT, _LCG_INC, _MASK64
    limit = (1 << 32) - (1 << 32) % n
    draws = []
    append = draws.append
    for _ in range(count):
        x = (x * mult + inc) & mask
        while x >> 32 >= limit:
            x = (x * mult + inc) & mask
        append((x >> 32) % n)
    return x, draws


def _lcg_steps(count: int) -> tuple[int, int]:
    """(a, c) such that x -> (a*x + c) mod 2**64 is ``count`` steps of the
    generator, composed by repeated squaring."""
    a, c = 1, 0
    step_a, step_c = _LCG_MULT, _LCG_INC  # 2**i steps
    while count:
        if count & 1:
            a, c = (step_a * a) & _MASK64, (step_a * c + step_c) & _MASK64
        step_a, step_c = (step_a * step_a) & _MASK64, (step_a * step_c + step_c) & _MASK64
        count >>= 1
    return a, c


def random_dfa(n_states: int, alphabet: str, seed: int) -> Dfa:
    """Seeded random DFA with all states reachable.

    Draw order per attempt: transition targets row by row (state ascending,
    symbol position ascending), then the start state, then one accept/reject
    bit per state in ascending order.  Attempts whose machine has unreachable
    states are discarded wholesale and the draws continue.
    """
    check_alphabet(alphabet)
    if n_states < 1:
        raise ValueError("need at least one state")
    k = len(alphabet)
    # a bound-2 draw is never rejected, so the accept bits of an attempt are
    # exactly n_states steps, which a discarded attempt skips in one
    mult, inc = _lcg_steps(n_states)
    x = seed & _MASK64
    while True:
        x, targets = _below(x, n_states, n_states * k + 1)
        start = targets.pop()
        delta = tuple(zip(*[iter(targets)] * k))
        if len(reachable_states(delta, start)) == n_states:
            x, bits = _below(x, 2, n_states)
            return Dfa(alphabet, start, frozenset(compress(range(n_states), bits)), delta)
        x = (x * mult + inc) & _MASK64
