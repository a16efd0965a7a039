"""Brute-force ground truth for tests: word-by-word simulation, machine enumeration.

The word tables share no logic with the production decision procedures: every
word up to a bound is simulated directly, which keeps the exhaustive suites
honest (and slow on purpose).  The one exception is
:func:`oracle_is_f_minimal`, which decides each smaller candidate machine with
the production :func:`symmetric_difference`, so it builds one xor product and
runs one cycle analysis per candidate: 1.22 million ``product_xor`` calls
under the f-minimization acceptance criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from fdfa.core import AlphabetMismatchError, Dfa, Word, reachable_states
from fdfa.language import symmetric_difference


@dataclass(frozen=True)
class MembershipTable:
    """Acceptance of every word up to ``bound``, keyed by word in shortlex order."""

    bound: int
    alphabet: str
    accepted: dict[Word, bool]


def membership_table(d: Dfa, bound: int) -> MembershipTable:
    """Simulate every word of length <= bound, each extending its parent prefix."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    symbols = sorted((sym, i) for i, sym in enumerate(d.alphabet))
    delta = d.delta
    accepting = d.accepting
    accepted: dict[Word, bool] = {}
    level: dict[Word, int] = {"": d.start}
    for depth in range(bound + 1):
        for word, state in level.items():
            accepted[word] = state in accepting
        if depth == bound:
            break
        nxt: dict[Word, int] = {}
        for word, state in level.items():
            for sym, ci in symbols:
                nxt[word + sym] = delta[state][ci]
        level = nxt
    return MembershipTable(bound, d.alphabet, accepted)


def oracle_diff(a: Dfa, b: Dfa, bound: int) -> list[Word]:
    """Every word of length <= bound accepted by exactly one machine, shortlex-sorted."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"alphabets differ: {a.alphabet!r} vs {b.alphabet!r}")
    ta = membership_table(a, bound)
    tb = membership_table(b, bound)
    return [w for w, acc in ta.accepted.items() if acc != tb.accepted[w]]


def enumerate_all_dfas(n_states: int, alphabet: str):
    """Every complete DFA with exactly ``n_states`` states whose states are all reachable.

    Iterates transition tables, then start states, then accepting sets, in a
    fixed order; candidates with unreachable states are filtered out.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    k = len(alphabet)
    for flat in product(range(n_states), repeat=n_states * k):
        delta = tuple(flat[q * k:(q + 1) * k] for q in range(n_states))
        for start in range(n_states):
            if len(reachable_states(delta, start)) != n_states:
                continue
            for mask in range(1 << n_states):
                accepting = frozenset(q for q in range(n_states) if mask >> q & 1)
                yield Dfa(alphabet, start, accepting, delta)


@lru_cache(maxsize=8)
def _all_dfas(n_states: int, alphabet: str) -> tuple[Dfa, ...]:
    return tuple(enumerate_all_dfas(n_states, alphabet))


def oracle_is_f_minimal(d: Dfa, max_smaller: int | None = None) -> bool:
    """No strictly smaller machine over the same alphabet is finitely different from d.

    Checks every machine with fewer states (up to ``max_smaller``, default all),
    deciding each difference with :func:`symmetric_difference`.
    """
    limit = d.n_states - 1 if max_smaller is None else max_smaller
    if limit >= d.n_states:
        raise ValueError("max_smaller must be below the machine's own size")
    for size in range(1, limit + 1):
        for candidate in _all_dfas(size, d.alphabet):
            if symmetric_difference(d, candidate).finite:
                return False
    return True
