"""Constructive realization of any finite difference set with empty finite parts.

Given a finite word set W, build two machines on a shared state set
(words of length <= n) x {0, 1} with n the longest length in W.  Reading a
symbol extends the word component; once it would exceed n the pair wraps
around through a surjection onto the two start states, so every state sits on
a cycle and both finite parts are empty.  Copy 1 accepts exactly at the
members of W, so the two languages differ on exactly W.

States are numbered by rank, level by level in alphabet order: r("") = 0 and
r(w a_i) = k r(w) + 1 + i for the i-th of the k alphabet symbols, and
(w, copy) is state 2 r(w) + copy.
"""

from __future__ import annotations

from .core import Dfa, check_alphabet, check_word


def construct_pair(words, alphabet: str) -> tuple[Dfa, Dfa]:
    """Two DFAs with empty finite parts whose languages differ on exactly ``words``."""
    check_alphabet(alphabet)
    k = len(alphabet)
    if k < 2:
        raise ValueError("the construction needs at least two symbols")
    cleaned = sorted(set(words), key=lambda w: (len(w), w))
    for w in cleaned:
        check_word(w, alphabet)
    depth = max((len(w) for w in cleaned), default=0)

    delta = []
    for r in range((k ** depth - 1) // (k - 1)):  # the words shorter than depth
        child = 2 * (k * r + 1)  # copy 0 of r's first child, the others follow
        row = tuple(range(child, child + 2 * k, 2))
        delta += [row, tuple(t + 1 for t in row)]
    # A word of length depth+1 wraps to copy 0 exactly when its first symbol is
    # alphabet[0].  At depth 0 that is the symbol read; deeper, it is the first
    # symbol of the row's word, and the words starting with alphabet[0] are the
    # first k^(depth-1) of their level.
    if depth == 0:
        delta += [(0,) + (1,) * (k - 1)] * 2
    else:
        rows = 2 * k ** (depth - 1)  # of the last-level words per first symbol
        delta += [(0,) * k] * rows + [(1,) * k] * ((k - 1) * rows)

    index = {sym: i for i, sym in enumerate(alphabet)}
    accepting = set()
    for w in cleaned:
        r = 0
        for sym in w:
            r = k * r + 1 + index[sym]
        accepting.add(2 * r + 1)
    # valid by construction, so not checked again: every row holds k ids below
    # the row count, each start reaches the states of its copy by their words,
    # and the wrapping rows of either copy enter both starts
    accepting = frozenset(accepting)
    delta = tuple(delta)
    return (Dfa._unchecked(alphabet, 0, accepting, delta),
            Dfa._unchecked(alphabet, 1, accepting, delta))
