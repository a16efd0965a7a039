"""Small reference machines used across the test suite.

All are over the binary alphabet "01" and named for the language they accept.
"""

from __future__ import annotations

from fdfa.core import Dfa
from fdfa.minimize import minimize


def all_words() -> Dfa:
    """Sigma* — one accepting state."""
    return Dfa("01", 0, {0}, ((0, 0),))


def empty() -> Dfa:
    """The empty language — one rejecting state."""
    return Dfa("01", 0, frozenset(), ((0, 0),))


def sigplus() -> Dfa:
    """All non-empty words."""
    return Dfa("01", 0, {1}, ((1, 1), (1, 1)))


def zstar() -> Dfa:
    """0* — accept until the first 1, then sink."""
    return Dfa("01", 0, {0}, ((0, 1), (1, 1)))


def onezstar() -> Dfa:
    """1·0* — a single 1 followed by any number of 0s."""
    return Dfa("01", 0, {1}, ((2, 1), (1, 2), (2, 2)))


def odd_length() -> Dfa:
    """Words of odd length."""
    return Dfa("01", 0, {1}, ((1, 1), (0, 0)))


def even_length() -> Dfa:
    """Words of even length."""
    return Dfa("01", 0, {0}, ((1, 1), (0, 0)))


def finite_language_dfa(words, alphabet: str = "01") -> Dfa:
    """Minimal DFA accepting exactly the given finite set of words.

    Built as a prefix tree over the words plus a rejecting sink, then minimized.
    """
    words = sorted(set(words), key=lambda w: (len(w), w))
    for w in words:
        bad = [c for c in w if c not in alphabet]
        if bad:
            raise ValueError(f"word {w!r} uses symbols outside the alphabet: {bad}")
    nodes: dict[str, int] = {"": 0}
    for w in words:
        for i in range(1, len(w) + 1):
            nodes.setdefault(w[:i], len(nodes))
    sink = len(nodes)
    delta = [[sink] * len(alphabet) for _ in range(sink + 1)]
    for prefix, q in nodes.items():
        for i, sym in enumerate(alphabet):
            child = nodes.get(prefix + sym)
            if child is not None:
                delta[q][i] = child
    accepting = frozenset(nodes[w] for w in words)
    trie = Dfa(alphabet, 0, accepting, tuple(tuple(row) for row in delta))
    return minimize(trie)
