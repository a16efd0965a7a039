"""Constructive realization of any finite difference set with empty finite parts.

Given a finite word set W, build two machines on a shared state set
(words of length <= n) x {0, 1} with n the longest length in W.  Reading a
symbol extends the word component; once it would exceed n the pair wraps
around through a surjection onto the two start states, so every state sits on
a cycle and both finite parts are empty.  Copy 1 accepts exactly at the
members of W, so the two languages differ on exactly W.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, Word, check_alphabet, check_word


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of the pair construction for a difference set ``words``."""

    words: tuple[Word, ...]  # shortlex-sorted, deduplicated
    alphabet: str
    depth: int  # n: the longest word length, 0 for the empty set

    @classmethod
    def for_words(cls, words, alphabet: str) -> "ConstructionSpec":
        check_alphabet(alphabet)
        if len(alphabet) < 2:
            raise ValueError("the construction needs at least two symbols")
        cleaned = sorted(set(words), key=lambda w: (len(w), w))
        for w in cleaned:
            check_word(w, alphabet)
        depth = max((len(w) for w in cleaned), default=0)
        return cls(tuple(cleaned), alphabet, depth)

    def wrap_copy(self, word: Word) -> int:
        """The surjection for words of length depth+1: copy 0 iff the word starts
        with the first alphabet symbol."""
        return 0 if word[0] == self.alphabet[0] else 1

    def build(self) -> tuple[Dfa, Dfa]:
        prefixes: list[Word] = [""]
        level = [""]
        for _ in range(self.depth):
            level = [w + sym for w in level for sym in self.alphabet]
            prefixes.extend(level)
        rank = {w: i for i, w in enumerate(prefixes)}

        def state_id(word: Word, copy: int) -> int:
            return 2 * rank[word] + copy

        n_states = 2 * len(prefixes)
        delta = [None] * n_states
        for w in prefixes:
            for copy in (0, 1):
                sid = state_id(w, copy)
                row = []
                for sym in self.alphabet:
                    grown = w + sym
                    if len(grown) <= self.depth:
                        row.append(state_id(grown, copy))
                    else:
                        row.append(state_id("", self.wrap_copy(grown)))
                delta[sid] = tuple(row)
        member = set(self.words)
        accepting = frozenset(state_id(w, 1) for w in prefixes if w in member)
        left = Dfa(self.alphabet, state_id("", 0), accepting, tuple(delta))
        right = Dfa(self.alphabet, state_id("", 1), accepting, tuple(delta))
        return left, right


def construct_pair(words, alphabet: str) -> tuple[Dfa, Dfa]:
    """Two DFAs with empty finite parts whose languages differ on exactly ``words``."""
    return ConstructionSpec.for_words(words, alphabet).build()
