"""Language classification (empty / finite / infinite), enumeration, and symmetric differences."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .core import (
    Dfa,
    Word,
    _lex_symbol_order,
    product_xor,
    shortest_cycle_word,
    shortest_word_to,
    states_on_cycles,
    states_reaching,
)

EMPTY = "empty"
FINITE = "finite"
INFINITE = "infinite"


def shortlex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


@dataclass(frozen=True)
class Lasso:
    """Witness of an infinite language: ``prefix . pump^k . suffix`` is accepted for every k."""

    prefix: Word
    pump: Word
    suffix: Word

    def word(self, k: int) -> Word:
        return self.prefix + self.pump * k + self.suffix


@dataclass(frozen=True)
class Classification:
    """What L(dfa) is: EMPTY, FINITE or INFINITE.

    The verdict costs one backward closure and one cycle search.  The lasso
    ``witness``, the word list ``words`` and the count ``n_words`` are built
    from ``dfa`` on first read, so a caller that needs only the verdict never
    pays for them.
    """

    kind: str  # EMPTY, FINITE or INFINITE
    dfa: Dfa = field(compare=False, repr=False)
    # the states that can still reach acceptance, from the verdict's closure
    _useful: set[int] = field(compare=False, repr=False)

    @property
    def finite(self) -> bool:
        return self.kind != INFINITE

    @cached_property
    def witness(self) -> Lasso | None:
        """For an infinite language, a lasso through the smallest-id useful state on
        a cycle, with shortlex-least prefix, pump and suffix; else None."""
        if self.kind != INFINITE:
            return None
        d = self.dfa
        c = min(self._useful & states_on_cycles(d.delta))
        # all three exist by choice of c: reachable, on a cycle, and useful
        return Lasso(shortest_word_to(d, d.start, {c}), shortest_cycle_word(d, c),
                     shortest_word_to(d, c, d.accepting))

    @cached_property
    def words(self) -> tuple[Word, ...] | None:
        """Every accepted word, shortlex-sorted; None for an infinite language."""
        if self.kind == INFINITE:
            return None
        return tuple(_list_words(self.dfa, self._useful, self.dfa.accepting))

    @cached_property
    def n_words(self) -> int | None:
        """``len(words)``, counted without listing; None for an infinite language."""
        if self.kind == INFINITE:
            return None
        return _count_words(self.dfa, self._useful, self.dfa.accepting)


class InfiniteLanguageError(ValueError):
    """Enumeration was asked for an infinite language; carries the lasso witness."""

    def __init__(self, witness: Lasso):
        self.witness = witness
        super().__init__(
            f"language is infinite: accepts {witness.prefix!r} ({witness.pump!r})* {witness.suffix!r}"
        )


def useful_states(d: Dfa) -> set[int]:
    """States from which some accepting state is reachable."""
    if not d.accepting:
        return set()
    return states_reaching(d.delta, d.accepting)


def classify_language(d: Dfa) -> Classification:
    """Decide whether L(d) is empty, finite, or infinite.

    A language is infinite exactly when some state that can still accept lies
    on a cycle.
    """
    useful = useful_states(d)
    if d.start not in useful:
        kind = EMPTY
    elif useful & states_on_cycles(d.delta):
        kind = INFINITE
    else:
        kind = FINITE
    return Classification(kind, d, useful)


def enumerate_finite_language(d: Dfa) -> list[Word]:
    """All accepted words, shortlex-sorted.  Raises InfiniteLanguageError otherwise."""
    cls = classify_language(d)
    if cls.kind == INFINITE:
        raise InfiniteLanguageError(cls.witness)
    return list(cls.words)


def _list_words(d: Dfa, useful, targets) -> list[Word]:
    """Every word whose run from the start stays in ``useful`` and ends in
    ``targets``, shortlex-sorted.  No cycle may run through ``useful``.

    Breadth-first, one word length at a time.  A level maps each state it
    reaches to the sorted words of that length that reach it, so the
    Python-level steps follow (state, length) pairs and each word costs one
    concatenation.  A group that several edges feed is a row of sorted runs,
    which one sort merges.
    """
    order = _lex_symbol_order(d)
    delta = d.delta
    out: list[Word] = []
    level: dict[int, Sequence[Word]] = {d.start: ("",)}
    while level:
        hits = [words for q, words in level.items() if q in targets]
        if hits:
            out += _merge_runs(hits)
        nxt: dict[int, Sequence[Word]] = {}
        runs: dict[int, list[Sequence[Word]]] = {}
        for q, words in level.items():
            row = delta[q]
            for ci, sym in order:
                t = row[ci]
                if t in useful:
                    # tries have one word per group: a 1-tuple skips the
                    # comprehension, and the garbage collector stops tracking it
                    grown = (words[0] + sym,) if len(words) == 1 else [w + sym for w in words]
                    group = nxt.setdefault(t, grown)
                    if group is not grown:
                        runs.setdefault(t, [group]).append(grown)
        for t, parts in runs.items():
            nxt[t] = _merge_runs(parts)
        level = nxt
    return out


def _merge_runs(runs: list[Sequence[Word]]) -> Sequence[Word]:
    # runs of equal-length sorted words, merged into one sorted run
    return runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))


def _count_words(d: Dfa, useful, targets) -> int:
    """How many words :func:`_list_words` lists for the same arguments.

    Counts paths instead of listing them: a dynamic program over the acyclic
    ``useful`` subgraph in reverse topological order, O(k·|useful|) steps and
    an exact int however many words there are.
    """
    delta = d.delta
    count: dict[int, int] = {}
    stack = [d.start]
    while stack:
        q = stack[-1]
        if q in count:
            stack.pop()
            continue
        succ = [t for t in delta[q] if t in useful]
        pending = [t for t in succ if t not in count]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        count[q] = (q in targets) + sum(count[t] for t in succ)
    return count[d.start]


def symmetric_difference(a: Dfa, b: Dfa) -> Classification:
    """L(a) xor L(b), classified on the xor product without listing a word.

    The verdict takes time polynomial in the product size even when the
    difference holds exponentially many words; ``words``, ``n_words`` and
    ``witness`` are built on first read.
    """
    return classify_language(product_xor(a, b).dfa)


def languages_equal(a: Dfa, b: Dfa) -> bool:
    """Exact language equality, decided by emptiness of the xor product."""
    return symmetric_difference(a, b).kind == EMPTY
