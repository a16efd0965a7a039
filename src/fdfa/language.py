"""Language classification (empty / finite / infinite), enumeration, and symmetric differences."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    kind: str  # EMPTY, FINITE or INFINITE
    witness: Lasso | None = None
    # the states that can still reach acceptance, kept so that listing a finite
    # language does not run the backward closure a second time
    useful: set[int] = field(default_factory=set, compare=False, repr=False)


@dataclass(frozen=True)
class DiffResult:
    """Symmetric difference of two languages: a finite word list or a lasso witness."""

    kind: str  # FINITE or INFINITE
    words: tuple[Word, ...] | None = None
    witness: Lasso | None = None

    @property
    def finite(self) -> bool:
        return self.kind == FINITE


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

    A language is infinite exactly when some state that can still accept lies on
    a cycle; the returned lasso goes through the smallest-id such state with
    shortlex-least prefix, pump, and suffix.
    """
    useful = useful_states(d)
    if d.start not in useful:
        return Classification(EMPTY, useful=useful)
    pumpable = useful & states_on_cycles(d.delta)
    if not pumpable:
        return Classification(FINITE, useful=useful)
    c = min(pumpable)
    pump = shortest_cycle_word(d, c)
    prefix = shortest_word_to(d, d.start, {c})
    suffix = shortest_word_to(d, c, d.accepting)
    # all three exist by choice of c: reachable, on a cycle, and useful
    return Classification(INFINITE, Lasso(prefix, pump, suffix), useful)


def enumerate_finite_language(d: Dfa) -> list[Word]:
    """All accepted words, shortlex-sorted.  Raises InfiniteLanguageError otherwise."""
    cls = classify_language(d)
    if cls.kind == INFINITE:
        raise InfiniteLanguageError(cls.witness)
    # an empty language lists no word, as the start cannot reach acceptance
    return _list_words(d, cls.useful, d.accepting)


def _list_words(d: Dfa, useful, targets) -> list[Word]:
    """Every word whose run from the start stays in ``useful`` and ends in
    ``targets``, shortlex-sorted.  No cycle may run through ``useful``.

    Breadth-first, one word length at a time, trying symbols in character
    order: each level then comes out sorted, so no sort is needed.
    """
    order = _lex_symbol_order(d)
    delta = d.delta
    out: list[Word] = []
    level: list[tuple[int, Word]] = [(d.start, "")]
    while level:
        nxt: list[tuple[int, Word]] = []
        for q, word in level:
            if q in targets:
                out.append(word)
            row = delta[q]
            for ci, sym in order:
                t = row[ci]
                if t in useful:
                    nxt.append((t, word + sym))
        level = nxt
    return out


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


def classify_difference(a: Dfa, b: Dfa) -> Classification:
    """Whether L(a) xor L(b) is empty, finite or infinite, without listing a word.

    Takes time polynomial in the product size even when the difference holds
    exponentially many words; an infinite verdict carries its lasso.
    """
    return classify_language(product_xor(a, b).dfa)


def symmetric_difference(a: Dfa, b: Dfa) -> DiffResult:
    """L(a) xor L(b): the full shortlex word list when finite, else a lasso witness."""
    prod = product_xor(a, b).dfa
    cls = classify_language(prod)
    if cls.kind == INFINITE:
        return DiffResult(INFINITE, witness=cls.witness)
    # an empty difference lists no word, as the start cannot reach acceptance
    words = _list_words(prod, cls.useful, prod.accepting)
    return DiffResult(FINITE, words=tuple(words))


def languages_equal(a: Dfa, b: Dfa) -> bool:
    """Exact language equality, decided by emptiness of the xor product."""
    return classify_difference(a, b).kind == EMPTY
