"""Core DFA model: validated automata, word runs, induced machines, xor products."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

Word = str  # the empty string is the empty word

_RESERVED_SYMBOLS = frozenset("#@")


class AlphabetMismatchError(ValueError):
    """Two automata were combined although their alphabets differ."""


def check_alphabet(alphabet: str) -> None:
    """Validate an alphabet: non-empty, unique printable symbols, none of them '#' or '@'."""
    if not alphabet:
        raise ValueError("alphabet is empty")
    seen = set()
    for sym in alphabet:
        if sym in seen:
            raise ValueError(f"duplicate alphabet symbol {sym!r}")
        seen.add(sym)
        if sym in _RESERVED_SYMBOLS:
            raise ValueError(f"alphabet symbol {sym!r} is reserved")
        if sym.isspace() or not sym.isprintable():
            raise ValueError(f"alphabet symbol {sym!r} is whitespace or unprintable")


def check_word(word: Word, alphabet: str) -> None:
    """Reject a word that uses a symbol outside ``alphabet``."""
    for sym in word:
        if sym not in alphabet:
            raise ValueError(f"word {word!r} uses symbol {sym!r} outside alphabet {alphabet!r}")


def reachable_states(delta: Iterable[Iterable[int]], start: int) -> set[int]:
    """States reachable from ``start`` in a raw transition table (rows of successor ids)."""
    return set(_forward_closure(list(delta), (start,)))


def _forward_closure(rows, sources: Iterable[int]) -> list[int]:
    """The states reachable from ``sources`` in a list of rows, in breadth-first order.

    Every row is read at most once.
    """
    seen = bytearray(len(rows))
    reached = []
    for q in sources:
        if not seen[q]:
            seen[q] = 1
            reached.append(q)
    for q in reached:
        for t in rows[q]:
            if not seen[t]:
                seen[t] = 1
                reached.append(t)
    return reached


def states_reaching(delta, targets: Iterable[int]) -> set[int]:
    """States from which some state in ``targets`` is reachable (backward closure)."""
    rows = list(delta)
    preds: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(rows):
        for t in row:
            preds[t].append(q)
    return set(_forward_closure(preds, targets))


def _peel(rows, states) -> list[int]:
    """The states of ``states`` that no cycle inside ``states`` reaches, in
    the order they are peeled.

    Kahn's in-degree peeling on the subgraph that ``states`` induces: the
    in-degrees are counted for all rows at once, and a state whose in-degree
    falls to 0 is peeled, which lowers its successors' in-degrees.  A state
    left over has a predecessor left over, so walking back from it meets a
    cycle.  Only the peeled states' rows are read one by one.
    """
    indeg = Counter(chain.from_iterable(map(rows.__getitem__, states)))
    queue = list(set(states).difference(indeg))
    for q in queue:
        for t in rows[q]:
            if t in states:
                indeg[t] -= 1
                if not indeg[t]:
                    queue.append(t)
    return queue


def strongly_connected_components(delta) -> list[list[int]]:
    """Tarjan's SCC over a transition table, iterative so deep machines cannot overflow."""
    rows = [tuple(row) for row in delta]
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge = work[-1]
            if edge == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            row = rows[v]
            while edge < len(row):
                w = row[edge]
                edge += 1
                if index[w] == -1:
                    work[-1] = (v, edge)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def states_on_cycles(delta) -> set[int]:
    """States lying on some cycle: in an SCC of size > 1, or carrying a self-loop.

    Only the lasso of an infinite language needs the states themselves; a
    yes/no question about cycles is answered by :func:`_peel`.
    """
    rows = [tuple(row) for row in delta]
    out: set[int] = set()
    for comp in strongly_connected_components(rows):
        if len(comp) > 1:
            out.update(comp)
        else:
            q = comp[0]
            if q in rows[q]:
                out.add(q)
    return out


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic finite automaton over single-character symbols.

    States are the dense integers ``0..n-1`` and ``delta[q][i]`` is the successor
    of ``q`` on the i-th symbol of ``alphabet``.  Every state must be reachable
    from ``start``; construction fails otherwise (use :func:`trim` to drop
    unreachable states first).  Instances are immutable, hashable, and safe to
    share across threads.
    """

    alphabet: str
    start: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        check_alphabet(self.alphabet)
        n = len(self.delta)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        k = len(self.alphabet)
        for q, row in enumerate(self.delta):
            if len(row) != k:
                raise ValueError(f"state {q} has {len(row)} transitions, expected {k}")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range for state {q}")
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")
        for q in self.accepting:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range")
        missing = set(range(n)).difference(_forward_closure(self.delta, (self.start,)))
        if missing:
            raise ValueError(f"states unreachable from start: {sorted(missing)}")

    @classmethod
    def _unchecked(cls, alphabet, start, accepting, delta) -> "Dfa":
        """Build without ``__post_init__`` from a table derived from a valid machine,
        already checked by :func:`fdfa.formats.parse_dfa`, or valid by
        construction (:func:`fdfa.construct.construct_pair`).

        The caller guarantees what the checks would establish: ``accepting`` is
        a frozenset and ``delta`` a tuple of k-tuples of in-range ids, and every
        state reachable from ``start``.
        """
        d = object.__new__(cls)
        d.__dict__.update(alphabet=alphabet, start=start, accepting=accepting, delta=delta)
        return d

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @property
    def states(self) -> range:
        return range(len(self.delta))

    @cached_property
    def _symbol_index(self) -> dict[str, int]:
        return {sym: i for i, sym in enumerate(self.alphabet)}

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._symbol_index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.alphabet!r}") from None

    def run(self, word: Word, start: int | None = None) -> int:
        """State reached from ``start`` (default: the start state) after reading ``word``."""
        if start is not None:
            _check_states(self, start)
        q = self.start if start is None else start
        delta = self.delta
        index = self._symbol_index
        for sym in word:
            try:
                q = delta[q][index[sym]]
            except KeyError:
                raise ValueError(f"symbol {sym!r} not in alphabet {self.alphabet!r}") from None
        return q

    def accepts(self, word: Word) -> bool:
        return self.run(word) in self.accepting


def _check_states(d: Dfa, *states: int) -> None:
    for q in states:
        if q not in d.states:
            raise ValueError(f"state {q} out of range")


def trim(alphabet, start, accepting, delta) -> tuple[Dfa, dict[int, int]]:
    """Drop states unreachable from ``start`` and reindex densely, keeping id order.

    Returns the trimmed automaton and the old-id -> new-id map for the survivors.
    The result is checked as every public :class:`Dfa` is.
    """
    d, remap = _trim(alphabet, start, accepting, [tuple(row) for row in delta])
    return Dfa(d.alphabet, d.start, d.accepting, d.delta), remap


def _trim(alphabet, start, accepting, rows) -> tuple[Dfa, dict[int, int]]:
    # unchecked: the callers derive ``rows`` from a valid machine, or check the result
    return _renumber(alphabet, start, accepting, rows, _forward_closure(rows, (start,)))


def _renumber(alphabet, start, accepting, rows, reached) -> tuple[Dfa, dict[int, int]]:
    """The machine on the states ``reached`` from ``start``, ids made dense in
    their old order, and the old-id -> new-id map.

    ``rows`` maps each reached state's id to its row; ``reached`` must be
    closed under the rows, and the result is not checked.
    """
    keep = sorted(reached)
    remap = {old: new for new, old in enumerate(keep)}
    new_delta = tuple(tuple(remap[t] for t in rows[old]) for old in keep)
    new_accepting = frozenset(remap[q] for q in accepting if q in remap)
    return Dfa._unchecked(alphabet, remap[start], new_accepting, new_delta), remap


def induce(d: Dfa, q: int) -> Dfa:
    """The automaton obtained by re-pointing the start at ``q`` and trimming."""
    _check_states(d, q)
    dfa, _ = _trim(d.alphabet, q, d.accepting, d.delta)
    return dfa


@dataclass(frozen=True)
class ProductDfa:
    """Reachable pair automaton accepting the symmetric difference of two languages.

    ``pairs[i]`` records which (left state, right state) pair product state ``i``
    stands for.
    """

    dfa: Dfa
    pairs: tuple[tuple[int, int], ...]


def product_xor(a: Dfa, b: Dfa) -> ProductDfa:
    """Pair construction over the reachable product, accepting exactly where a, b disagree."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"alphabets differ: {a.alphabet!r} vs {b.alphabet!r}")
    pairs, rows, accepting = _xor_rows(a.delta, a.accepting, b.delta, b.accepting,
                                       (a.start, b.start))
    dfa = Dfa._unchecked(a.alphabet, 0, accepting, tuple(rows))
    return ProductDfa(dfa, tuple(pairs))


def _xor_rows(da, acc_a, db, acc_b, first: tuple[int, int]):
    # the pairs of two raw tables reachable from ``first``, numbered as found,
    # their rows of pair ids, and the ids of the pairs where acceptance differs
    k = len(da[first[0]])
    index: dict[tuple[int, int], int] = {first: 0}
    pairs: list[tuple[int, int]] = [first]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(pairs):
        p, q = pairs[i]
        row_a, row_b = da[p], db[q]
        row = []
        for ci in range(k):
            key = (row_a[ci], row_b[ci])
            j = index.get(key)
            if j is None:
                j = len(pairs)
                index[key] = j
                pairs.append(key)
            row.append(j)
        rows.append(tuple(row))
        i += 1
    accepting = frozenset(
        i for i, (p, q) in enumerate(pairs) if (p in acc_a) != (q in acc_b)
    )
    return pairs, rows, accepting


def disjoint_union(a: Dfa, b: Dfa) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Raw transition table and accepting set of a and b side by side.

    States of ``a`` keep their ids; state q of ``b`` becomes ``a.n_states + q``.
    The table has no start state, so it is not a :class:`Dfa`.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"alphabets differ: {a.alphabet!r} vs {b.alphabet!r}")
    off = a.n_states
    delta = a.delta + tuple(tuple(off + t for t in row) for row in b.delta)
    return delta, a.accepting | {off + q for q in b.accepting}


def _lex_symbol_order(d: Dfa) -> tuple[tuple[int, str], ...]:
    # symbol positions in character order, so breadth-first searches yield shortlex words
    return tuple(sorted(enumerate(d.alphabet), key=lambda t: t[1]))


def shortest_word_to(d: Dfa, source: int, targets: Iterable[int]) -> Word | None:
    """Shortlex-least word taking ``source`` into ``targets``, or None if unreachable."""
    goal = set(targets)
    _check_states(d, source, *goal)
    return _shortlex_search(d, [(source, "")], goal)


def shortest_cycle_word(d: Dfa, q: int) -> Word | None:
    """Shortlex-least non-empty word returning ``q`` to itself, or None if q is acyclic."""
    _check_states(d, q)
    row = d.delta[q]
    return _shortlex_search(d, [(row[ci], sym) for ci, sym in _lex_symbol_order(d)], {q})


def _shortlex_search(d: Dfa, first, goal: set[int]) -> Word | None:
    """Shortlex-least word u·v with (s, u) in ``first`` and ``v`` taking s into
    ``goal``, or None.

    ``first`` is the search's first level: (state, word) pairs whose words
    have one length and come in character order.  Each state is entered once,
    by the first word that reaches it, so the search costs one pass over the
    rows it reaches.
    """
    order = _lex_symbol_order(d)
    delta = d.delta
    parent: dict[int, tuple[int, str]] = {}  # state -> (previous state or -1, symbol or first word)
    for s, word in first:
        if s in goal:
            return word
        parent.setdefault(s, (-1, word))
    queue = list(parent)
    for s in queue:
        row = delta[s]
        for ci, sym in order:
            t = row[ci]
            if t in parent:
                continue
            parent[t] = (s, sym)
            if t in goal:
                out = []
                while t != -1:
                    t, sym = parent[t]
                    out.append(sym)
                return "".join(reversed(out))
            queue.append(t)
    return None
