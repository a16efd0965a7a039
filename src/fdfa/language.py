"""Language classification (empty / finite / infinite), enumeration, and symmetric differences."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    Dfa,
    Word,
    _lex_symbol_order,
    _peel,
    product_xor,
    shortest_cycle_word,
    shortest_word_to,
    states_on_cycles,
    states_reaching,
)

EMPTY = "empty"
FINITE = "finite"
INFINITE = "infinite"


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

    The verdict costs one peel of the whole table.  The lasso ``witness``,
    the listing ``text``, its word list ``words`` and the count ``n_words``
    are built from ``dfa`` on first read, and so are the useful states they
    share, so a caller that needs only the verdict never pays for them.
    """

    kind: str  # EMPTY, FINITE or INFINITE
    dfa: Dfa = field(compare=False, repr=False)

    @property
    def finite(self) -> bool:
        return self.kind != INFINITE

    @cached_property
    def _useful(self) -> set[int]:
        # the states that can still reach acceptance
        return useful_states(self.dfa)

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
    def text(self) -> str | None:
        """Every accepted word, shortlex-sorted, each followed by a newline, as
        one string; None for an infinite language."""
        if self.kind == INFINITE:
            return None
        return _list_text(self.dfa, self._useful, self.dfa.accepting)

    @cached_property
    def words(self) -> tuple[Word, ...] | None:
        """Every accepted word, shortlex-sorted; None for an infinite language."""
        if self.kind == INFINITE:
            return None
        return tuple(self.text.split("\n")[:-1])

    @cached_property
    def n_words(self) -> int | None:
        """``len(words)``, counted without listing; None for an infinite language."""
        if self.kind == INFINITE:
            return None
        d = self.dfa
        return _count_words(d.delta, d.start, self._useful, d.accepting)


def useful_states(d: Dfa) -> set[int]:
    """States from which some accepting state is reachable."""
    if not d.accepting:
        return set()
    return states_reaching(d.delta, d.accepting)


def classify_language(d: Dfa) -> Classification:
    """Decide whether L(d) is empty, finite, or infinite.

    Every state of a :class:`Dfa` is reachable, so L(d) is empty exactly when
    no state accepts, and infinite exactly when an accepting state lies in the
    infinite part, which peeling the whole table leaves over (see
    :func:`fdfa.parts.compute_parts`).
    """
    if not d.accepting:
        kind = EMPTY
    elif d.accepting.issubset(_peel(d.delta, d.states)):
        kind = FINITE
    else:
        kind = INFINITE
    return Classification(kind, d)


def _list_text(d: Dfa, useful, targets) -> str:
    """Every word whose run from the start stays in ``useful`` and ends in
    ``targets``, shortlex-sorted, each followed by a newline, as one string.
    No cycle may run through ``useful``.

    Breadth-first, one word length at a time.  A level maps each state it
    reaches to one ``bytes`` block: the sorted words of that length that reach
    it, as fixed-width records of a newline and the word.  A symbol takes one
    byte (``latin-1``) when the whole alphabet lies below U+0100, else four
    (``utf-32-be``); in both, byte order is code-point order.  No object is
    made per word: a one-word block grows by one concatenation, a larger one
    by strided slice copies (:func:`_grow`), and a block that several states
    feed is merged with one sort of its records.
    """
    enc, u = ("latin-1", 1) if max(d.alphabet) < "\u0100" else ("utf-32-be", 4)
    syms = [(ci, sym.encode(enc)) for ci, sym in _lex_symbol_order(d)]
    delta = d.delta
    nl = "\n".encode(enc)
    # a byte that the newline and every symbol hold as 0 is 0 in every record
    live = [b for b in range(u) if nl[b] or any(sym[b] for _, sym in syms)]
    out = bytearray()
    level: dict[int, bytes] = {d.start: nl}
    width = u  # the record width of this level, in bytes
    while level:
        hits = [blk for q, blk in level.items() if q in targets]
        if hits:
            out += _merge_blocks(hits, width)
        nxt: dict[int, bytes] = {}
        runs: dict[int, list[bytes]] = {}  # the states that several blocks feed
        cols = [c for c in range(width) if c % u in live]
        # each grown block g is a new object, so `group is not g` tells that
        # another block fed t first
        for q, blk in level.items():
            row = delta[q]
            if len(blk) == width:  # one word, as in every group of a trie
                for ci, sym in syms:
                    t = row[ci]
                    if t in useful:
                        g = blk + sym
                        group = nxt.setdefault(t, g)
                        if group is not g:
                            runs.setdefault(t, [group]).append(g)
            else:
                # the symbols from q into each useful state, in character order
                fan: dict[int, list[bytes]] = {}
                for ci, sym in syms:
                    t = row[ci]
                    if t in useful:
                        fan.setdefault(t, []).append(sym)
                for t, ts in fan.items():
                    g = _grow(blk, width, cols, ts)
                    group = nxt.setdefault(t, g)
                    if group is not g:
                        runs.setdefault(t, [group]).append(g)
        width += u
        for t, blks in runs.items():
            nxt[t] = _merge_blocks(blks, width)
        level = nxt
    if out:  # move the leading newline to the end
        out += nl
        del out[:u]
    return out.decode(enc)


def _grow(blk: bytes, width: int, cols: list[int], syms: list[bytes]) -> bytes:
    """The sorted ``width``-byte records of ``blk``, each extended by every
    symbol of ``syms`` in turn.

    Record r's extensions r·s1, …, r·sj come out together, so sorted symbols
    keep the block sorted.  Each byte column of the old records that is not
    all zero (``cols``) is copied into every j-th new record at once, so the
    Python-level steps number O(width·j) whatever the number of records.
    """
    n, j, wider = len(blk) // width, len(syms), width + len(syms[0])
    stride = j * wider
    buf = bytearray(n * stride)  # zeroed
    for c in cols:
        col = blk[c::width]
        for i in range(j):
            buf[i * wider + c::stride] = col
    for i, sym in enumerate(syms):
        for c, byte in enumerate(sym, width):
            if byte:
                buf[i * wider + c::stride] = bytes((byte,)) * n
    return bytes(buf)


def _merge_blocks(blocks: list[bytes], width: int) -> bytes:
    # sorted blocks of ``width``-byte records, merged into one sorted block
    if len(blocks) == 1:
        return blocks[0]
    if sum(map(len, blocks)) == width * len(blocks):  # one record each
        records = blocks
    else:
        records = [blk[i:i + width] for blk in blocks for i in range(0, len(blk), width)]
    return b"".join(sorted(records))


def _count_words(delta, start: int, useful, targets) -> int:
    """How many words lead from ``start`` through ``useful`` into ``targets``
    in a raw transition table: for a machine's own table and start, as many as
    :func:`_list_text` lists for the same ``useful`` and ``targets``.

    Counts paths instead of listing them, so the count is an exact int
    however many words there are.  ``useful`` is a set that must be acyclic,
    as the states reaching a finite-part state, and the useful states of a
    finite language, are; :func:`_peel` orders it so that each state comes
    before its successors, and one pass in the reverse order adds up each
    state's count from its successors' counts, in O(k·|useful|) steps.
    """
    count: dict[int, int] = {}
    for q in reversed(_peel(delta, useful)):
        count[q] = (q in targets) + sum([count[t] for t in delta[q] if t in useful])
    return count.get(start, 0)


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
