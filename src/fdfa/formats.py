"""Line-oriented text formats: the ``dfa v1`` automaton format and word lists.

Format sketch::

    dfa v1
    alphabet 01
    states 2
    start 0
    accept 0
    0 0 0
    0 1 1
    1 0 1
    1 1 1

``#`` starts a comment, blank lines are ignored, ``accept -`` means no
accepting states, and exactly ``states * len(alphabet)`` transition lines
``<from> <symbol> <to>`` must be present.  The canonical serialization sorts
transitions by (from, symbol) and accepting ids ascending.  The empty word is
rendered as ``@`` wherever words appear in text.
"""

from __future__ import annotations

import re
import warnings
from itertools import chain

from .core import (
    Dfa,
    Word,
    _forward_closure,
    _lex_symbol_order,
    _renumber,
    check_alphabet,
    check_word,
)

EPSILON_TOKEN = "@"


class DfaFormatError(ValueError):
    """A ``dfa v1`` document or word list failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class TrimWarning(UserWarning):
    """Unreachable states were dropped while loading an automaton."""


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise DfaFormatError(f"{what} is not an integer: {token!r}", line_no) from None


def parse_dfa(text: str, *, complete: bool = False) -> Dfa:
    """Parse the ``dfa v1`` format into a validated automaton.

    Unreachable states are dropped with a :class:`TrimWarning` and ids reindexed
    densely.  A missing transition is an error unless ``complete=True``, which
    routes every missing transition to a fresh rejecting sink before validation.
    One regex match finds the five header lines when they are in the layout
    :func:`serialize_dfa` writes; any other header is split into its logical
    lines.  One set of checks then reads every header, and the first failed
    check names its line.  A transition section in the canonical layout is
    read by columns, its ids converted in bulk; any other is read and checked
    line by line, and only that reader reports transition errors, each naming
    its line.  Either way the checks cost what the input holds, never what
    ``states`` declares.
    """
    d, dropped = _parse(text, complete)
    if dropped:
        warnings.warn(_trimmed(dropped), TrimWarning, stacklevel=2)
    return d


def _trimmed(dropped: int) -> str:
    return f"trimmed {dropped} unreachable state{'' if dropped == 1 else 's'}"


def _parse(text: str, complete: bool) -> tuple[Dfa, int]:
    """:func:`parse_dfa` without the warning: the machine, and how many
    unreachable states were dropped from it."""
    alphabet, n, start, accepting, line_no, body = _read_header(text)
    rows = _read_columns(text, body, alphabet, n)
    if rows is None:
        numbered = enumerate(text[body:].splitlines(), start=line_no + 1)
        rows, reached, n = _read_lines(numbered, alphabet, n, start, complete)
    else:
        reached = _forward_closure(rows, (start,))
    # the checks above and the search establish everything Dfa.__post_init__ checks
    if len(reached) == n:
        # every state is reachable, so the ids are already dense
        delta = tuple(map(rows.__getitem__, range(n)))
        return Dfa._unchecked(alphabet, start, frozenset(accepting), delta), 0
    d, _ = _renumber(alphabet, start, accepting, rows, reached)
    return d, n - len(reached)


# the five header lines in the layout serialize_dfa writes: no comment, blank or
# other line end; this only finds them, and _read_header checks them like any other
_HEADER = re.compile(r"dfa v1\nalphabet [^\s#]+\nstates [0-9]+\nstart [0-9]+\naccept [-0-9 ]+\n")


def _read_header(text: str):
    """(alphabet, state count, start, accepting ids, number of the accept
    line, offset after it) from the header of ``text``; the first failed
    check raises :class:`DfaFormatError` naming its line.

    A header in the layout :func:`serialize_dfa` writes is found by one match
    of :data:`_HEADER`; any other is read from its logical lines.  Either way
    the same checks then read it, in the same order."""
    m = _HEADER.match(text)
    if m is None:
        lines = _logical_lines(text)
    else:
        lines = zip(range(1, 6), text[:m.end() - 1].split("\n"), [m.end()] * 5)
    body = 0  # offset of the text after the last line read

    def next_line(expect: str):
        nonlocal body
        for line_no, content, body in lines:
            return line_no, content
        raise DfaFormatError(f"unexpected end of input, expected {expect}")

    line_no, magic = next_line("'dfa v1' header")
    if magic != "dfa v1":
        raise DfaFormatError(f"expected 'dfa v1' header, got {magic!r}", line_no)

    line_no, decl = next_line("alphabet line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "alphabet":
        raise DfaFormatError("expected 'alphabet <symbols>'", line_no)
    alphabet = fields[1]
    try:
        check_alphabet(alphabet)
    except ValueError as exc:
        raise DfaFormatError(str(exc), line_no) from None

    line_no, decl = next_line("states line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "states":
        raise DfaFormatError("expected 'states <count>'", line_no)
    n = _parse_int(fields[1], "state count", line_no)
    if n < 1:
        raise DfaFormatError(f"state count must be positive, got {n}", line_no)

    line_no, decl = next_line("start line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "start":
        raise DfaFormatError("expected 'start <id>'", line_no)
    start = _parse_int(fields[1], "start state", line_no)
    if not 0 <= start < n:
        raise DfaFormatError(f"start state {start} out of range 0..{n - 1}", line_no)

    line_no, decl = next_line("accept line")
    fields = decl.split()
    if len(fields) < 2 or fields[0] != "accept":
        raise DfaFormatError("expected 'accept <ids>' or 'accept -'", line_no)
    accepting: set[int] = set()
    if fields[1:] != ["-"]:
        try:
            accepting = set(map(int, fields[1:]))
        except ValueError:
            pass
        if not accepting or min(accepting) < 0 or max(accepting) >= n:
            # some id fails a check: the first one in line order names it
            for token in fields[1:]:
                q = _parse_int(token, "accepting state", line_no)
                if not 0 <= q < n:
                    raise DfaFormatError(f"accepting state {q} out of range 0..{n - 1}", line_no)
    return alphabet, n, start, accepting, line_no, body


# the line breaks of str.splitlines
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?")


def _logical_lines(text: str):
    """(line number, content, offset after its break) for each line of
    ``text.splitlines()`` that holds something once its ``#`` comment is cut
    and its blanks stripped, lazily: a reader that stops early never splits
    the rest of the text."""
    pos = 0
    line_no = 0
    while pos < len(text):
        m = _LINE.match(text, pos)
        pos = m.end()
        line_no += 1
        content = m.group(1).split("#", 1)[0].strip()
        if content:
            yield line_no, content, pos


_CHUNK = 1 << 15  # characters of transition text checked and split at once
_CANONICAL_LINES = re.compile(r"(?:[0-9]+ [^\s#] [0-9]+\n)*")


def _read_columns(text: str, pos: int, alphabet: str, n: int) -> list[tuple[int, ...]] | None:
    """The ``n`` rows of a transition section in canonical layout at ``text[pos:]``, or None.

    The canonical layout is one ``<src> <sym> <dst>`` line per transition,
    ending in ``\\n``, sorted by (source, symbol in character order).  The text
    is read in chunks of whole rows that end on a line break; each chunk is
    checked by one regex, split once, and compared column by column with the
    ids and symbols that layout puts there.  Any other text, and a table this
    check cannot accept whole, gives None; until then it holds what the text
    read holds, not what ``n`` declares.  The rows may leave states
    unreachable; the caller searches for them.
    """
    k = len(alphabet)
    order = sorted(range(k), key=alphabet.__getitem__)
    symbols = "".join(map(alphabet.__getitem__, order))
    columns: list[list[int]] = [[] for _ in range(k)]  # targets by alphabet position
    q = 0  # the state whose row comes next
    end = len(text)
    while pos < end:
        stop = text.find("\n", min(pos + _CHUNK, end) - 1) + 1 or end
        chunk = text[pos:stop]
        if not _CANONICAL_LINES.fullmatch(chunk):
            return None
        tokens = chunk.split()
        count, extra = divmod(len(tokens) // 3, k)  # whole rows, lines of a partial row
        if extra:
            # a partial row goes to the next chunk; each token is followed by one space or \n
            tail = tokens[3 * k * count:]
            stop -= sum(map(len, tail)) + len(tail)
            del tokens[3 * k * count:]
        sources = tokens[0::3]
        firsts = sources[0::k]
        if (not count or firsts != list(map(str, range(q, q + count)))
                or any(sources[j::k] != firsts for j in range(1, k))
                or "".join(tokens[1::3]) != symbols * count):
            return None
        try:
            targets = list(map(int, tokens[2::3]))
        except ValueError:  # more digits than int() converts
            return None
        if max(targets) >= n:
            return None
        for j, ci in enumerate(order):
            columns[ci] += targets[j::k]
        q += count
        pos = stop
    return list(zip(*columns)) if q == n else None


def _read_lines(numbered, alphabet: str, n: int, start: int, complete: bool):
    """The rows of the states reachable from ``start``, by id, those states,
    and the state count, from the transition lines ``numbered`` holds.

    Each transition line is checked once, in the order the format defines:
    field count, source integer, source range, symbol, target integer,
    target range, duplicate; the first failed check names its line.  A
    missing transition is an error unless ``complete``, which sends it to a
    fresh rejecting sink, counted in the state count.  Rows are built only
    for reachable states, so a huge declared state count with few lines
    costs what the lines cost.
    """
    k = len(alphabet)
    index = {sym: ci for ci, sym in enumerate(alphabet)}
    table: dict[int, int] = {}  # src * k + ci -> dst
    for line_no, line in numbered:
        line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise DfaFormatError(f"expected '<from> <symbol> <to>', got {line.strip()!r}", line_no)
        src = _parse_int(fields[0], "source state", line_no)
        if not 0 <= src < n:
            raise DfaFormatError(f"source state {src} out of range 0..{n - 1}", line_no)
        ci = index.get(fields[1])
        if ci is None:
            raise DfaFormatError(f"symbol {fields[1]!r} not in alphabet {alphabet!r}", line_no)
        dst = _parse_int(fields[2], "target state", line_no)
        if not 0 <= dst < n:
            raise DfaFormatError(f"target state {dst} out of range 0..{n - 1}", line_no)
        key = src * k + ci
        if key in table:
            raise DfaFormatError(f"duplicate transition for state {src} on {fields[1]!r}", line_no)
        table[key] = dst

    missing = n * k - len(table)
    if missing and not complete:
        q, ci = next((q, ci) for q in range(n) for ci in range(k) if q * k + ci not in table)
        raise DfaFormatError(
            f"incomplete transition table: state {q} has no transition on {alphabet[ci]!r}"
            f" ({missing} missing in total)"
        )
    sink = n
    for ci in range(k):
        table[sink * k + ci] = sink
    symbols = range(k)
    rows = {start: tuple([table.get(start * k + ci, sink) for ci in symbols])}
    reached = [start]
    for q in reached:
        for t in rows[q]:
            if t not in rows:
                base = t * k
                rows[t] = tuple([table.get(base + ci, sink) for ci in symbols])
                reached.append(t)
    return rows, reached, n + (missing > 0)


def serialize_dfa(d: Dfa) -> str:
    """Canonical ``dfa v1`` text: transitions sorted by (from, symbol), accept ascending.

    The transition section is one ``%`` format of a row's lines, repeated
    once per state, over the ids in row order: each state's id beside each
    of its targets, symbols in character order.
    """
    accept = " ".join(map(str, sorted(d.accepting))) if d.accepting else "-"
    header = f"dfa v1\nalphabet {d.alphabet}\nstates {d.n_states}\nstart {d.start}\naccept {accept}\n"
    order = _lex_symbol_order(d)
    row_lines = "".join(f"%d {sym.replace('%', '%%')} %d\n" for _, sym in order)
    columns = list(zip(*d.delta))
    ids = []  # per state: its id and target, once per symbol in order
    for ci, _ in order:
        ids += [d.states, columns[ci]]
    return header + row_lines * d.n_states % tuple(chain.from_iterable(zip(*ids)))


def format_word(word: Word) -> str:
    """Render a word for text output; the empty word becomes ``@``."""
    return word if word else EPSILON_TOKEN


def parse_word(token: str) -> Word:
    """Read a word token; ``@`` denotes the empty word."""
    if token == EPSILON_TOKEN:
        return ""
    if EPSILON_TOKEN in token:
        raise ValueError(f"{EPSILON_TOKEN!r} may only appear alone: {token!r}")
    return token


def _read_words(text: str, alphabet: str) -> list[Word]:
    """One word per line, ``@`` for the empty word, ``#`` comments and blanks
    ignored, each word then checked against ``alphabet`` so that a word
    outside it names its line too.

    A bad line raises :class:`DfaFormatError`, which names the line; format
    errors come first, and an invalid ``alphabet`` then raises the
    :func:`check_alphabet` error, which has no line."""
    numbered = []
    for line_no, content, _ in _logical_lines(text):
        if len(content.split()) != 1:
            raise DfaFormatError(f"expected one word per line, got {content!r}", line_no)
        try:
            numbered.append((line_no, parse_word(content)))
        except ValueError as exc:
            raise DfaFormatError(str(exc), line_no) from None
    check_alphabet(alphabet)
    for line_no, word in numbered:
        try:
            check_word(word, alphabet)
        except ValueError as exc:
            raise DfaFormatError(str(exc), line_no) from None
    return [word for _, word in numbered]
