import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfa import formats
from fdfa.core import Dfa, trim
from fdfa.formats import (
    DfaFormatError,
    TrimWarning,
    format_word,
    parse_dfa,
    parse_word,
    serialize_dfa,
)
from fdfa.minimize import moore_blocks

import machines as fixtures
from conftest import dfas, sigma_upto
from reference import parse_dfa_by_lines, serialize_dfa_by_lines

ZSTAR_TEXT = """dfa v1
alphabet 01
states 2
start 0
accept 0
0 0 0
0 1 1
1 0 1
1 1 1
"""


def test_serialize_zstar_exactly():
    assert serialize_dfa(fixtures.zstar()) == ZSTAR_TEXT


def test_parse_round_trip_on_fixtures():
    for d in (
        fixtures.zstar(),
        fixtures.onezstar(),
        fixtures.sigplus(),
        fixtures.all_words(),
        fixtures.empty(),
        fixtures.odd_length(),
        fixtures.even_length(),
    ):
        text = serialize_dfa(d)
        again = parse_dfa(text)
        assert serialize_dfa(again) == text
        assert again == d


@given(dfas())
def test_round_trip_any_machine(d):
    assert parse_dfa(serialize_dfa(d)) == d


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\ndfa v1\nalphabet 01  # trailing\nstates 1\nstart 0\naccept -\n0 0 0\n\n0 1 0\n"
    d = parse_dfa(text)
    assert d.n_states == 1
    assert not d.accepting


def test_accept_dash_means_none():
    d = parse_dfa(serialize_dfa(fixtures.empty()))
    assert d.accepting == frozenset()
    assert "accept -" in serialize_dfa(d)


def test_bad_magic():
    with pytest.raises(DfaFormatError, match="line 1"):
        parse_dfa("dfa v2\nalphabet 01\nstates 1\nstart 0\naccept -\n0 0 0\n0 1 0\n")


def test_bad_alphabet_line():
    with pytest.raises(DfaFormatError, match="line 2"):
        parse_dfa("dfa v1\nalphabet 00\nstates 1\nstart 0\naccept -\n0 0 0\n")


def test_start_out_of_range():
    with pytest.raises(DfaFormatError, match="start"):
        parse_dfa("dfa v1\nalphabet 01\nstates 1\nstart 1\naccept -\n0 0 0\n0 1 0\n")


def test_bad_accept_id():
    with pytest.raises(DfaFormatError, match="accept"):
        parse_dfa("dfa v1\nalphabet 01\nstates 1\nstart 0\naccept 3\n0 0 0\n0 1 0\n")


def test_duplicate_transition():
    text = "dfa v1\nalphabet 01\nstates 1\nstart 0\naccept -\n0 0 0\n0 0 0\n"
    with pytest.raises(DfaFormatError, match="duplicate transition"):
        parse_dfa(text)


def test_unknown_symbol_in_transition():
    text = "dfa v1\nalphabet 01\nstates 1\nstart 0\naccept -\n0 0 0\n0 x 0\n"
    with pytest.raises(DfaFormatError, match="symbol"):
        parse_dfa(text)


def test_incomplete_table_rejected_and_completable():
    text = "dfa v1\nalphabet 01\nstates 2\nstart 0\naccept 1\n0 0 1\n"
    with pytest.raises(DfaFormatError, match="incomplete transition table"):
        parse_dfa(text)
    d = parse_dfa(text, complete=True)
    # a rejecting sink was added for the three missing transitions
    assert d.n_states == 3
    assert d.accepts("0")
    assert not d.accepts("1")
    assert not d.accepts("00")


def test_line_reader_counts_the_sink_only_when_complete_needs_it():
    # CRLF text, which the column reader declines, read with complete=True
    head = "dfa v1\nalphabet 01\nstates 3\nstart 0\naccept 1\n"
    cases = (
        # a complete table: no sink, and no warning
        (head + "0 0 1\n0 1 2\n1 0 1\n1 1 2\n2 0 2\n2 1 0\n",
         Dfa("01", 0, {1}, ((1, 2), (1, 2), (2, 0))), []),
        # gaps only in the unreachable row 2: the sink is built, unreachable, and trimmed
        (head + "0 0 1\n0 1 0\n1 0 1\n1 1 0\n2 0 2\n",
         Dfa("01", 0, {1}, ((1, 0), (1, 0))), ["trimmed 2 unreachable states"]),
        # a gap in the reachable row 1: the sink is kept, and row 2 is trimmed
        (head + "0 0 1\n0 1 0\n1 0 1\n2 0 2\n2 1 2\n",
         Dfa("01", 0, {1}, ((1, 0), (1, 2), (2, 2))), ["trimmed 1 unreachable state"]),
    )
    for text, machine, messages in cases:
        text = text.replace("\n", "\r\n")
        expected = (machine, [(TrimWarning, message) for message in messages])
        assert parse_outcome(parse_dfa, text, True) == expected
        assert parse_outcome(parse_dfa_by_lines, text, True) == expected


HUGE_DECLARATION = "dfa v1\nalphabet 01\nstates 1000000\nstart 0\naccept 0 999999\n0 0 0\n"


def traced_peak(fn):
    """Call ``fn`` under tracemalloc; returns its result and the peak in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parse_traced(text, **kwargs):
    """Parse under tracemalloc; returns the result (or error) and the peak in bytes."""
    def parse():
        try:
            return parse_dfa(text, **kwargs)
        except DfaFormatError as exc:
            return exc
    return traced_peak(parse)


def test_short_table_is_rejected_without_allocating_the_declared_states():
    err, peak = parse_traced(HUGE_DECLARATION)
    assert isinstance(err, DfaFormatError)
    assert str(err) == (
        "incomplete transition table: state 0 has no transition on '1' (1999999 missing in total)"
    )
    assert peak < 2_000_000


def test_completing_a_short_table_builds_rows_only_for_reachable_states():
    with pytest.warns(TrimWarning, match="trimmed 999999 unreachable states"):
        d, peak = parse_traced(HUGE_DECLARATION, complete=True)
    assert d == Dfa("01", 0, {0}, ((0, 1), (1, 1)))
    assert peak < 2_000_000


def test_reading_rows_off_a_complete_table_stays_within_its_memory_bound():
    # a random 3-symbol table on 20,000 states, of which 18,777 are reachable
    rng = random.Random(20_000)
    n = 20_000
    delta = tuple(tuple(rng.randrange(n) for _ in "012") for _ in range(n))
    d, _ = trim("012", 0, frozenset(q for q in range(n) if rng.random() < 0.5), delta)
    text = serialize_dfa(d)
    parsed, parse_peak = traced_peak(lambda: parse_dfa(text))
    assert parsed == d
    # canonical text is read by columns, which peaks at 4.93 MiB (CPython 3.11);
    # the bound is 1.1 times the 10.77 MiB peak of the line reader that read it before
    assert parse_peak < 1.1 * 10.77 * 2 ** 20
    _, moore_peak = traced_peak(lambda: moore_blocks(parsed.delta, parsed.accepting))
    # 1.1 times the 4.34 MiB peak (CPython 3.11) of the column-wise Moore rounds
    assert moore_peak < 1.1 * 4.34 * 2 ** 20


def test_unreachable_states_trimmed_with_warning():
    text = "dfa v1\nalphabet 01\nstates 2\nstart 0\naccept 0\n0 0 0\n0 1 0\n1 0 1\n1 1 1\n"
    with pytest.warns(TrimWarning, match="trimmed 1 unreachable"):
        d = parse_dfa(text)
    assert d.n_states == 1


def test_trim_warning_is_attributed_to_the_caller():
    text = "dfa v1\nalphabet 01\nstates 2\nstart 0\naccept 0\n0 0 0\n0 1 0\n1 0 1\n1 1 1\n"
    for complete in (False, True):
        with pytest.warns(TrimWarning) as record:
            parse_dfa(text, complete=complete)
        assert [w.filename for w in record] == [__file__]


def test_word_forms():
    assert format_word("") == "@"
    assert format_word("01") == "01"
    assert parse_word("@") == ""
    assert parse_word("01") == "01"
    assert formats._read_words("# words\n@\n0\n\n11\n", "01") == ["", "0", "11"]


def test_serialization_has_no_warnings_for_clean_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_dfa(ZSTAR_TEXT)


# tokens int() accepts that a digit-only reader would not, ids out of range,
# non-ASCII digits and symbols of more than one character
ODD_TOKENS = ("+1", "1_0", "-1", "007", "9", "\u0661", "\uff11", "\u00b2", "0x1", "01", "ab", "\u00e9")
BAD_HEADERS = ("dfa  v1", "dfa v2", "DFA v1", "dfa", "dfa v1 x")


@st.composite
def dfa_texts(draw):
    """``dfa v1`` text of a complete table, reshuffled, decorated and often mutated.

    The table may leave states unreachable, which the parsers trim with a warning.
    """
    alphabet = draw(st.sampled_from(["01", "012", "ab"]))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    accepting = " ".join(str(q) for q in range(n) if draw(st.booleans())) or "-"
    lines = ["dfa v1", f"alphabet {alphabet}", f"states {n}", f"start {draw(state)}",
             f"accept {accepting}"]
    lines += draw(st.permutations([f"{q} {sym} {draw(state)}" for q in range(n) for sym in alphabet]))
    ids = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(ODD_TOKENS))
    symbols = st.one_of(st.sampled_from(alphabet), st.sampled_from(ODD_TOKENS))
    transition = st.tuples(ids, symbols, ids).map(" ".join)
    wrong_count = st.sampled_from([2, 4]).flatmap(lambda k: st.lists(ids, min_size=k, max_size=k))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([
            "transition", "drop", "duplicate", "transition", "fields", "states"]))
        if kind == "states":
            # declared states nothing leads to: missing rows, or unreachable ones
            lines[2] = f"states {n + draw(st.integers(1, 3))}"
        elif kind in ("drop", "duplicate"):
            i = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))  # shrinks off the header
            if kind == "drop":
                del lines[i]
            else:
                lines.insert(i, lines[i])
        else:
            i = draw(st.integers(5, len(lines)))
            line = draw(transition) if kind == "transition" else " ".join(draw(wrong_count))
            lines[i:i + draw(st.integers(0, 1))] = [line]
    if draw(st.integers(0, 9)) == 9:
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    out = []
    for line in lines:
        if draw(st.integers(0, 5)) == 5:
            out.append(draw(st.sampled_from(["", "   ", "# a comment", "\t# indented comment"])))
        if line != lines[0]:
            line = draw(st.sampled_from([" ", "  ", "\t"])).join(line.split())
        pad = draw(st.sampled_from(["", " ", "\t"]))
        note = draw(st.sampled_from(["", "", "# note", " #x 1 2"]))
        out.append(pad + line + pad + note)
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + "\n"


def parse_outcome(parse, text, complete):
    """The machine or the error text, and the warning messages, of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, complete=complete)
        except DfaFormatError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=400, deadline=None)
@given(dfa_texts(), st.booleans())
def test_parser_matches_the_line_by_line_reference(text, complete):
    assert parse_outcome(parse_dfa, text, complete) == parse_outcome(parse_dfa_by_lines, text, complete)
    m, _ = parse_outcome(parse_dfa, text, complete)
    if isinstance(m, Dfa):
        # parse_dfa skips the Dfa checks, so its machine must pass them
        checked = Dfa(m.alphabet, m.start, m.accepting, m.delta)
        assert checked == m
        assert type(m.accepting) is frozenset
        assert type(m.delta) is tuple and all(type(row) is tuple for row in m.delta)


def relabeled(d, alphabet):
    """``d`` with its alphabet positions renamed to the symbols of ``alphabet``."""
    return Dfa._unchecked(alphabet, d.start, d.accepting, d.delta)


def text_variants(d):
    """``serialize_dfa(d)`` and copies of it mutated once, each with a name.

    Each mutation breaks one property of the canonical layout: some keep the
    machine, some make an error, and one adds a state nothing reaches.
    """
    text = serialize_dfa(d)
    *head, rest = text.split("\n", 5)
    body = rest.splitlines()
    n, k = d.n_states, len(d.alphabet)
    src, sym, dst = body[-1].split()

    def join(lines, header=head):
        return "\n".join(header + lines) + "\n"

    yield "canonical", text
    yield "truncated", join(body[:-1])
    yield "duplicated line", join(body[:1] + body)
    yield "duplicated last line", join(body + body[-1:])
    yield "extra unreachable state", join(body + [f"{n} {a} {n}" for a in sorted(d.alphabet)],
                                          head[:2] + [f"states {n + 1}"] + head[3:])
    yield "bad target", join(body[:-1] + [f"{src} {sym} {n}"])
    yield "bad symbol", join(body[:-1] + [f"{src} # {dst}"])
    yield "symbols out of order", join(body[:-2] + body[-2:][::-1])
    yield "rows out of order", join(body[-k:] + body[:-k])
    yield "last row dropped", join(body[:-k])
    swapped = body[:]
    swapped[k - 1], swapped[-1] = swapped[-1], swapped[k - 1]
    yield "lines of two rows swapped", join(swapped)
    yield "leading zero source", join(body[:-1] + [f"0{src} {sym} {dst}"])
    yield "leading zero target", join(body[:-1] + [f"{src} {sym} 0{dst}"])
    yield "CRLF", text.replace("\n", "\r\n")
    yield "trailing comment", text + "# end\n"
    yield "comment on a line", join(body[:-1] + [body[-1] + " # last"])
    yield "tab", join(body[:-1] + [body[-1].replace(" ", "\t", 1)])
    yield "shuffled lines", join(body[::-1])
    yield "no final newline", text[:-1]
    yield "blank line", join(body[:1] + [""] + body[1:])


def assert_parses_like_the_line_by_line_reference(d):
    for name, text in text_variants(d):
        for complete in (False, True):
            got = parse_outcome(parse_dfa, text, complete)
            assert got == parse_outcome(parse_dfa_by_lines, text, complete), (name, complete, text)


def test_column_reader_matches_the_line_by_line_reference_on_small_machines(suite3):
    for i, d in enumerate(suite3):
        if i % 40 == 0:
            for alphabet in ("01", "ba", "\u0100\u0a41"):
                assert_parses_like_the_line_by_line_reference(relabeled(d, alphabet))
        else:
            assert parse_dfa(serialize_dfa(d)) == d


@settings(deadline=None)
@given(st.sampled_from(["0", "01", "ba", "\u0100\u0a41", "c\u00e9a"]).flatmap(lambda a: dfas(6, a)))
def test_column_reader_matches_the_line_by_line_reference(d):
    assert_parses_like_the_line_by_line_reference(d)


@pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029", "\n\r", "\n\n"])
def test_every_line_break_of_splitlines_reads_like_the_reference(brk):
    text = serialize_dfa(fixtures.onezstar())
    for variant in (text.replace("\n", brk), text.replace("\n", brk, 3), text.replace("\n", brk, 5),
                    text.replace("\n", brk, 6), text.replace("\n", "!" + brk, 4),
                    (text + "9 0 0\n").replace("\n", brk)):
        for complete in (False, True):
            assert parse_outcome(parse_dfa, variant, complete) == \
                parse_outcome(parse_dfa_by_lines, variant, complete), (brk, variant)


def random_machine(seed, n, alphabet):
    """The reachable part of a random table on ``n`` states."""
    rng = random.Random(seed)
    delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
    d, _ = trim(alphabet, 0, frozenset(q for q in range(n) if rng.random() < 0.5), delta)
    return d


# a % in a symbol must be escaped in the format; a symbol above U+FFFF is one
# character however it is stored
@pytest.mark.parametrize("alphabet", ["01", "012", "1%0", "\U0001d51eb"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_writer_matches_the_line_by_line_reference(alphabet, data):
    d = data.draw(dfas(max_states=6, alphabet=alphabet))
    assert serialize_dfa(d) == serialize_dfa_by_lines(d)


def test_writer_matches_the_line_by_line_reference_at_size():
    for alphabet in ("%b", "c\U0001d51ea"):
        d = random_machine(3, 3000, alphabet)
        assert serialize_dfa(d) == serialize_dfa_by_lines(d)


@pytest.mark.parametrize("chunk", [6, 17, 64, 1 << 10])
def test_rows_split_across_chunks_read_the_same(monkeypatch, chunk):
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    for alphabet in ("01", "cab"):
        assert_parses_like_the_line_by_line_reference(random_machine(chunk, 300, alphabet))


def test_canonical_text_never_enters_the_per_line_loop(monkeypatch, suite2):
    calls = []
    read_lines = formats._read_lines

    def counted(*args):
        calls.append(args)
        return read_lines(*args)

    monkeypatch.setattr(formats, "_read_lines", counted)
    big = random_machine(3, 2_000, "ba")
    for d in (*suite2, big, relabeled(big, "\u0a41\u0100"), sigma_upto(0), sigma_upto(40, "012")):
        assert parse_dfa(serialize_dfa(d)) == d
    # nor does canonical text with a state nothing reaches, or read with complete=True
    for text, complete in ((dict(text_variants(big))["extra unreachable state"], False),
                           (serialize_dfa(big), True)):
        assert parse_outcome(parse_dfa, text, complete) == parse_outcome(parse_dfa_by_lines, text, complete)
    assert calls == []
    # any other text is read line by line
    parse_dfa(serialize_dfa(big).replace("\n", "\r\n"))
    assert len(calls) == 1


def header_variants(d):
    """``serialize_dfa(d)`` with one header line rewritten, each with a name.

    Some rewrites keep the header's meaning in another spelling, some break a
    header check, and some only leave the layout :func:`serialize_dfa` writes.
    """
    text = serialize_dfa(d)
    head = text.split("\n", 5)[:5]
    body = text.split("\n", 5)[5]
    n = d.n_states
    acc = sorted(d.accepting)

    def swap(i, line):
        lines = head[:]
        lines[i] = line
        return "\n".join(lines) + "\n" + body

    for token in ("0" + str(n), "+" + str(n), "٠" * 2 + str(n)):
        yield f"states {token}", swap(2, f"states {token}")
    for token in ("0" + str(d.start), "+" + str(d.start), "١" if n > 1 else "٠"):
        yield f"start {token}", swap(3, f"start {token}")
    for token in ("0" + str(acc[0]), "+" + str(acc[0]), "١"):
        yield f"accept {token}", swap(4, f"accept {token}")
    yield "accept unsorted", swap(4, "accept " + " ".join(map(str, acc[::-1])))
    yield "accept duplicate", swap(4, "accept " + " ".join(map(str, acc + acc)))
    yield "accept out of range", swap(4, f"accept {acc[0]} {n}")
    yield "accept no ids", swap(4, "accept")
    yield "accept - 1", swap(4, "accept - 1")
    yield "accept two spaces", swap(4, "accept " + "  ".join(map(str, acc)))
    yield "states 0", swap(2, "states 0")
    yield "start out of range", swap(3, f"start {n}")
    for alphabet in (d.alphabet + "@", d.alphabet + "#", d.alphabet + d.alphabet[0]):
        yield f"alphabet {alphabet}", swap(1, f"alphabet {alphabet}")
    for i in range(5):
        yield f"comment on line {i + 1}", swap(i, head[i] + " # note")
        yield f"trailing blank on line {i + 1}", swap(i, head[i] + " ")
        yield f"tab on line {i + 1}", swap(i, head[i].replace(" ", "\t"))
    yield "CRLF header", "\r\n".join(head) + "\r\n" + body
    yield "lone CR header", "\r".join(head) + "\r" + body
    yield "CRLF after accept", "\n".join(head) + "\r\n" + body
    # accept lines in the canonical layout that the bulk conversion must reject as the line reader does
    yield "accept 20,000 ids, the last out of range", swap(4, "accept " + " ".join(map(str, [acc[0]] * 19_999 + [n])))
    yield "accept out of range before 1-", swap(4, f"accept {acc[0]} {n} 1-")
    yield "accept 1- before out of range", swap(4, f"accept {acc[0]} 1- {n}")
    yield "accept -1", swap(4, f"accept {acc[0]} -1")
    yield "accept 5,000 digits", swap(4, "accept " + "0" * 4_999 + "1")


def test_header_variants_read_like_the_line_by_line_reference():
    d = Dfa("01", 1, frozenset({0, 2}), ((1, 2), (2, 0), (0, 0)))
    for name, text in header_variants(d):
        for complete in (False, True):
            got = parse_outcome(parse_dfa, text, complete)
            assert got == parse_outcome(parse_dfa_by_lines, text, complete), (name, complete, text)


def test_canonical_header_is_matched_without_the_line_reader(monkeypatch, suite2):
    calls = []
    logical_lines = formats._logical_lines

    def counted(text):
        calls.append(text)
        return logical_lines(text)

    monkeypatch.setattr(formats, "_logical_lines", counted)
    big = random_machine(3, 2_000, "ba")
    texts = [serialize_dfa(d) for d in (*suite2, big, sigma_upto(40, "012"))]
    for text in texts:
        parse_dfa(text)
    assert calls == []
    for text in texts:
        calls.clear()
        head, rest = text.split("\nstart ", 1)
        assert parse_dfa(head + " # declared\nstart " + rest) == parse_dfa(text)
        assert len(calls) == 1
    # a canonical-layout header that fails a check is read once, by the one set of checks
    head = "dfa v1\nalphabet {}\nstates {}\nstart {}\naccept {}\n"
    body = "0 0 1\n0 1 2\n1 0 2\n1 1 0\n2 0 0\n2 1 0\n"
    for fields in (("01", "0", "0", "0"), ("01", "3", "3", "0"), ("01", "3", "1", "0 9"),
                   ("0@", "3", "1", "0"), ("00", "3", "1", "0"), ("01", "5" * 5_000, "1", "0")):
        text = head.format(*fields) + body
        with pytest.raises(DfaFormatError) as want:
            parse_dfa_by_lines(text)
        calls.clear()
        with pytest.raises(DfaFormatError) as got:
            parse_dfa(text)
        assert str(got.value) == str(want.value), fields
        assert calls == [], fields
