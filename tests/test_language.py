import contextlib
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfa.classes import state_class_partition
from fdfa.cli import main
from fdfa.core import (
    AlphabetMismatchError,
    Dfa,
    induce,
    product_xor,
    shortest_cycle_word,
    states_on_cycles,
    states_reaching,
    strongly_connected_components,
    trim,
)
from fdfa.fmin import flip_finite_acceptance
from fdfa.formats import parse_dfa, serialize_dfa
from fdfa.language import (
    EMPTY,
    FINITE,
    INFINITE,
    _count_words,
    _list_text,
    classify_language,
    languages_equal,
    symmetric_difference,
    useful_states,
)
from fdfa.parts import compute_parts, words_reaching

import machines as fixtures
from conftest import count_calls, dfas, sigma_upto, structured_machines, trie_on_kernel
from oracle import oracle_diff
from reference import count_words_by_search, language_kind_by_cycles, list_words_by_prefixes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_shortlex_orders_by_length_then_characters():
    d = fixtures.finite_language_dfa(["1", "", "01", "0", "10", "00"])
    assert classify_language(d).words == ("", "0", "1", "00", "01", "10")


def test_classify_empty():
    c = classify_language(fixtures.empty())
    assert c.kind == EMPTY
    assert c.witness is None


def test_classify_finite_language():
    d = fixtures.finite_language_dfa(["0", "11"])
    c = classify_language(d)
    assert c.kind == FINITE


def test_classify_infinite_gives_pumpable_witness():
    c = classify_language(fixtures.zstar())
    assert c.kind == INFINITE
    assert c.words is None and c.text is None and c.n_words is None
    lasso = c.witness
    assert lasso.pump
    d = fixtures.zstar()
    for k in range(4):
        assert d.accepts(lasso.word(k))


@given(dfas(max_states=5))
def test_classify_witness_is_sound(d):
    c = classify_language(d)
    if c.kind == EMPTY:
        assert not any(d.accepts(w) for w in ("", "0", "1", "00", "01", "10", "11"))
    elif c.kind == INFINITE:
        for k in range(3):
            assert d.accepts(c.witness.word(k))


def test_enumerate_finite_language():
    d = fixtures.finite_language_dfa(["11", "0"])
    assert classify_language(d).words == ("0", "11")
    assert classify_language(fixtures.empty()).words == ()


def test_symmetric_difference_finite():
    diff = symmetric_difference(fixtures.sigplus(), fixtures.all_words())
    assert diff.kind == FINITE
    assert diff.words == ("",)
    assert diff.finite


def test_symmetric_difference_equal_languages():
    a = fixtures.zstar()
    diff = symmetric_difference(a, a)
    assert diff.kind == EMPTY
    assert diff.finite
    assert diff.words == ()


def test_symmetric_difference_classifies_the_product_once(monkeypatch):
    import fdfa.language

    calls = []

    def counted(d):
        calls.append(d)
        return classify_language(d)

    monkeypatch.setattr(fdfa.language, "classify_language", counted)
    diff = symmetric_difference(fixtures.sigplus(), fixtures.all_words())
    assert diff.words == ("",)
    assert len(calls) == 1


def test_a_finite_verdict_and_its_count_list_no_word(monkeypatch):
    import fdfa.language

    def refuse(*args):
        raise AssertionError("a word was listed")

    monkeypatch.setattr(fdfa.language, "_list_text", refuse)
    diff = symmetric_difference(sigma_upto(60), Dfa("01", 0, frozenset(), ((0, 0),)))
    assert diff.finite
    assert diff.kind == FINITE
    assert diff.n_words == 2 ** 61 - 1


def test_an_infinite_verdict_builds_its_lasso_once_and_only_when_read(monkeypatch):
    import fdfa.language

    calls = []

    def counted(d, q):
        calls.append(q)
        return shortest_cycle_word(d, q)

    monkeypatch.setattr(fdfa.language, "shortest_cycle_word", counted)
    diff = symmetric_difference(fixtures.odd_length(), fixtures.even_length())
    assert diff.kind == INFINITE
    assert calls == []
    assert diff.witness is diff.witness
    assert len(calls) == 1


def test_peeled_verdict_matches_the_cycle_rule_on_xor_products(suite2, suite3):
    # every pair of machines of at most 2 states, and each machine of at most
    # 3 states against a partner spread over the whole suite
    pairs = [(a, b) for a in suite2 for b in suite2]
    pairs += [(a, suite3[(7919 * i + 1) % len(suite3)]) for i, a in enumerate(suite3)]
    for a, b in pairs:
        prod = product_xor(a, b).dfa
        assert classify_language(prod).kind == language_kind_by_cycles(prod), (a, b)


def test_peeled_verdict_matches_the_cycle_rule(suite3):
    for d in (*suite3, *structured_machines()):
        assert classify_language(d).kind == language_kind_by_cycles(d), d
    for d in structured_machines():
        empty = Dfa(d.alphabet, 0, frozenset(), ((0,) * len(d.alphabet),))
        prod = product_xor(d, empty).dfa
        assert classify_language(prod).kind == language_kind_by_cycles(prod), d


def test_a_verdict_finds_no_strongly_connected_components(monkeypatch, capsys):
    calls = count_calls(monkeypatch, strongly_connected_components)
    assert symmetric_difference(sigma_upto(30), fixtures.empty()).kind == FINITE
    diff = symmetric_difference(fixtures.odd_length(), fixtures.even_length())
    assert diff.kind == INFINITE
    assert main(["findiff", str(FIXTURES / "zstar.dfa"), str(FIXTURES / "onezstar.dfa")]) == 1
    assert main(["findiff", str(FIXTURES / "sigplus.dfa"), str(FIXTURES / "all.dfa")]) == 0
    assert capsys.readouterr().out == "not-finitely-different\nfinitely-different\n"
    assert calls == []
    # the lasso names the smallest useful state on a cycle, so it still needs them
    assert diff.witness is not None
    assert len(calls) >= 1


FIXTURE_PAIRS = [("zstar", "onezstar"), ("sigplus", "all"), ("odd", "even"),
                 ("empty", "empty"), ("zstar", "all")]


def random_pair(tmp_path):
    """The reachable part of a random 2-symbol table on 20,000 states (15,981
    states), written beside a copy with one infinite-part state flipped."""
    rng = random.Random(16_000)
    n = 20_000
    delta = tuple(tuple(rng.randrange(n) for _ in "01") for _ in range(n))
    d, _ = trim("01", 0, frozenset(q for q in range(n) if rng.random() < 0.5), delta)
    flipped = Dfa(d.alphabet, d.start, d.accepting ^ {max(compute_parts(d).infinite)}, d.delta)
    paths = tmp_path / "big.dfa", tmp_path / "flipped.dfa"
    for path, m in zip(paths, (d, flipped)):
        path.write_text(serialize_dfa(m))
    return d, flipped, paths


def test_a_verdict_builds_no_backward_closure(monkeypatch, capsys, tmp_path):
    big, flipped, (big_path, flipped_path) = random_pair(tmp_path)
    assert big.n_states == 15_981
    calls = count_calls(monkeypatch, states_reaching)
    for pair in FIXTURE_PAIRS:
        paths = [str(FIXTURES / f"{name}.dfa") for name in pair]
        a, b = (parse_dfa(Path(path).read_text()) for path in paths)
        kind = symmetric_difference(a, b).kind
        assert languages_equal(a, b) == (kind == EMPTY)
        assert main(["findiff", *paths]) == (kind == INFINITE)
    assert symmetric_difference(big, flipped).kind == INFINITE
    assert not languages_equal(big, flipped)
    assert main(["findiff", str(big_path), str(big_path)]) == 0
    assert main(["findiff", str(big_path), str(flipped_path)]) == 1
    capsys.readouterr()
    assert calls == []
    # listing a finite difference needs the useful states, once
    assert main(["diff", str(FIXTURES / "sigplus.dfa"), str(FIXTURES / "all.dfa")]) == 0
    assert capsys.readouterr().out == "finite 1\n@\n"
    assert len(calls) == 1


def test_symmetric_difference_infinite_with_pumpable_witness():
    a, b = fixtures.odd_length(), fixtures.even_length()
    diff = symmetric_difference(a, b)
    assert diff.kind == INFINITE
    assert not diff.finite
    lasso = diff.witness
    for k in range(4):
        w = lasso.word(k)
        assert a.accepts(w) != b.accepts(w)


def test_symmetric_difference_needs_shared_alphabet():
    with pytest.raises(AlphabetMismatchError):
        symmetric_difference(fixtures.zstar(), Dfa("ab", 0, {0}, ((0, 0),)))


def test_languages_equal():
    assert languages_equal(fixtures.odd_length(), fixtures.odd_length())
    assert not languages_equal(fixtures.odd_length(), fixtures.even_length())
    assert not languages_equal(fixtures.sigplus(), fixtures.all_words())


@given(dfas(), dfas())
def test_diff_words_are_exactly_the_disagreements(a, b):
    diff = symmetric_difference(a, b)
    if diff.finite:
        claimed = set(diff.words)
        for w in claimed:
            assert a.accepts(w) != b.accepts(w)
        # short disagreements not in the list must not exist
        for w in ("", "0", "1", "00", "01", "10", "11", "000", "111"):
            if w not in claimed:
                assert a.accepts(w) == b.accepts(w)


def assert_count_matches_listing(d, useful, targets):
    n = _count_words(d.delta, d.start, useful, targets)
    assert n == count_words_by_search(d.delta, d.start, useful, targets)
    # a listing can be exponentially long; compare only those that stay small
    if n <= 2 ** 14:
        assert n == _list_text(d, useful, targets).count("\n")


@given(dfas(max_states=6))
@settings(max_examples=60, deadline=None)
def test_count_words_matches_the_listing(d):
    # X: the words reaching a finite-part state
    for p in compute_parts(d).finite:
        assert_count_matches_listing(d, states_reaching(d.delta, {p}), {p})
    # Z: the difference of two finitely different states
    for cls in state_class_partition(d).classes:
        for p in cls:
            for q in cls:
                if p != q:
                    prod = product_xor(induce(d, p), induce(d, q)).dfa
                    assert_count_matches_listing(prod, useful_states(prod), prod.accepting)


def test_count_words_matches_the_search_beyond_the_listing():
    # 3^30 words reach the last state of the Σ^{≤30} chain, far too many to list
    d = sigma_upto(30, "012")
    useful = states_reaching(d.delta, {30})
    assert_count_matches_listing(d, useful, {30})
    assert count_words_by_search(d.delta, d.start, useful, {30}) == 3 ** 30


def shortlex_oracle(a, b):
    # every word of a finite difference is shorter than the product's state count
    return sorted(oracle_diff(a, b, a.n_states * b.n_states), key=lambda w: (len(w), w))


@pytest.mark.parametrize("alphabet", ["10", "ba"])
def test_words_are_listed_in_shortlex_order_whatever_the_alphabet_order(alphabet):
    chain = sigma_upto(4, alphabet)
    empty = Dfa(alphabet, 0, frozenset(), ((0, 0),))
    words = symmetric_difference(chain, empty).words
    assert list(words) == shortlex_oracle(chain, empty)
    assert classify_language(chain).words == words


# the oracle simulates all 2^(n·m + 1) words up to the bound, so n, m <= 3
@given(dfas(max_states=3, alphabet="ba"), dfas(max_states=3, alphabet="ba"))
@settings(max_examples=60, deadline=None)
def test_difference_words_come_out_in_shortlex_order(a, b):
    diff = symmetric_difference(a, b)
    if diff.finite:
        assert list(diff.words) == shortlex_oracle(a, b)


def assert_lists_like_the_prefix_search(d, useful, targets):
    expected = "".join(w + "\n" for w in list_words_by_prefixes(d, useful, targets))
    assert _list_text(d, useful, targets) == expected


def assert_difference_lists_like_the_prefix_search(a, b):
    prod = product_xor(a, b).dfa
    useful = useful_states(prod)
    assert not useful & states_on_cycles(prod.delta), "the difference must be finite"
    assert_lists_like_the_prefix_search(prod, useful, prod.accepting)


def even_ones_upto(m):
    """Words of length at most m with an even number of 1s.

    State 2·L + p is reached by the words of length L whose count of 1s has
    parity p; from length 2 on, two edges enter every state.
    """
    sink = 2 * (m + 1)
    delta = [(sink, sink)] * (sink + 1)
    for q in range(2 * m):
        up = 2 * (q // 2 + 1)
        delta[q] = (up + q % 2, up + 1 - q % 2)
    d, _ = trim("01", 0, range(0, sink, 2), delta)
    return d


@st.composite
def finite_language_dfas(draw, alphabet, max_states=7):
    """Random machine whose state q steps only to higher ids; state n is a sink."""
    n = draw(st.integers(1, max_states))
    delta = [tuple(draw(st.integers(q + 1, n)) for _ in alphabet) for q in range(n)]
    delta.append((n,) * len(alphabet))
    return trim(alphabet, 0, draw(st.sets(st.integers(0, n - 1))), delta)[0]


@given(st.sampled_from(["ba", "201", "Āੁ"]).flatmap(
    lambda alphabet: st.tuples(finite_language_dfas(alphabet), finite_language_dfas(alphabet))))
@settings(max_examples=150, deadline=None)
def test_grouped_listing_matches_the_prefix_search_on_finite_differences(pair):
    assert_difference_lists_like_the_prefix_search(*pair)


def test_grouped_listing_matches_the_prefix_search_on_finite_parts(suite3):
    for d in suite3:
        for q in compute_parts(d).finite:
            assert words_reaching(d, q) == list_words_by_prefixes(
                d, states_reaching(d.delta, {q}), {q}
            )


# "Āੁ" lists four bytes a symbol; U+0100 U+0A41 holds the bytes of a newline
@pytest.mark.parametrize("alphabet", ["10", "ba", "012", "Āੁ", "αβγ"])
def test_grouped_listing_matches_the_prefix_search_on_full_chains(alphabet):
    for m in range(7):
        empty = Dfa(alphabet, 0, frozenset(), ((0,) * len(alphabet),))
        assert_difference_lists_like_the_prefix_search(sigma_upto(m, alphabet), empty)


def test_grouped_listing_matches_the_prefix_search_on_parity():
    d = even_ones_upto(10)
    assert_lists_like_the_prefix_search(d, useful_states(d), d.accepting)
    assert _list_text(d, useful_states(d), d.accepting).count("\n") == 2 ** 11 // 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouped_listing_matches_the_prefix_search_on_tries(seed):
    # one word per (state, length) group: nothing merges
    d = trie_on_kernel(300, 14, 3, seed)
    flipped = flip_finite_acceptance(d, compute_parts(d).finite)
    assert_difference_lists_like_the_prefix_search(d, flipped)


def test_groups_fed_by_several_edges_are_merged_in_order():
    # level 2: state 3 holds 00, 11 and state 4 holds 01, 10; both enter
    # state 5 on 0, so its group arrives as 000 110 010 100 and needs a sort
    delta = ((1, 2), (3, 4), (4, 3), (5, 6), (5, 6), (6, 6), (6, 6))
    d = Dfa("01", 0, frozenset({3, 4, 5}), delta)
    words = ["00", "01", "10", "11", "000", "010", "100", "110"]
    assert _list_text(d, useful_states(d), d.accepting) == "".join(w + "\n" for w in words)
    assert_lists_like_the_prefix_search(d, useful_states(d), d.accepting)


def test_listing_a_full_chain_stays_within_its_memory_bound():
    # 65,535 words; the one-pair-per-prefix search peaks at 6.7-7.2 MiB
    chain, empty = sigma_upto(15), Dfa("01", 0, frozenset(), ((0, 0),))
    prod = product_xor(chain, empty).dfa
    useful = useful_states(prod)
    tracemalloc.start()
    try:
        text = _list_text(prod, useful, prod.accepting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 2 ** 16 - 1
    assert peak < 6 * 2 ** 20


class CountingSink:
    """A stdout that keeps only how many characters were written to it."""

    def __init__(self):
        self.n = 0

    def write(self, text):
        self.n += len(text)
        return len(text)


def test_the_diff_output_path_stays_within_its_memory_bound(tmp_path):
    # 65,535 words in 983,055 characters; one str per word peaks at 5.4-5.9 MiB
    chain, empty = tmp_path / "chain.dfa", tmp_path / "empty.dfa"
    chain.write_text(serialize_dfa(sigma_upto(15)))
    empty.write_text(serialize_dfa(Dfa("01", 0, frozenset(), ((0, 0),))))
    out = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["diff", str(chain), str(empty)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.n == len("finite 65535\n@\n") + 15 * 2 ** 16
    assert peak < 4 * 2 ** 20
