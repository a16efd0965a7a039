import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdfa.construct import construct_pair
from fdfa.core import Dfa
from fdfa.formats import serialize_dfa
from fdfa.language import symmetric_difference
from fdfa.minimize import minimize
from fdfa.parts import compute_parts

from reference import construct_pair_by_prefixes, dfas_finitely_different


def test_pair_for_epsilon():
    left, right = construct_pair([""], "01")
    assert left.n_states == right.n_states == 2
    assert not left.accepts("")
    assert right.accepts("")
    diff = symmetric_difference(left, right)
    assert diff.words == ("",)


def test_pair_for_two_words():
    left, right = construct_pair(["0", "11"], "01")
    # states are (word of length <= 2, copy) pairs: 7 prefixes x 2 copies
    assert left.n_states == right.n_states == 14
    diff = symmetric_difference(left, right)
    assert diff.words == ("0", "11")


def test_pair_for_no_words_is_language_equal():
    left, right = construct_pair([], "01")
    assert left.n_states == 2
    diff = symmetric_difference(left, right)
    assert diff.finite
    assert diff.words == ()


def test_pair_has_empty_finite_part():
    left, right = construct_pair(["0", "11"], "01")
    assert compute_parts(left).finite == frozenset()
    assert compute_parts(right).finite == frozenset()


def test_difference_survives_minimization():
    left, right = construct_pair(["0", "11"], "01")
    diff = symmetric_difference(minimize(left), minimize(right))
    assert diff.words == ("0", "11")


def test_machines_agree_beyond_the_construction_depth():
    words = ["0", "11"]
    left, right = construct_pair(words, "01")
    n = max(map(len, words))
    from itertools import product

    for length in range(n + 1, n + 4):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            assert left.accepts(w) == right.accepts(w)


def test_starts_are_the_two_copies_of_the_root():
    left, right = construct_pair(["0"], "01")
    assert left.start == 0
    assert right.start == 1
    assert left.delta == right.delta
    assert left.accepting == right.accepting


def test_spec_normalizes_word_order_and_duplicates():
    expected = construct_pair(["0", "11"], "01")
    assert construct_pair(["11", "0", "0"], "01") == expected
    assert construct_pair(iter(["11", "11", "0"]), "01") == expected
    # depth 2: 7 prefixes x 2 copies
    assert expected[0].n_states == 14


def test_wrap_copy_splits_on_first_symbol():
    # depth 0: the root row wraps on the symbol read
    left, right = construct_pair([""], "01")
    assert left.delta == ((0, 1), (0, 1))
    left, right = construct_pair([], "ba")
    assert left.delta == ((0, 1), (0, 1))
    # depth 1: the words "0" (states 2, 3) and "1" (states 4, 5) wrap on their first symbol
    left, right = construct_pair(["0"], "01")
    assert left.delta[2:] == ((0, 0), (0, 0), (1, 1), (1, 1))


def test_construction_needs_two_symbols():
    with pytest.raises(ValueError, match="at least two symbols"):
        construct_pair(["a"], "a")


def test_construction_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        construct_pair(["2"], "01")


def test_construction_checks_in_a_fixed_order():
    # the shortlex-least bad word is named, neither the first given nor the
    # first in a set's hash order
    for words in (["2", "c"], ["c", "2"], ["zz", "9", *"cdefghijklmnop", "2"]):
        with pytest.raises(ValueError, match="'2'"):
            construct_pair(words, "01")
    # the alphabet is checked before any word
    with pytest.raises(ValueError, match="duplicate alphabet symbol"):
        construct_pair(["2"], "00")
    with pytest.raises(ValueError, match="at least two symbols"):
        construct_pair(["2"], "0")


@given(st.sampled_from(["01", "ba", "012", "cab"]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet),
                               st.lists(st.text(alphabet=alphabet, max_size=4), max_size=6))))
@example(("01", []))
@example(("ba", []))
@example(("012", []))
@example(("cab", []))
@settings(max_examples=200, deadline=None)
def test_construction_matches_the_prefix_numbering(case):
    alphabet, words = case
    words = words + words[:2]  # duplicates
    expected = construct_pair_by_prefixes(words, alphabet)
    got = construct_pair(words, alphabet)
    assert [serialize_dfa(d) for d in got] == [serialize_dfa(d) for d in expected]
    # the table is built unchecked: it passes every check a Dfa makes
    assert got == tuple(Dfa(d.alphabet, d.start, d.accepting, d.delta) for d in got)


@given(st.lists(st.text(alphabet="01", max_size=3), max_size=6))
@settings(max_examples=30, deadline=None)
def test_construction_realizes_any_finite_difference(words):
    left, right = construct_pair(words, "01")
    expected = tuple(sorted(set(words), key=lambda w: (len(w), w)))
    ok, diff = dfas_finitely_different(left, right)
    assert ok
    assert diff.words == expected
    assert compute_parts(left).finite == frozenset()
