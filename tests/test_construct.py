import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfa.construct import ConstructionSpec, construct_pair
from fdfa.language import symmetric_difference
from fdfa.minimize import minimize
from fdfa.parts import compute_parts

from reference import dfas_finitely_different


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
    spec = ConstructionSpec.for_words(["11", "0", "0"], "01")
    assert spec.words == ("0", "11")
    assert spec.depth == 2


def test_wrap_copy_splits_on_first_symbol():
    spec = ConstructionSpec.for_words(["0"], "01")
    assert spec.wrap_copy("0") == 0
    assert spec.wrap_copy("1") == 1


def test_construction_needs_two_symbols():
    with pytest.raises(ValueError, match="at least two symbols"):
        construct_pair(["a"], "a")


def test_construction_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        construct_pair(["2"], "01")


@given(st.lists(st.text(alphabet="01", max_size=3), max_size=6))
@settings(max_examples=30, deadline=None)
def test_construction_realizes_any_finite_difference(words):
    left, right = construct_pair(words, "01")
    expected = tuple(sorted(set(words), key=lambda w: (len(w), w)))
    ok, diff = dfas_finitely_different(left, right)
    assert ok
    assert diff.words == expected
    assert compute_parts(left).finite == frozenset()
