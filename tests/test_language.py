import pytest
from hypothesis import given

from fdfa import fixtures
from fdfa.core import AlphabetMismatchError, Dfa
from fdfa.language import (
    EMPTY,
    FINITE,
    INFINITE,
    InfiniteLanguageError,
    classify_language,
    enumerate_finite_language,
    languages_equal,
    shortlex_key,
    symmetric_difference,
)

from conftest import dfas


def test_shortlex_orders_by_length_then_characters():
    words = ["1", "", "01", "0", "10", "00"]
    assert sorted(words, key=shortlex_key) == ["", "0", "1", "00", "01", "10"]


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
    assert enumerate_finite_language(d) == ["0", "11"]
    assert enumerate_finite_language(fixtures.empty()) == []


def test_enumerate_refuses_infinite_language():
    with pytest.raises(InfiniteLanguageError) as info:
        enumerate_finite_language(fixtures.zstar())
    assert info.value.witness.pump


def test_symmetric_difference_finite():
    diff = symmetric_difference(fixtures.sigplus(), fixtures.all_words())
    assert diff.kind == FINITE
    assert diff.words == ("",)
    assert diff.finite


def test_symmetric_difference_equal_languages():
    a = fixtures.zstar()
    diff = symmetric_difference(a, a)
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
