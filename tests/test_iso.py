import pytest

import fdfa.core
from fdfa.core import AlphabetMismatchError, Dfa
from fdfa.fmin import f_minimize, flip_finite_acceptance, is_f_minimal
from fdfa.iso import (
    FINITE_PART,
    INFINITE_PART,
    StateBijection,
    finite_part_iso,
    infinite_part_iso,
    verify_bijection,
)
from fdfa.minimize import moore_blocks

import machines as fixtures
from conftest import count_calls
from reference import iso_from_representatives


def test_infinite_part_iso_zstar_onezstar():
    bij = infinite_part_iso(fixtures.zstar(), fixtures.onezstar())
    assert bij is not None
    assert bij.part == INFINITE_PART
    assert bij.mapping == ((0, 1), (1, 2))
    assert dict(bij.mapping) == {0: 1, 1: 2}
    ok, reason = verify_bijection(fixtures.zstar(), fixtures.onezstar(), bij)
    assert ok and reason is None


def test_infinite_part_iso_odd_even():
    bij = infinite_part_iso(fixtures.odd_length(), fixtures.even_length())
    assert bij is not None
    assert bij.mapping == ((0, 1), (1, 0))


def test_infinite_part_iso_failure():
    assert infinite_part_iso(fixtures.zstar(), fixtures.all_words()) is None


def test_infinite_part_iso_requires_minimized_inputs():
    redundant = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    with pytest.raises(ValueError, match="not minimized"):
        infinite_part_iso(redundant, fixtures.zstar())
    with pytest.raises(ValueError, match="not minimized"):
        infinite_part_iso(fixtures.zstar(), redundant)


def test_infinite_part_iso_runs_one_moore_partition(monkeypatch):
    calls = count_calls(monkeypatch, moore_blocks)
    redundant = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    pairs = [
        (fixtures.zstar(), fixtures.onezstar()),
        (fixtures.odd_length(), fixtures.even_length()),
        (fixtures.zstar(), fixtures.all_words()),
    ]
    for a, b in pairs:
        infinite_part_iso(a, b)
    assert len(calls) == len(pairs)
    for a, b in [(redundant, fixtures.zstar()), (fixtures.zstar(), redundant)]:
        with pytest.raises(ValueError, match="not minimized"):
            infinite_part_iso(a, b)
    assert len(calls) == len(pairs) + 2


def test_infinite_part_iso_checks_the_alphabet_then_left_then_right():
    redundant = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    with pytest.raises(AlphabetMismatchError):
        infinite_part_iso(redundant, Dfa("ab", 0, {0, 1}, ((1, 1), (1, 1))))
    with pytest.raises(ValueError, match="left automaton is not minimized"):
        infinite_part_iso(redundant, redundant)


def test_verify_bijection_spots_acceptance_mismatch():
    # map the accepting loop of 0* onto the rejecting sink and vice versa
    wrong = StateBijection(INFINITE_PART, ((0, 2), (1, 1)))
    ok, reason = verify_bijection(fixtures.zstar(), fixtures.onezstar(), wrong)
    assert not ok
    assert "acceptance" in reason


def test_verify_bijection_spots_broken_transitions():
    zero = fixtures.finite_language_dfa(["0"])
    # swapping the two finite-part states of the {'0'} machine breaks commutation
    wrong = StateBijection(FINITE_PART, ((0, 1), (1, 0)))
    ok, reason = verify_bijection(zero, zero, wrong)
    assert not ok
    assert "transition mismatch" in reason
    right = StateBijection(FINITE_PART, ((0, 0), (1, 1)))
    assert verify_bijection(zero, zero, right) == (True, None)


def test_verify_bijection_checks_the_alphabets():
    table = ((0, 0),)
    bij = StateBijection(INFINITE_PART, ((0, 0),))
    for a, b in [(Dfa("01", 0, {0}, table), Dfa("ab", 0, {0}, table)),
                 (Dfa("012", 0, {0}, ((0, 0, 0),)), Dfa("01", 0, {0}, table))]:
        with pytest.raises(AlphabetMismatchError, match="alphabets differ: "):
            verify_bijection(a, b, bij)


def test_verify_bijection_rejects_malformed_domain():
    bij = StateBijection(INFINITE_PART, ((0, 1),))
    with pytest.raises(ValueError, match="domain"):
        verify_bijection(fixtures.zstar(), fixtures.onezstar(), bij)


def test_iso_from_representatives_transports_states():
    bij, reps = iso_from_representatives(fixtures.sigplus(), fixtures.all_words())
    assert bij.mapping == ((1, 0),)
    assert reps.threshold == 2
    assert reps.word_for(1) == "000"
    assert len(reps.word_for(1)) > reps.threshold
    # the representative word really reaches the state it stands for
    assert fixtures.sigplus().run("000") == 1


def test_iso_from_representatives_agrees_with_language_matching():
    oz = fixtures.onezstar()
    flipped = flip_finite_acceptance(oz, {0})
    bij, _ = iso_from_representatives(oz, flipped)
    assert bij.mapping == infinite_part_iso(oz, flipped).mapping == ((1, 1), (2, 2))


def test_iso_from_representatives_requires_finite_difference():
    with pytest.raises(ValueError, match="not finitely different"):
        iso_from_representatives(fixtures.zstar(), fixtures.onezstar())


def test_finite_part_iso_identity_under_flips():
    oz = fixtures.onezstar()
    flipped = flip_finite_acceptance(oz, {0})
    bij = finite_part_iso(oz, flipped)
    assert bij.part == FINITE_PART
    assert bij.mapping == ((0, 0),)


def test_finite_part_iso_between_fminimize_orders():
    zero = fixtures.finite_language_dfa(["0"])
    a, _ = f_minimize(zero)
    b, _ = f_minimize(zero, order="reversed")
    bij = finite_part_iso(a, b)
    assert bij.mapping == ()  # both finite parts are empty


def test_finite_part_iso_requires_f_minimal_inputs():
    with pytest.raises(ValueError, match="not f-minimal"):
        finite_part_iso(fixtures.sigplus(), fixtures.all_words())


def test_finite_part_iso_checks_left_then_right_then_the_alphabet():
    other = Dfa("ab", 0, {0}, ((0, 0),))
    with pytest.raises(ValueError, match="left automaton is not f-minimal"):
        finite_part_iso(fixtures.sigplus(), other)
    with pytest.raises(ValueError, match="right automaton is not f-minimal"):
        finite_part_iso(other, fixtures.sigplus())
    with pytest.raises(AlphabetMismatchError):
        finite_part_iso(fixtures.all_words(), other)


def test_finite_part_iso_requires_finitely_different_inputs():
    with pytest.raises(ValueError, match="not finitely different"):
        finite_part_iso(fixtures.onezstar(), fixtures.zstar())


def test_finite_part_iso_builds_no_product(monkeypatch):
    import fdfa.core

    calls = count_calls(monkeypatch, fdfa.core.product_xor)
    oz = fixtures.onezstar()
    assert finite_part_iso(oz, flip_finite_acceptance(oz, {0})).mapping == ((0, 0),)
    assert calls == []
    with pytest.raises(ValueError, match="automata are not finitely different"):
        finite_part_iso(fixtures.zstar(), fixtures.onezstar())


def test_part_isos_raise_the_alphabet_mismatch_error():
    other = Dfa("ab", 0, {0}, ((0, 0),))
    for iso in (infinite_part_iso, finite_part_iso):
        with pytest.raises(AlphabetMismatchError, match="alphabets differ"):
            iso(fixtures.all_words(), other)


def f_minimal_chain():
    """Σ^{≤5} ∪ Σ^5·1·0*: six finite-part states, no two of them finitely different."""
    delta = tuple((q + 1, q + 1) for q in range(5)) + ((7, 6), (6, 7), (7, 7))
    return Dfa("01", 0, frozenset(range(7)), delta)


def test_finite_part_iso_analyses_the_union_once(monkeypatch):
    d = f_minimal_chain()
    assert is_f_minimal(d) == (True, None)
    flipped = flip_finite_acceptance(d, {1, 3, 5})
    blocks = count_calls(monkeypatch, moore_blocks)
    peels = count_calls(monkeypatch, fdfa.core._peel)
    assert finite_part_iso(d, flipped).mapping == tuple((q, q) for q in range(6))
    # one refinement and one peel of the union, which the verification reads too
    assert len(blocks) == 1
    assert len(peels) == 1


def test_infinite_part_iso_analyses_the_union_once(monkeypatch):
    d = f_minimal_chain()
    flipped = flip_finite_acceptance(d, {1, 3, 5})
    blocks = count_calls(monkeypatch, moore_blocks)
    peels = count_calls(monkeypatch, fdfa.core._peel)
    assert infinite_part_iso(d, flipped).mapping == ((6, 6), (7, 7))
    assert len(blocks) == 1
    assert len(peels) == 1
