from itertools import product

import pytest
from hypothesis import given

from fdfa.core import (
    AlphabetMismatchError,
    Dfa,
    check_alphabet,
    induce,
    product_xor,
    shortest_cycle_word,
    shortest_word_to,
    states_on_cycles,
    strongly_connected_components,
    trim,
)
from fdfa.classes import state_class_partition
from fdfa.fmin import f_minimize, flip_finite_acceptance, redirect_boundary_transition
from fdfa.minimize import minimize_with_map
from fdfa.parts import compute_parts, words_reaching

import machines as fixtures
from conftest import dfas
from reference import replay_merges


# each call names a state of 1·0* (states 0..2; 0 is its finite part, and 0
# enters 2 on 1) by the id it is given and keeps its other arguments valid
CALLS_ON_A_STATE = {
    "run": lambda d, q: d.run("0", start=q),
    "shortest_cycle_word": shortest_cycle_word,
    "shortest_word_to_source": lambda d, q: shortest_word_to(d, q, {2}),
    "shortest_word_to_target": lambda d, q: shortest_word_to(d, 0, {2, q}),
    "induce": induce,
    "words_reaching": words_reaching,
    "flip_finite_acceptance": lambda d, q: flip_finite_acceptance(d, {0, q}),
    "redirect_source": lambda d, q: redirect_boundary_transition(d, q, "1", 2),
    "redirect_target": lambda d, q: redirect_boundary_transition(d, 0, "1", q),
}


@pytest.mark.parametrize("q", [-1, 3])
@pytest.mark.parametrize("call", CALLS_ON_A_STATE)
def test_a_state_id_outside_the_machine_is_rejected(call, q):
    d = fixtures.onezstar()
    assert d.n_states == 3
    with pytest.raises(ValueError, match=rf"^state {q} out of range$"):
        CALLS_ON_A_STATE[call](d, q)


def test_alphabet_rules():
    check_alphabet("01")
    check_alphabet("abc")
    with pytest.raises(ValueError):
        check_alphabet("")
    with pytest.raises(ValueError):
        check_alphabet("aa")
    with pytest.raises(ValueError):
        check_alphabet("a#")
    with pytest.raises(ValueError):
        check_alphabet("a@")
    with pytest.raises(ValueError):
        check_alphabet("a b")


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa("01", 0, {0}, ((0, 2),))  # target out of range
    with pytest.raises(ValueError):
        Dfa("01", 1, {0}, ((0, 0),))  # start out of range
    with pytest.raises(ValueError):
        Dfa("01", 0, {1}, ((0, 0),))  # accepting out of range
    with pytest.raises(ValueError):
        Dfa("01", 0, {0}, ((0,),))  # row too short
    with pytest.raises(ValueError, match="unreachable"):
        Dfa("01", 0, {0}, ((0, 0), (1, 1)))


def test_run_and_accepts():
    d = fixtures.onezstar()
    assert d.accepts("1")
    assert d.accepts("1000")
    assert not d.accepts("")
    assert not d.accepts("11")
    assert d.run("10") == 1
    assert d.run("0", start=1) == 1
    assert d.run("1", start=0) == 1


def test_dfa_is_hashable():
    a = fixtures.zstar()
    b = Dfa("01", 0, {0}, ((0, 1), (1, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_trim_drops_unreachable_and_keeps_order():
    d, mapping = trim("01", 1, {0, 2}, ((0, 0), (2, 1), (2, 2)))
    # state 0 is unreachable from 1; survivors 1, 2 keep their relative order
    assert mapping == {1: 0, 2: 1}
    assert d.n_states == 2
    assert d.start == 0
    assert d.accepting == frozenset({1})
    assert d.delta == ((1, 0), (1, 1))


def test_strongly_connected_components():
    # 0 <-> 1 form a component, 2 is alone on a self loop, 3 is transient
    rows = ((1,), (0,), (2,), (0, 2))
    sccs = strongly_connected_components(rows)
    as_sets = sorted(map(frozenset, sccs), key=min)
    assert as_sets == [frozenset({0, 1}), frozenset({2}), frozenset({3})]


def test_states_on_cycles():
    assert states_on_cycles(fixtures.onezstar().delta) == {1, 2}


def test_induce_repoints_start():
    d = fixtures.onezstar()
    b = induce(d, 1)
    assert b.accepts("")
    assert b.accepts("00")
    assert not b.accepts("1")
    # induction trims: from state 1 only {1, 2} are reachable
    assert b.n_states == 2


def test_product_xor_accepts_disagreements():
    a, b = fixtures.sigplus(), fixtures.all_words()
    prod = product_xor(a, b)
    assert prod.dfa.accepts("")
    assert not prod.dfa.accepts("0")
    assert not prod.dfa.accepts("10")
    assert prod.pairs[prod.dfa.start] == (a.start, b.start)


def test_product_xor_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatchError):
        product_xor(fixtures.zstar(), Dfa("ab", 0, {0}, ((0, 0),)))


@given(dfas(), dfas())
def test_product_xor_tracks_both_runs(a, b):
    prod = product_xor(a, b)
    for w in ("", "0", "1", "01", "110", "0101"):
        assert prod.dfa.accepts(w) == (a.accepts(w) != b.accepts(w))


def test_shortest_word_to_is_shortlex_least():
    d = fixtures.onezstar()
    assert shortest_word_to(d, 0, {1}) == "1"
    assert shortest_word_to(d, 0, {0}) == ""
    assert shortest_word_to(d, 0, {2}) == "0"
    assert shortest_word_to(d, 1, {0}) is None


def test_shortest_cycle_word():
    d = fixtures.onezstar()
    assert shortest_cycle_word(d, 1) == "0"
    assert shortest_cycle_word(d, 2) == "0"
    # no cycle through the transient state of the {'0'} machine
    zero = fixtures.finite_language_dfa(["0"])
    assert shortest_cycle_word(zero, 0) is None


def shortlex_words(alphabet, max_len):
    """Every word of at most ``max_len`` symbols, in shortlex order."""
    for n in range(max_len + 1):
        yield from map("".join, product(sorted(alphabet), repeat=n))


def test_both_searches_find_the_shortlex_least_word_by_enumeration(suite2):
    for d in (*suite2, *(Dfa("ba", d.start, d.accepting, d.delta) for d in suite2)):
        n = d.n_states
        for q in d.states:
            for t in d.states:
                expected = next((w for w in shortlex_words(d.alphabet, n) if d.run(w, q) == t), None)
                assert shortest_word_to(d, q, {t}) == expected, (d, q, t)
            expected = next((w for w in shortlex_words(d.alphabet, n) if w and d.run(w, q) == q), None)
            assert shortest_cycle_word(d, q) == expected, (d, q)


def test_symbol_index():
    d = fixtures.zstar()
    assert d.symbol_index("0") == 0
    assert d.symbol_index("1") == 1
    with pytest.raises(ValueError):
        d.symbol_index("x")


def derived_machines(d):
    """Every machine the library builds from ``d`` without checking it again."""
    yield minimize_with_map(d)[0]
    smallest, trace = f_minimize(d)
    yield smallest
    yield from replay_merges(d, trace)[1:]
    for q in d.states:
        yield induce(d, q)
        yield product_xor(d, induce(d, q)).dfa
    parts = compute_parts(d)
    class_of = state_class_partition(d).class_of
    for src in sorted(parts.finite):
        for sym, old in zip(d.alphabet, d.delta[src]):
            if old not in parts.infinite:
                continue
            for new in sorted(parts.infinite - {old}):
                if class_of[new] == class_of[old]:
                    yield redirect_boundary_transition(d, src, sym, new)


def assert_passes_the_checks(m):
    assert type(m.accepting) is frozenset
    assert type(m.delta) is tuple and all(type(row) is tuple for row in m.delta)
    checked = Dfa(m.alphabet, m.start, m.accepting, m.delta)
    assert checked == m


@given(dfas(max_states=5, alphabet="012"))
def test_derived_machines_pass_the_checks_they_skip(d):
    for m in derived_machines(d):
        assert_passes_the_checks(m)


def test_derived_machines_of_every_small_machine_pass_the_checks(suite3):
    named = (
        fixtures.onezstar(),
        fixtures.odd_length(),
        Dfa("01", 0, {1}, ((1, 2), (2, 2), (2, 2))),  # two merges
        Dfa("01", 0, {2, 3}, ((1, 3), (2, 4), (2, 4), (1, 3), (4, 4))),
    )
    for d in suite3 + named:
        for m in derived_machines(d):
            assert_passes_the_checks(m)
