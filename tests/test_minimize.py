import pytest
from hypothesis import given

from fdfa.core import Dfa, induce
from fdfa.language import languages_equal
from fdfa.minimize import (
    StatePartition,
    _first_seen_ids,
    is_minimized,
    minimize,
    minimize_with_map,
    moore_blocks,
)

import machines as fixtures
from conftest import count_calls, dfas, raw_tables, sigma_upto, structured_machines
from oracle import oracle_diff
from reference import distinguishing_word, moore_blocks_by_states


def test_minimize_collapses_equivalent_states():
    # two interchangeable accepting states
    d = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    m = minimize(d)
    assert m.n_states == 2
    assert languages_equal(d, m)


def test_minimize_canonical_numbering_follows_bfs():
    m = minimize(fixtures.onezstar())
    # block reached on '0' from the start gets the lower id
    assert m.delta == ((1, 2), (1, 1), (2, 1))
    assert m.accepting == frozenset({2})
    assert m.start == 0


def test_minimize_already_minimal_is_stable():
    for d in (fixtures.zstar(), fixtures.sigplus(), fixtures.odd_length()):
        assert minimize(d) == d


def test_minimize_with_map_sends_states_to_their_blocks():
    d = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    m, mapping = minimize_with_map(d)
    assert len(mapping) == d.n_states
    assert mapping[1] == mapping[2]
    assert mapping[0] != mapping[1]
    assert m.n_states == 2


def test_is_minimized():
    assert is_minimized(fixtures.onezstar())
    assert not is_minimized(Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2))))


def test_moore_partition_blocks():
    d = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    part = moore_blocks(d.delta, d.accepting)
    assert part.n_blocks == 2
    assert part.block_of[1] == part.block_of[2]


def test_refinement_stops_once_every_block_is_one_state(monkeypatch):
    ids = count_calls(monkeypatch, _first_seen_ids)
    # Σ^{≤3}: {0 1 2 3 | 4}, then 3, then 2, then 1 split off; a round after
    # that could split nothing, and none is run
    d = sigma_upto(3)
    assert moore_blocks(d.delta, d.accepting) == StatePartition((0, 1, 2, 3, 4), 5)
    assert len(ids) == 4
    # twin accepting states never split: the last round confirms the partition
    ids.clear()
    d = Dfa("01", 0, {1, 2}, ((1, 2), (1, 2), (1, 2)))
    assert moore_blocks(d.delta, d.accepting).n_blocks == 2
    assert len(ids) == 2
    # two states, one accepting: discrete before any round
    ids.clear()
    assert moore_blocks(((1,), (1,)), {1}) == StatePartition((0, 1), 2)
    assert len(ids) == 1


def test_column_rounds_number_blocks_like_the_per_state_rounds(suite3):
    for d in (*suite3, *structured_machines()):
        assert moore_blocks(d.delta, d.accepting) == moore_blocks_by_states(d.delta, d.accepting)


@given(raw_tables())
def test_column_rounds_number_blocks_like_the_per_state_rounds_on_raw_tables(table):
    # unreachable rows and disjoint unions are allowed: no start is needed
    assert moore_blocks(*table) == moore_blocks_by_states(*table)

def test_distinguishing_word_examples():
    oz = fixtures.onezstar()
    # the empty word separates 1.0* from 0*
    assert distinguishing_word(oz, 0, 1) == ""
    assert distinguishing_word(oz, 1, 2) == ""
    assert distinguishing_word(oz, 0, 2) == "1"
    assert distinguishing_word(oz, 1, 1) is None


def test_distinguishing_word_validates_states():
    with pytest.raises(ValueError):
        distinguishing_word(fixtures.zstar(), 0, 5)


@given(dfas(max_states=5))
def test_minimize_preserves_language_and_is_idempotent(d):
    m = minimize(d)
    assert languages_equal(d, m)
    assert is_minimized(m)
    assert m.n_states <= d.n_states
    assert minimize(m) == m


@given(dfas(max_states=5))
def test_distinguishing_word_is_sound(d):
    for p in d.states:
        for q in d.states:
            w = distinguishing_word(d, p, q)
            if w is None:
                assert languages_equal_states(d, p, q)
            else:
                assert (d.run(w, start=p) in d.accepting) != (d.run(w, start=q) in d.accepting)


def assert_distinguishing_words_are_shortlex_least(d):
    for p in d.states:
        for q in d.states:
            # two states of an n-state machine that differ do so on a word shorter than n
            words = oracle_diff(induce(d, p), induce(d, q), d.n_states)
            assert distinguishing_word(d, p, q) == (words[0] if words else None), (d, p, q)


def test_distinguishing_word_is_shortlex_least_on_every_small_machine(suite2):
    for d in suite2:
        assert_distinguishing_words_are_shortlex_least(d)


@given(dfas(max_states=4, alphabet="ba"))
def test_distinguishing_word_is_shortlex_least(d):
    assert_distinguishing_words_are_shortlex_least(d)


def languages_equal_states(d, p, q):
    return languages_equal(induce(d, p), induce(d, q))
