import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfa.classes import finite_difference_classes, state_class_partition
from fdfa.core import AlphabetMismatchError, Dfa, disjoint_union, induce
from fdfa.iso import infinite_part_iso
from fdfa.language import languages_equal, symmetric_difference
from fdfa.minimize import minimize
from fdfa.parts import compute_parts
from fdfa.rand import random_dfa

import machines as fixtures
from conftest import acyclic_prefix_table, dfas, sigma_upto, trie_on_kernel
from reference import (
    class_matching,
    cross_finitely_different,
    dfas_finitely_different,
    finite_difference_classes_by_pair_graph,
    finite_language_by_minimization,
    signature_equal,
    states_finitely_different,
    states_finitely_different_by_shape,
)


# The per-pair procedures below are a reference the ~ engine is checked
# against: one product of induced machines for every pair of states.


def pair_verdicts(d):
    return {
        (p, q): symmetric_difference(induce(d, p), induce(d, q)).finite
        for p, q in combinations(d.states, 2)
    }


def assert_classes_match_pair_verdicts(d):
    class_of = state_class_partition(d).class_of
    for (p, q), finite in pair_verdicts(d).items():
        assert (class_of[p] == class_of[q]) == finite, (d, p, q)


def pairwise_class_of(d):
    """~ class id (smallest member) of every state, from one verdict per pair."""
    class_of = list(d.states)
    for (p, q), finite in pair_verdicts(d).items():
        if finite:
            class_of[q] = min(class_of[q], p)
    return tuple(class_of)


def class_matching_by_pairs(a, b):
    ids_a = sorted(set(pairwise_class_of(a)))
    ids_b = sorted(set(pairwise_class_of(b)))
    if len(ids_a) != len(ids_b):
        return None
    out = {}
    for p in ids_a:
        partners = [q for q in ids_b if cross_finitely_different(a, p, b, q)[0]]
        if not partners:
            return None
        out[p] = partners[0]
    if len(set(out.values())) != len(ids_b):
        return None
    return out


def infinite_part_iso_by_pairs(a, b):
    inf_a = sorted(compute_parts(a).infinite)
    inf_b = sorted(compute_parts(b).infinite)
    if len(inf_a) != len(inf_b):
        return None
    mapping = []
    for q in inf_a:
        partners = [r for r in inf_b if languages_equal(induce(a, q), induce(b, r))]
        if not partners:
            return None
        mapping.append((q, partners[0]))
    if len({r for _, r in mapping}) != len(inf_b):
        return None
    return tuple(mapping)


def minimized_random_pairs(count, seed):
    pairs = []
    for i in range(count):
        a = minimize(random_dfa(i % 6 + 1, "01", seed + 2 * i))
        b = minimize(random_dfa(i * 5 % 6 + 1, "01", seed + 2 * i + 1))
        pairs += [(a, b), (a, a)]
    return pairs


def test_states_of_a_finite_language_machine_form_one_class():
    zero = fixtures.finite_language_dfa(["0"])
    part = state_class_partition(zero)
    assert part.classes == ((0, 1, 2),)
    assert part.class_of == (0, 0, 0)
    assert part.classes[0] == (0, 1, 2)


def test_onezstar_classes_are_singletons():
    part = state_class_partition(fixtures.onezstar())
    assert part.classes == ((0,), (1,), (2,))


def test_states_finitely_different():
    zero = fixtures.finite_language_dfa(["0"])
    ok, diff = states_finitely_different(zero, 0, 2)
    assert ok
    assert diff.words == ("0",)
    ok, diff = states_finitely_different(fixtures.onezstar(), 1, 2)
    assert not ok
    assert not diff.finite


def test_states_finitely_different_validates_ids():
    with pytest.raises(ValueError, match="out of range"):
        states_finitely_different(fixtures.zstar(), 0, 9)


def test_cross_machine_state_difference():
    ok, diff = cross_finitely_different(fixtures.sigplus(), 0, fixtures.all_words(), 0)
    assert ok
    assert diff.words == ("",)
    ok, _ = cross_finitely_different(fixtures.zstar(), 0, fixtures.onezstar(), 0)
    assert not ok
    with pytest.raises(AlphabetMismatchError):
        cross_finitely_different(fixtures.zstar(), 0, Dfa("ab", 0, {0}, ((0, 0),)), 0)


def test_finite_language_by_minimization_matches_direct_classification():
    assert finite_language_by_minimization(fixtures.finite_language_dfa(["0", "11"]))
    assert finite_language_by_minimization(fixtures.empty())
    assert not finite_language_by_minimization(fixtures.zstar())


def test_shape_check_agrees_on_fixtures():
    zero = fixtures.finite_language_dfa(["0"])
    assert states_finitely_different_by_shape(zero, 0, 2)
    assert not states_finitely_different_by_shape(fixtures.onezstar(), 1, 2)


def test_signature_equal():
    assert signature_equal(fixtures.odd_length(), fixtures.even_length())
    assert not signature_equal(fixtures.zstar(), fixtures.onezstar())
    assert signature_equal(fixtures.zstar(), fixtures.zstar())


def test_class_matching_pairs_up_classes():
    match = class_matching(fixtures.odd_length(), fixtures.even_length())
    assert match == {0: 1, 1: 0}
    assert class_matching(fixtures.zstar(), fixtures.onezstar()) is None


def test_dfas_finitely_different():
    ok, diff = dfas_finitely_different(fixtures.sigplus(), fixtures.all_words())
    assert ok
    assert diff.words == ("",)
    ok, diff = dfas_finitely_different(fixtures.odd_length(), fixtures.even_length())
    assert not ok
    assert not diff.finite


@given(dfas(max_states=6))
@settings(max_examples=60)
def test_partition_is_transitive_and_id_is_smallest_member(d):
    assert_classes_match_pair_verdicts(d)
    part = state_class_partition(d)
    for cls in part.classes:
        assert cls[0] == min(cls)
        for member in cls:
            assert part.class_of[member] == cls[0]
    # classes come sorted by first member, each with its members ascending
    assert list(part.classes) == sorted(tuple(sorted(cls)) for cls in part.classes)


def test_partition_matches_per_pair_verdicts_on_every_small_machine(suite3):
    for d in suite3:
        assert_classes_match_pair_verdicts(d)


def test_partition_of_a_long_finite_chain_is_one_class():
    chain = sigma_upto(40)
    assert state_class_partition(chain).classes == (tuple(chain.states),)


def test_class_matching_agrees_with_per_pair_verdicts():
    matched = unmatched = 0
    for a, b in minimized_random_pairs(60, 70000):
        expected = class_matching_by_pairs(a, b)
        assert class_matching(a, b) == expected, (a, b)
        if expected is None:
            unmatched += 1
        else:
            matched += 1
    assert matched > 60 and unmatched > 10


def test_infinite_part_iso_agrees_with_per_pair_equality():
    found = missing = 0
    for a, b in minimized_random_pairs(60, 80000):
        bij = infinite_part_iso(a, b)
        expected = infinite_part_iso_by_pairs(a, b)
        assert (bij.mapping if bij is not None else None) == expected, (a, b)
        if expected is None:
            missing += 1
        else:
            found += 1
    assert found > 60 and missing > 10


@given(dfas(max_states=4), dfas(max_states=4))
@settings(max_examples=40)
def test_machine_difference_is_symmetric(a, b):
    assert dfas_finitely_different(a, b)[0] == dfas_finitely_different(b, a)[0]


# The engine against the pair graph it replaced, which decides every pair of
# Moore blocks by cycle reachability.


def assert_engine_matches_pair_graph(delta, accepting):
    got = finite_difference_classes(delta, accepting)
    assert got == finite_difference_classes_by_pair_graph(delta, accepting), (delta, accepting)


@st.composite
def raw_tables(draw, max_states=10):
    """A transition table over 1-3 symbols and its accepting set; any state may be unreachable."""
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n))
    return delta, frozenset(q for q in range(n) if draw(st.booleans()))


def test_engine_matches_the_pair_graph_on_every_small_machine(suite3):
    for d in suite3:
        assert_engine_matches_pair_graph(d.delta, d.accepting)


@given(raw_tables())
@settings(max_examples=300)
def test_engine_matches_the_pair_graph_on_raw_tables(table):
    assert_engine_matches_pair_graph(*table)


@given(dfas(max_states=5), dfas(max_states=5))
@settings(max_examples=100)
def test_engine_matches_the_pair_graph_across_two_machines(a, b):
    assert_engine_matches_pair_graph(*disjoint_union(a, b))


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_the_pair_graph_on_tries_over_a_kernel(seed):
    d = trie_on_kernel(120, 9, 3, seed)
    assert_engine_matches_pair_graph(d.delta, d.accepting)


def test_classes_of_a_2000_state_acyclic_prefix_table_fit_in_10_mb():
    d = acyclic_prefix_table(2000, 1)
    tracemalloc.start()
    try:
        part = state_class_partition(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part.class_of) == 2000
    assert peak < 10_000_000
