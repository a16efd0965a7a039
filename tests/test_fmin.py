import dataclasses
import gc
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

import fdfa.classes
import fdfa.core
import fdfa.fmin
from fdfa.classes import state_class_partition
from fdfa.core import Dfa, disjoint_union, induce
from fdfa.fmin import (
    FMergeError,
    MergeRecord,
    f_merge,
    f_minimize,
    flip_finite_acceptance,
    is_f_minimal,
    redirect_boundary_transition,
)
from fdfa.formats import parse_dfa
from fdfa.language import symmetric_difference
from fdfa.minimize import is_minimized, minimize, moore_blocks
from fdfa.parts import compute_parts, words_reaching

import machines as fixtures
from conftest import acyclic_prefix_table, count_calls, dfas, sigma_upto, trie_on_kernel
from reference import (
    dfas_finitely_different,
    f_minimize_by_recomputation,
    merge_by_renumbering,
    replay_merges,
    states_finitely_different,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def zero_machine():
    return fixtures.finite_language_dfa(["0"])


def listed_merge_words(before, r):
    """X and Z of a merge record, listed from the machine current at its merge."""
    return (tuple(words_reaching(before, r.merged)),
            symmetric_difference(induce(before, r.merged), induce(before, r.target)).words)


def test_f_merge_rewires_and_trims():
    merged = f_merge(zero_machine(), 1, 2)
    assert merged.n_states == 2
    assert not merged.accepting
    diff = symmetric_difference(zero_machine(), merged)
    assert diff.words == ("0",)


def test_f_merge_validation():
    with pytest.raises(FMergeError, match="out of range"):
        f_merge(zero_machine(), 9, 0)
    with pytest.raises(FMergeError, match="with itself"):
        f_merge(zero_machine(), 0, 0)
    with pytest.raises(FMergeError, match="infinite part"):
        f_merge(fixtures.onezstar(), 1, 2)
    with pytest.raises(FMergeError, match="not finitely different"):
        f_merge(fixtures.onezstar(), 0, 1)


def test_f_minimize_sigplus_trace():
    out, records = f_minimize(fixtures.sigplus())
    assert out == fixtures.all_words()
    assert len(records) == 1
    r = records[0]
    assert (r.merged, r.target, r.class_id) == (0, 1, 0)
    assert listed_merge_words(minimize(fixtures.sigplus()), r) == (("",), ("",))
    assert r.bound == 1


def test_f_minimize_zero_machine_needs_two_merges():
    out, records = f_minimize(zero_machine())
    assert out.n_states == 1
    assert not out.accepting
    assert [(r.merged, r.target) for r in records] == [(1, 2), (0, 1)]
    assert listed_merge_words(minimize(zero_machine()), records[0]) == (("0",), ("",))


def test_f_minimize_reversed_reaches_same_size():
    canonical, _ = f_minimize(zero_machine())
    rev, records = f_minimize(zero_machine(), order="reversed")
    assert rev.n_states == canonical.n_states == 1
    # the reversed tie-break happens to get there in a single merge
    assert [(r.merged, r.target) for r in records] == [(0, 2)]


def test_f_minimize_rejects_unknown_order():
    with pytest.raises(ValueError, match="order"):
        f_minimize(zero_machine(), order="sideways")


def test_f_minimize_keeps_machines_in_class():
    for d in (zero_machine(), fixtures.sigplus(), fixtures.onezstar(), fixtures.zstar()):
        out, _ = f_minimize(d)
        assert dfas_finitely_different(d, out)[0]
        assert is_minimized(out)
        assert is_f_minimal(out)[0]


def test_is_f_minimal_verdicts():
    assert is_f_minimal(fixtures.all_words()) == (True, None)
    assert is_f_minimal(fixtures.onezstar()) == (True, None)
    ok, pair = is_f_minimal(fixtures.sigplus())
    assert not ok
    assert pair == (0, 1)
    ok, pair = is_f_minimal(zero_machine())
    assert not ok
    p, q = pair
    assert p in compute_parts(zero_machine()).finite
    assert states_finitely_different(zero_machine(), p, q)[0]


def assert_union_answers_for_either_machine(a, b):
    # mergeable_pair reads equal languages and ~ off the union, where neither
    # depends on the other machine's states
    table = fdfa.classes._TableAnalysis(*disjoint_union(a, b))
    n = a.n_states
    assert table.mergeable_pair(range(n)) == is_f_minimal(a)[1]
    assert table.mergeable_pair(range(n, n + b.n_states)) == is_f_minimal(b)[1]


def test_a_union_answers_the_f_merge_check_for_either_machine(suite2):
    for a in suite2:
        for b in suite2:
            assert_union_answers_for_either_machine(a, b)


@given(dfas(max_states=5), dfas(max_states=5))
@settings(max_examples=100)
def test_a_union_of_random_machines_answers_for_either(a, b):
    assert_union_answers_for_either_machine(a, b)


def test_flip_finite_acceptance():
    oz = fixtures.onezstar()
    flipped = flip_finite_acceptance(oz, {0})
    assert flipped.accepting == frozenset({0, 1})
    diff = symmetric_difference(oz, flipped)
    assert diff.words == ("",)
    assert is_f_minimal(flipped)[0]
    # flipping back restores the original
    assert flip_finite_acceptance(flipped, {0}) == oz


def test_flip_rejects_infinite_part_states():
    with pytest.raises(FMergeError, match="not in the finite part"):
        flip_finite_acceptance(fixtures.onezstar(), {1})
    with pytest.raises(ValueError, match="out of range"):
        flip_finite_acceptance(fixtures.onezstar(), {9})


def boundary_machine():
    # start 0 is the sole finite-part state; 1 and 2 induce 0+ and 0*,
    # finitely different targets reachable on '0' and via the 1-cycle at 3
    return Dfa("01", 0, {2, 3}, ((1, 3), (2, 4), (2, 4), (1, 3), (4, 4)))


def test_boundary_machine_shape():
    parts = compute_parts(boundary_machine())
    assert parts.finite == frozenset({0})
    assert states_finitely_different(boundary_machine(), 1, 2)[0]


def test_redirect_boundary_transition_legal():
    d = boundary_machine()
    redirected = redirect_boundary_transition(d, 0, "0", 2)
    # state 1 stays reachable through the cycle at 3, so nothing is trimmed
    assert redirected.n_states == 5
    assert redirected.delta[0] == (2, 3)
    diff = symmetric_difference(d, redirected)
    assert diff.words == ("0",)


def test_redirect_to_current_target_is_identity():
    d = boundary_machine()
    assert redirect_boundary_transition(d, 0, "0", 1) is d


def test_redirect_rejects_targets_outside_the_class():
    d = boundary_machine()
    with pytest.raises(FMergeError, match="not finitely different"):
        redirect_boundary_transition(d, 0, "0", 3)
    with pytest.raises(FMergeError, match="not finitely different"):
        redirect_boundary_transition(d, 0, "0", 4)


def test_redirect_rejects_wrong_shapes():
    d = boundary_machine()
    with pytest.raises(FMergeError, match="not in the finite part"):
        redirect_boundary_transition(d, 3, "0", 2)
    zero = zero_machine()
    with pytest.raises(FMergeError, match="does not enter the infinite part"):
        redirect_boundary_transition(zero, 0, "0", 2)


@given(dfas(max_states=4))
@settings(max_examples=40, deadline=None)
def test_f_minimize_properties(d):
    out, records = f_minimize(d)
    assert is_minimized(out)
    assert is_f_minimal(out)[0]
    assert dfas_finitely_different(d, out)[0]
    rev, _ = f_minimize(d, order="reversed")
    assert rev.n_states == out.n_states
    machines = replay_merges(d, records)
    for r, before, after in zip(records, machines, machines[1:]):
        realized = symmetric_difference(before, after)
        assert realized.finite
        assert len(realized.words) <= r.bound


@pytest.mark.parametrize("d", [sigma_upto(40), trie_on_kernel(40, 10, 5, 1)],
                         ids=["sigma_upto(40)", "trie_on_kernel"])
def test_merge_records_replay_their_machines_without_a_reference_cycle(d):
    out, records = f_minimize(d)
    assert len(records) > 1
    assert [f.name for f in dataclasses.fields(MergeRecord)] == [
        "merged", "target", "class_id", "n_into", "n_diff"]
    # each step of the replay is checked as an f-merge, and the last one
    # lands on the machine f_minimize returned
    machines = replay_merges(d, records)
    assert machines[0] == minimize(d)
    assert machines[-1] == out
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        del records, machines
        # the records and the replayed machines are freed by reference counting
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_f_minimize_counts_bounds_without_listing_words(monkeypatch):
    import fdfa.language

    # the one word lister, behind words_reaching and symmetric_difference(...).words
    calls = count_calls(monkeypatch, fdfa.language._list_text)

    out, records = f_minimize(sigma_upto(12))
    assert calls == []
    assert out.n_states == 1
    assert (records[0].merged, records[0].target) == (12, 13)
    assert (records[0].n_into, records[0].n_diff) == (2 ** 12, 1)
    assert records[0].bound == 2 ** 12
    # X and Z, listed from the minimized machine, have the counted sizes
    into, diff = listed_merge_words(minimize(sigma_upto(12)), records[0])
    assert (len(into), len(diff)) == (records[0].n_into, records[0].n_diff)
    assert len(into) == 2 ** 12
    assert diff == ("",)
    assert len(calls) == 2


def test_merge_by_trimming_matches_the_renumbering_on_suite3(suite3):
    merges = 0
    for d in suite3:
        finite = compute_parts(d).finite
        for cls in state_class_partition(d).classes:
            for p in finite.intersection(cls):
                for q in cls:
                    if q != p:
                        assert f_merge(d, p, q) == merge_by_renumbering(d, p, q), (d, p, q)
                        merges += 1
    assert merges > 1000


def assert_minimizes_like_the_recomputation(d):
    for order in ("canonical", "reversed"):
        out, records = f_minimize(d, order=order)
        ref_out, ref_records = f_minimize_by_recomputation(d, order=order)
        assert out == ref_out
        assert len(records) == len(ref_records)
        machines = replay_merges(d, records)
        for r, ref, before, after in zip(records, ref_records, machines, machines[1:]):
            assert (r.merged, r.target, r.class_id, r.n_into, r.n_diff) == (
                ref.merged, ref.target, ref.class_id, ref.n_into, ref.n_diff)
            assert (before, after) == (ref.before, ref.after)


def test_f_minimize_matches_the_recomputation_on_suite3(suite3):
    for d in suite3:
        assert_minimizes_like_the_recomputation(d)


def test_f_minimize_matches_the_recomputation_on_generated_shapes():
    for m in range(13):
        assert_minimizes_like_the_recomputation(sigma_upto(m))
    assert_minimizes_like_the_recomputation(sigma_upto(5, "abc"))
    for seed in range(4):
        assert_minimizes_like_the_recomputation(trie_on_kernel(30, 7, 3, seed))
        assert_minimizes_like_the_recomputation(acyclic_prefix_table(40, seed))
    # a small sweep that skips a state left with no classmate: canonical order
    # merges 2 into 1 and then skips 1, reversed merges 1 into 2 and skips 2
    assert_minimizes_like_the_recomputation(parse_dfa(
        "dfa v1\nalphabet 01\nstates 5\nstart 0\naccept 0 2 3\n"
        "0 0 1\n0 1 2\n1 0 3\n1 1 4\n2 0 3\n2 1 4\n3 0 3\n3 1 3\n4 0 4\n4 1 3\n"))


@given(dfas(max_states=6))
@settings(max_examples=150, deadline=None)
def test_f_minimize_matches_the_recomputation(d):
    assert_minimizes_like_the_recomputation(d)


def test_f_minimize_analyses_the_minimized_machine_once(monkeypatch):
    blocks = count_calls(monkeypatch, moore_blocks)
    parts = count_calls(monkeypatch, compute_parts)
    peels = count_calls(monkeypatch, fdfa.core._peel)
    out, records = f_minimize(sigma_upto(400))
    assert out.n_states == 1
    assert len(records) == 401
    # one refinement in minimize and one in the closing is_minimized check
    assert len(blocks) == 2
    # the finite part comes off one peel of the whole minimized table; every
    # other peel orders the states one record counts paths over
    assert sum(len(states) == 402 for _, states in peels) == 1
    assert parts == []


def load_fixture(name):
    return parse_dfa((FIXTURES / f"{name}.dfa").read_text())


def record_analyses(monkeypatch) -> list:
    """Bind a table analysis that appends itself to the returned list as
    ``fdfa.fmin._TableAnalysis``."""
    built = []

    class Recorded(fdfa.classes._TableAnalysis):
        def __init__(self, delta, accepting):
            super().__init__(delta, accepting)
            built.append(self)

    monkeypatch.setattr(fdfa.fmin, "_TableAnalysis", Recorded)
    return built


def classes_computed(analyses) -> list[bool]:
    # for each analysis built, whether its ~ classes were computed
    return ["class_of" in vars(table) for table in analyses]


def test_f_minimize_with_no_finite_part_stops_after_minimizing(monkeypatch):
    d = load_fixture("zstar")
    expected = (minimize(d), ())
    blocks = count_calls(monkeypatch, moore_blocks)
    peels = count_calls(monkeypatch, fdfa.core._peel)
    analyses = record_analyses(monkeypatch)
    assert f_minimize(d) == expected
    # one refinement, in minimize: with nothing merged there is no closing
    # is_minimized check
    assert len(blocks) == 1
    assert len(peels) == 1
    assert classes_computed(analyses) == [False]


def test_f_minimize_with_no_classmate_stops_after_one_pick(monkeypatch):
    d = load_fixture("onezstar")
    expected = (minimize(d), ())
    analyses = record_analyses(monkeypatch)
    products = count_calls(monkeypatch, fdfa.core._xor_rows)
    trims = count_calls(monkeypatch, fdfa.core._trim)
    blocks = count_calls(monkeypatch, moore_blocks)
    # state 0 is the whole finite part, and no other state is ~ to it
    assert f_minimize(d) == expected
    assert classes_computed(analyses) == [True]
    # no record is counted and no merged table trimmed
    assert products == trims == []
    # one refinement, in minimize: with nothing merged there is no closing
    # is_minimized check
    assert len(blocks) == 1


def test_f_minimize_stays_within_its_memory_bound():
    d = sigma_upto(200)
    tracemalloc.start()
    try:
        out, records = f_minimize(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 201
    # the records hold ids and counts, and no machine
    assert peak < 1 << 20


def test_is_f_minimal_refines_once_per_call(monkeypatch, suite3):
    blocks = count_calls(monkeypatch, moore_blocks)
    for i, d in enumerate(suite3[:200], 1):
        is_f_minimal(d)
        assert len(blocks) == i
