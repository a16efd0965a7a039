from pathlib import Path

import pytest
from hypothesis import given

from fdfa.cli import main
from fdfa.construct import construct_pair
from fdfa.core import Dfa, _peel, states_reaching, strongly_connected_components
from fdfa.language import classify_language
from fdfa.parts import compute_parts, words_reaching

import machines as fixtures
from conftest import count_calls, dfas, reversed_loop_chain, structured_machines
from reference import compute_parts_by_counting, compute_parts_by_cycles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parts_of_fixtures():
    assert compute_parts(fixtures.zstar()).finite == frozenset()
    assert compute_parts(fixtures.onezstar()).finite == frozenset({0})
    assert compute_parts(fixtures.onezstar()).infinite == frozenset({1, 2})
    assert compute_parts(fixtures.sigplus()).finite == frozenset({0})
    assert compute_parts(fixtures.all_words()).infinite == frozenset({0})


def test_parts_of_finite_language_machine():
    d = fixtures.finite_language_dfa(["0"])
    parts = compute_parts(d)
    # only the sink lies on a cycle; nothing else is downstream of one
    assert parts.infinite == frozenset({2})
    assert parts.finite == frozenset({0, 1})


def test_state_after_cycle_is_infinite_part():
    # 0 loops, 1 hangs off the loop: still reached by infinitely many words
    d = Dfa("01", 0, {1}, ((0, 1), (2, 2), (2, 2)))
    parts = compute_parts(d)
    assert 1 in parts.infinite
    assert 2 in parts.infinite
    assert parts.finite == frozenset()


def test_construction_outputs_have_no_finite_part():
    for words in ([""], ["0", "11"], []):
        left, right = construct_pair(words, "01")
        assert compute_parts(left).finite == frozenset()
        assert compute_parts(right).finite == frozenset()


@given(dfas(max_states=6))
def test_counting_agrees_with_cycle_reachability(d):
    assert compute_parts(d) == compute_parts_by_counting(d) == compute_parts_by_cycles(d)


def test_peeling_agrees_with_counting_and_cycle_closure(suite3):
    for d in (*suite3, *structured_machines()):
        assert compute_parts(d) == compute_parts_by_counting(d) == compute_parts_by_cycles(d), d


def test_parts_find_no_strongly_connected_components(monkeypatch, capsys):
    calls = count_calls(monkeypatch, strongly_connected_components)
    compute_parts(reversed_loop_chain(50))
    compute_parts(fixtures.finite_language_dfa(["0", "10"]))
    assert main(["parts", str(FIXTURES / "onezstar.dfa")]) == 0
    assert capsys.readouterr().out == "finite: 0\ninfinite: 1 2\n"
    assert calls == []


@given(dfas(max_states=5))
def test_parts_invariants(d):
    parts = compute_parts(d)
    assert parts.finite | parts.infinite == set(d.states)
    assert not parts.finite & parts.infinite
    # the infinite part is closed under transitions
    for q in parts.infinite:
        for t in d.delta[q]:
            assert t in parts.infinite


def test_words_reaching_finite_part_state():
    assert words_reaching(fixtures.onezstar(), 0) == [""]
    zero = fixtures.finite_language_dfa(["0"])
    assert words_reaching(zero, 0) == [""]
    assert words_reaching(zero, 1) == ["0"]


@given(dfas(max_states=6))
def test_words_reaching_lists_the_language_accepted_at_the_state(d):
    for q in compute_parts(d).finite:
        only_q = Dfa(d.alphabet, d.start, {q}, d.delta)
        assert words_reaching(d, q) == list(classify_language(only_q).words)


def test_words_reaching_rejects_infinite_part_state():
    with pytest.raises(ValueError, match="infinite part"):
        words_reaching(fixtures.onezstar(), 1)


def test_words_reaching_peels_only_the_states_that_reach_it(monkeypatch):
    d = fixtures.finite_language_dfa(["0", "10"])
    (sink,) = compute_parts(d).infinite
    q = d.run("1")
    parts_calls = count_calls(monkeypatch, compute_parts)
    peels = count_calls(monkeypatch, _peel)
    assert words_reaching(d, q) == ["1"]
    assert parts_calls == []
    assert len(peels) == 1 and peels[0][1] == states_reaching(d.delta, {q})
    assert sink not in peels[0][1]
    with pytest.raises(ValueError, match="infinite part"):
        words_reaching(d, sink)
    assert parts_calls == []


class RowReads(tuple):
    """A transition table that counts the rows read and fails past a budget."""

    def __new__(cls, rows, budget):
        table = super().__new__(cls, rows)
        table.reads, table.budget = 0, budget
        return table

    def _read(self):
        self.reads += 1
        if self.reads > self.budget:
            raise AssertionError(f"more than {self.budget} row reads")

    def __getitem__(self, i):
        self._read()
        return super().__getitem__(i)

    def __iter__(self):
        for row in super().__iter__():
            self._read()
            yield row


def test_compute_parts_reads_each_row_a_bounded_number_of_times():
    # one closure per on-cycle state reads the reversed chain n^2 / 2 times
    n = 20_000
    d = reversed_loop_chain(n)
    object.__setattr__(d, "delta", RowReads(d.delta, budget=3 * n))
    parts = compute_parts(d)
    assert parts.infinite == frozenset(range(n))
    assert parts.finite == frozenset()
