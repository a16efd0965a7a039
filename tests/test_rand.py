import pytest

from fdfa.core import reachable_states
from fdfa.rand import Lcg, random_dfa


def test_lcg_sequence_is_fixed():
    g = Lcg(0)
    assert [g.next_u32() for _ in range(4)] == [
        335903614, 436792849, 2599843874, 1723210473,
    ]
    g = Lcg(12345)
    assert g.next_u32() == 470636529


def test_lcg_seed_wraps_to_64_bits():
    assert Lcg(1 << 64).state == 0
    assert Lcg((1 << 64) + 7).state == 7


def test_below_is_uniform_range():
    g = Lcg(99)
    draws = [g.below(5) for _ in range(1000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        g.below(0)


def test_random_dfa_is_deterministic():
    a = random_dfa(4, "01", 42)
    b = random_dfa(4, "01", 42)
    assert a == b


def test_random_dfa_seed_42_pinned():
    d = random_dfa(4, "01", 42)
    assert d.delta == ((1, 1), (1, 3), (0, 1), (2, 1))
    assert d.start == 0
    assert d.accepting == frozenset({0, 1, 2})


def test_random_dfa_is_always_fully_reachable():
    for seed in range(50):
        d = random_dfa(5, "01", seed)
        assert len(reachable_states(d.delta, d.start)) == 5


def test_random_dfa_varies_with_seed():
    machines = {random_dfa(3, "01", seed) for seed in range(30)}
    assert len(machines) > 20


def test_random_dfa_rejects_bad_sizes():
    with pytest.raises(ValueError):
        random_dfa(0, "01", 1)
