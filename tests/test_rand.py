import pytest

from fdfa.core import reachable_states
from fdfa.rand import _MASK64, _below, _lcg_steps, random_dfa

from reference import Lcg, random_dfa_by_lcg


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


@pytest.mark.parametrize("alphabet", ["", "00", "0#"])
def test_random_dfa_checks_its_alphabet_before_drawing(alphabet):
    # with an empty alphabet no attempt ever reaches a second state
    with pytest.raises(ValueError, match="alphabet"):
        random_dfa(2, alphabet, 1)


def test_batched_draws_match_the_lcg_object():
    for n in (*range(1, 65), 3 ** 19, 2 ** 31 + 1, 2 ** 32):
        for seed in (0, n, 7 * n + 1, (1 << 64) + n, 2 ** 63 - n):
            g = Lcg(seed)
            x, draws = _below(seed & (2 ** 64 - 1), n, 50)
            assert draws == [g.below(n) for _ in range(50)], (n, seed)
            assert x == g.state


def test_composed_steps_match_the_lcg_object():
    for seed in (0, 7, (1 << 64) - 1):
        g = Lcg(seed)
        for count in range(300):
            a, c = _lcg_steps(count)
            assert (a * (seed & _MASK64) + c) & _MASK64 == g.state, (seed, count)
            g.next_u32()
    # far beyond what a loop could step: m + n steps are m steps, then n
    m, n = 10 ** 18, 12345
    (a1, c1), (a2, c2) = _lcg_steps(m), _lcg_steps(n)
    assert _lcg_steps(m + n) == ((a2 * a1) & _MASK64, (a2 * c1 + c2) & _MASK64)


def test_random_dfa_draws_what_the_lcg_object_draws():
    # two-symbol machines past 30 states take up to seconds of attempts each
    for n in range(1, 65):
        for alphabet in ("0", "01", "ba", "012", "\u0100\u0a41\u00e9"):
            if len(alphabet) == 1 and n > 6 or len(alphabet) == 2 and n > 30:
                continue
            for seed in (n, 7 * n + 1, (1 << 64) + n):
                assert random_dfa(n, alphabet, seed) == random_dfa_by_lcg(n, alphabet, seed), (n, alphabet, seed)
    for seed in range(300):
        n = seed % 12 + 1
        assert random_dfa(n, "01", seed) == random_dfa_by_lcg(n, "01", seed), (n, seed)
    # the seeds the tests and the command-line examples pin
    for n, alphabet, seed in ((4, "01", 42), (3, "01", 7), (3, "01", 8), (4, "ab", 3), (4, "01", 11),
                              (5, "01", 123), (24, "01", 7)):
        assert random_dfa(n, alphabet, seed) == random_dfa_by_lcg(n, alphabet, seed), (n, alphabet, seed)
