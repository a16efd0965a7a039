import pytest
from hypothesis import strategies as st

from fdfa.core import Dfa, trim

from oracle import enumerate_all_dfas


@pytest.fixture(scope="session")
def suite2():
    """Every complete all-reachable DFA with at most 2 states over {0,1}."""
    return tuple(d for n in (1, 2) for d in enumerate_all_dfas(n, "01"))


@pytest.fixture(scope="session")
def suite3(suite2):
    """Every complete all-reachable DFA with at most 3 states over {0,1}."""
    return suite2 + tuple(enumerate_all_dfas(3, "01"))


@st.composite
def dfas(draw, max_states=4, alphabet="01"):
    """Random reachable DFA; unreachable states are trimmed away."""
    n = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n)
    )
    start = draw(st.integers(0, n - 1))
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    d, _ = trim(alphabet, start, accepting, delta, None)
    return d


def sigma_upto(m, alphabet="01"):
    """Minimal chain accepting every word of length at most m (m + 2 states)."""
    sink = m + 1
    delta = tuple((min(q + 1, sink),) * len(alphabet) for q in range(m + 2))
    return Dfa(alphabet, 0, frozenset(range(m + 1)), delta)


def reversed_loop_chain(n, alphabet="01"):
    """State q loops on the first symbol and steps down to q - 1 on the others.

    The start is the top state n - 1 and state 0 loops on every symbol, so every
    state is on a cycle and state q reaches exactly the states 0..q.
    """
    delta = tuple((q,) + (max(q - 1, 0),) * (len(alphabet) - 1) for q in range(n))
    return Dfa(alphabet, n - 1, frozenset({0}), delta)
