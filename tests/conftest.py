import random
import sys

import pytest
from hypothesis import strategies as st

from fdfa.core import Dfa, disjoint_union, trim

from oracle import enumerate_all_dfas


@pytest.fixture(scope="session")
def suite2():
    """Every complete all-reachable DFA with at most 2 states over {0,1}."""
    return tuple(d for n in (1, 2) for d in enumerate_all_dfas(n, "01"))


@pytest.fixture(scope="session")
def suite3(suite2):
    """Every complete all-reachable DFA with at most 3 states over {0,1}."""
    return suite2 + tuple(enumerate_all_dfas(3, "01"))


def count_calls(monkeypatch, original) -> list:
    """Rebind ``original`` in every ``fdfa`` module that holds it to a wrapper
    that records each call's arguments in the returned list.

    Modules copy names on import, so every name holding the original is rebound.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("fdfa") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@st.composite
def dfas(draw, max_states=4, alphabet="01"):
    """Random reachable DFA; unreachable states are trimmed away."""
    n = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n)
    )
    start = draw(st.integers(0, n - 1))
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    d, _ = trim(alphabet, start, accepting, delta)
    return d


@st.composite
def raw_tables(draw, max_states=6, alphabet="01"):
    """A raw transition table and accepting set: a random table, whose states
    need not be reachable from any one state, or the disjoint union of two
    random machines."""
    if draw(st.booleans()):
        return disjoint_union(draw(dfas(max_states // 2, alphabet)),
                              draw(dfas(max_states // 2, alphabet)))
    n = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n)
    )
    return delta, frozenset(q for q in range(n) if draw(st.booleans()))


def structured_machines():
    """Deep, acyclic-prefixed and trie-shaped machines of up to a few hundred
    states: every Σ^{≤m} chain for m ≤ 50, reversed self-loop chains,
    acyclic-prefix tables and tries on small kernels, over two and three
    symbols."""
    out = [sigma_upto(m, alphabet) for m in range(51) for alphabet in ("01", "012")]
    out += [reversed_loop_chain(n, alphabet) for n in (1, 2, 50, 300) for alphabet in ("01", "012")]
    out += [acyclic_prefix_table(n, seed, alphabet) for n in (2, 40, 300) for seed in (1, 2)
            for alphabet in ("01", "012")]
    out += [trie_on_kernel(n_words, max_len, kernel, seed, alphabet)
            for n_words, max_len, kernel in ((1, 0, 1), (12, 6, 3), (40, 10, 5))
            for seed in (1, 2) for alphabet in ("01", "012")]
    return out


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


def acyclic_prefix_table(n, seed, alphabet="01"):
    """A random machine on n states whose first half only steps to higher ids.

    The second half is a random table on itself.  A random spanning tree, each
    state hung under an earlier one, makes every state reachable from 0.
    """
    rng = random.Random(seed)
    k, half = len(alphabet), n // 2
    delta = [[None] * k for _ in range(n)]
    free = [(0, ci) for ci in range(k)]
    for q in range(1, n):
        i = rng.randrange(len(free))
        free[i], free[-1] = free[-1], free[i]
        p, ci = free.pop()
        delta[p][ci] = q
        free += [(q, ci) for ci in range(k)]
    for q, row in enumerate(delta):
        low = q + 1 if q < half else half
        for ci, t in enumerate(row):
            if t is None:
                row[ci] = rng.randrange(low, n)
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(alphabet, 0, accepting, tuple(map(tuple, delta)))


def trie_on_kernel(n_words, max_len, kernel, seed, alphabet="01"):
    """The trie of random words, whose missing edges enter a small random kernel.

    Trie nodes come first, numbered as their prefixes are first met, and the
    drawn words accept.  The first symbol steps around the kernel in a cycle,
    so the kernel is strongly connected; a trie leaf leads into it.
    """
    rng = random.Random(seed)
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
             for _ in range(n_words)]
    node_of = {"": 0}
    for w in words:
        for i in range(1, len(w) + 1):
            node_of.setdefault(w[:i], len(node_of))
    t = len(node_of)
    delta = [tuple(node_of.get(w + a, t + rng.randrange(kernel)) for a in alphabet)
             for w in node_of]
    delta += [tuple(t + ((q + 1) % kernel if ci == 0 else rng.randrange(kernel))
                    for ci in range(len(alphabet))) for q in range(kernel)]
    accepting = {node_of[w] for w in words} | {t + q for q in range(kernel) if rng.random() < 0.5}
    return Dfa(alphabet, 0, frozenset(accepting), tuple(delta))
