"""Second implementations that the tests compare the package against.

Each one reaches the same answer as a runtime procedure by a different route:
the parts by layered counting instead of cycle reachability, finiteness by the
shape of the minimal machine instead of cycle analysis, and the infinite-part
isomorphism through long representative words instead of one Moore partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from fdfa.core import (
    Dfa,
    Word,
    induce,
    product_xor,
    reachable_states,
    shortest_cycle_word,
    shortest_word_to,
    states_on_cycles,
)
from fdfa.iso import INFINITE_PART, StateBijection, _require_minimized, verify_bijection
from fdfa.language import symmetric_difference
from fdfa.minimize import minimize
from fdfa.parts import PartsPartition, compute_parts


def compute_parts_by_counting(d: Dfa) -> PartsPartition:
    """Split states by layered reachability over 2n levels.

    A state is in the infinite part iff some word of length in [n, 2n) reaches
    it, because any such run repeats a state and can be pumped.
    """
    n = d.n_states
    delta = d.delta
    layer = {d.start}
    infinite: set[int] = set()
    for depth in range(2 * n):
        if depth >= n:
            infinite |= layer
        layer = {t for q in layer for t in delta[q]}
    finite = frozenset(set(d.states) - infinite)
    return PartsPartition(finite, frozenset(infinite))


def finite_language_by_minimization(d: Dfa) -> bool:
    """Finiteness decided structurally: minimize, then ask whether the infinite
    part is exactly one non-accepting state looping to itself."""
    m = minimize(d)
    inf = compute_parts(m).infinite
    if len(inf) != 1:
        return False
    (sink,) = inf
    return sink not in m.accepting and all(t == sink for t in m.delta[sink])


def states_finitely_different_by_shape(d: Dfa, p: int, q: int) -> bool:
    """The same verdict as :func:`fdfa.classes.states_finitely_different`, via the structural test."""
    for s in (p, q):
        if s not in d.states:
            raise ValueError(f"state {s} out of range")
    prod = product_xor(induce(d, p), induce(d, q))
    return finite_language_by_minimization(prod.dfa)


@dataclass(frozen=True)
class RepresentativeAssignment:
    """The long witness words used to transport infinite-part states across machines."""

    threshold: int  # every representative is strictly longer than this
    words: tuple[tuple[int, Word], ...]

    def word_for(self, q: int) -> Word:
        return dict(self.words)[q]


def iso_from_representatives(a: Dfa, b: Dfa) -> tuple[StateBijection, RepresentativeAssignment]:
    """Build the infinite-part isomorphism constructively through long witness words.

    For each infinite-part state q of ``a``, pump the first discovered cycle on
    a path to q (smallest-id cycle entry, shortlex-least words) until the word
    w_q is longer than N = |states(a)| * |states(b)|, and map q to where ``b``
    takes w_q.  Requires both machines minimized and finitely different; the
    resulting map is verified and any failure raises, since it would contradict
    the length-threshold argument.
    """
    _require_minimized(a, "left")
    _require_minimized(b, "right")
    if not symmetric_difference(a, b).finite:
        raise ValueError("automata are not finitely different")
    threshold = a.n_states * b.n_states
    inf_a = sorted(compute_parts(a).infinite)
    inf_b = compute_parts(b).infinite
    cycle_entries = sorted(states_on_cycles(a.delta))
    reach_from = {c: reachable_states(a.delta, c) for c in cycle_entries}
    mapping = []
    reps = []
    for q in inf_a:
        entry = next(c for c in cycle_entries if q in reach_from[c])
        prefix = shortest_word_to(a, a.start, {entry})
        pump = shortest_cycle_word(a, entry)
        tail = shortest_word_to(a, entry, {q})
        base = len(prefix) + len(tail)
        pumps = max(0, -(-(threshold + 1 - base) // len(pump)))
        word = prefix + pump * pumps + tail
        if a.run(word) != q:
            raise AssertionError(f"representative word does not reach state {q}; this is a bug")
        mapping.append((q, b.run(word)))
        reps.append((q, word))
    if {t for _, t in mapping} != inf_b:
        raise AssertionError("representative map does not target the infinite part; this is a bug")
    bij = StateBijection(INFINITE_PART, tuple(mapping))
    ok, reason = verify_bijection(a, b, bij)
    if not ok:
        raise AssertionError(f"representative map fails verification ({reason}); this is a bug")
    return bij, RepresentativeAssignment(threshold, tuple(reps))
