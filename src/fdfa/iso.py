"""Isomorphisms between the infinite parts and between the finite parts of two DFAs."""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlphabetMismatchError, Dfa, disjoint_union
from .classes import _TableAnalysis

INFINITE_PART = "infinite"
FINITE_PART = "finite"


@dataclass(frozen=True)
class StateBijection:
    """A bijection between the tagged parts of two machines, as sorted (from, to) pairs."""

    part: str  # INFINITE_PART or FINITE_PART
    mapping: tuple[tuple[int, int], ...]


def verify_bijection(a: Dfa, b: Dfa, bij: StateBijection) -> tuple[bool, str | None]:
    """Check the part-isomorphism conditions; returns (ok, first broken condition).

    A malformed bijection (domain or range not exactly the tagged part, or a
    repeated source/target) raises instead of returning false, and so do
    machines over different alphabets.
    """
    return _verify(_TableAnalysis(*disjoint_union(a, b)), a, b, bij)


def _verify(table: _TableAnalysis, a: Dfa, b: Dfa, bij: StateBijection) -> tuple[bool, str | None]:
    # verify_bijection on ``table``, the analysis of ``disjoint_union(a, b)``
    if bij.part not in (INFINITE_PART, FINITE_PART):
        raise ValueError(f"unknown part tag {bij.part!r}")
    n = a.n_states
    finite = bij.part == FINITE_PART
    dom_expect = set(table.part(range(n), finite))
    rng_expect = set(table.part(range(n, n + b.n_states), finite))
    sources = [s for s, _ in bij.mapping]
    targets = [t for _, t in bij.mapping]
    if len(set(sources)) != len(sources) or set(sources) != dom_expect:
        raise ValueError(f"domain is not exactly the {bij.part} part of the left automaton")
    if len(set(targets)) != len(targets) or set(targets) != rng_expect:
        raise ValueError(f"range is not exactly the {bij.part} part of the right automaton")
    fmap = dict(bij.mapping)
    if bij.part == INFINITE_PART:
        for q in sorted(fmap):
            if (q in a.accepting) != (fmap[q] in b.accepting):
                return False, f"acceptance differs at state {q}"
        for q in sorted(fmap):
            for ci, sym in enumerate(a.alphabet):
                # successors of infinite-part states stay in the infinite part
                if fmap[a.delta[q][ci]] != b.delta[fmap[q]][ci]:
                    return False, f"transition mismatch at state {q} on {sym!r}"
    else:
        for p in sorted(fmap):
            for ci, sym in enumerate(a.alphabet):
                r = a.delta[p][ci]
                if r in fmap and b.delta[fmap[p]][ci] != fmap[r]:
                    return False, f"finite-part transition mismatch at state {p} on {sym!r}"
    return True, None


def infinite_part_iso(a: Dfa, b: Dfa) -> StateBijection | None:
    """Match infinite-part states across two minimized machines by exact language.

    An infinite-part isomorphism forces equal state languages, and in minimized
    machines each language occurs at most once, so this matching succeeds
    exactly when the infinite parts are isomorphic, and is then unique.
    """
    # one Moore partition and one peel of both machines: equal languages share
    # a block, so a machine is minimized exactly when its states fill distinct
    # blocks
    table = _TableAnalysis(*disjoint_union(a, b))
    block_of = table.blocks.block_of
    n = a.n_states
    if len(set(block_of[:n])) != n:
        raise ValueError("left automaton is not minimized")
    if len(set(block_of[n:])) != b.n_states:
        raise ValueError("right automaton is not minimized")
    inf_a = table.part(range(n), finite=False)
    inf_b = table.part(range(n, len(block_of)), finite=False)
    # a block holds at most one state of each machine, so the map is one-to-one
    partner_in_block = {block_of[n + r]: r for r in inf_b}
    mapping = tuple((q, partner_in_block.get(block_of[q])) for q in inf_a)
    if len(inf_a) != len(inf_b) or any(r is None for _, r in mapping):
        return None
    return StateBijection(INFINITE_PART, mapping)


def finite_part_iso(a: Dfa, b: Dfa) -> StateBijection:
    """Pair up finite-part states of two f-minimal, finitely different machines.

    In an f-minimal machine every finite-part state is the only representative
    of its class, so matching by class membership is forced; the transition
    condition (acceptance is deliberately unconstrained) is verified and a
    failure raises, as the hypotheses make it impossible.
    """
    try:
        table = _TableAnalysis(*disjoint_union(a, b))
    except AlphabetMismatchError:
        # the f-minimality checks come first, as they would on one alphabet
        for d, side in ((a, "left"), (b, "right")):
            if _TableAnalysis(d.delta, d.accepting).mergeable_pair(d.states) is not None:
                raise ValueError(f"{side} automaton is not f-minimal") from None
        raise
    # one Moore partition, one peel and one ~ pass of the union answer both
    # f-minimality checks, the precondition (L(a) ~ L(b) iff the two start
    # states share a class), the matching and its verification
    n = a.n_states
    left, right = range(n), range(n, n + b.n_states)
    for side, states in (("left", left), ("right", right)):
        if table.mergeable_pair(states) is not None:
            raise ValueError(f"{side} automaton is not f-minimal")
    class_of = table.class_of
    if class_of[a.start] != class_of[n + b.start]:
        raise ValueError("automata are not finitely different")
    fin_a = table.part(left, finite=True)
    fin_b = table.part(right, finite=True)
    if len(fin_a) != len(fin_b):
        raise AssertionError("finite parts have different sizes; this is a bug")
    # b is f-minimal, so a class holds at most one of its finite-part states
    partner_in_class = {class_of[n + r]: r for r in fin_b}
    mapping = []
    for p in fin_a:
        if class_of[p] not in partner_in_class:
            raise AssertionError(
                f"state {p} has 0 class partners, expected exactly one; this is a bug")
        mapping.append((p, partner_in_class[class_of[p]]))
    bij = StateBijection(FINITE_PART, tuple(mapping))
    ok, reason = _verify(table, a, b, bij)
    if not ok:
        raise AssertionError(f"finite-part map fails verification ({reason}); this is a bug")
    return bij
