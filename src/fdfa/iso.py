"""Isomorphisms between the infinite parts and between the finite parts of two DFAs."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, disjoint_union
from .classes import finite_difference_classes
from .fmin import is_f_minimal
from .minimize import moore_blocks
from .parts import compute_parts

INFINITE_PART = "infinite"
FINITE_PART = "finite"


@dataclass(frozen=True)
class StateBijection:
    """A bijection between the tagged parts of two machines, as sorted (from, to) pairs."""

    part: str  # INFINITE_PART or FINITE_PART
    mapping: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


def verify_bijection(a: Dfa, b: Dfa, bij: StateBijection) -> tuple[bool, str | None]:
    """Check the part-isomorphism conditions; returns (ok, first broken condition).

    A malformed bijection (domain or range not exactly the tagged part, or a
    repeated source/target) raises instead of returning false.
    """
    parts_a = compute_parts(a)
    parts_b = compute_parts(b)
    if bij.part == INFINITE_PART:
        dom_expect, rng_expect = parts_a.infinite, parts_b.infinite
    elif bij.part == FINITE_PART:
        dom_expect, rng_expect = parts_a.finite, parts_b.finite
    else:
        raise ValueError(f"unknown part tag {bij.part!r}")
    sources = [s for s, _ in bij.mapping]
    targets = [t for _, t in bij.mapping]
    if len(set(sources)) != len(sources) or set(sources) != dom_expect:
        raise ValueError(f"domain is not exactly the {bij.part} part of the left automaton")
    if len(set(targets)) != len(targets) or set(targets) != rng_expect:
        raise ValueError(f"range is not exactly the {bij.part} part of the right automaton")
    fmap = bij.as_dict()
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
    # one Moore partition of both machines: equal languages share a block, so
    # a machine is minimized exactly when its states fill distinct blocks
    block_of = moore_blocks(*disjoint_union(a, b)).block_of
    n = a.n_states
    if len(set(block_of[:n])) != n:
        raise ValueError("left automaton is not minimized")
    if len(set(block_of[n:])) != b.n_states:
        raise ValueError("right automaton is not minimized")
    inf_a = sorted(compute_parts(a).infinite)
    inf_b = compute_parts(b).infinite
    if len(inf_a) != len(inf_b):
        return None
    partner_in_block = {block_of[n + r]: r for r in inf_b}
    mapping = []
    for q in inf_a:
        partner = partner_in_block.get(block_of[q])
        if partner is None:
            return None
        mapping.append((q, partner))
    if len({t for _, t in mapping}) != len(inf_b):
        return None
    return StateBijection(INFINITE_PART, tuple(mapping))


def finite_part_iso(a: Dfa, b: Dfa) -> StateBijection:
    """Pair up finite-part states of two f-minimal, finitely different machines.

    In an f-minimal machine every finite-part state is the only representative
    of its class, so matching by class membership is forced; the transition
    condition (acceptance is deliberately unconstrained) is verified and a
    failure raises, as the hypotheses make it impossible.
    """
    ok_a, _ = is_f_minimal(a)
    if not ok_a:
        raise ValueError("left automaton is not f-minimal")
    ok_b, _ = is_f_minimal(b)
    if not ok_b:
        raise ValueError("right automaton is not f-minimal")
    # the union classes answer the precondition too: L(a) ~ L(b) iff the two
    # start states share a class
    class_of = finite_difference_classes(*disjoint_union(a, b))
    n = a.n_states
    if class_of[a.start] != class_of[n + b.start]:
        raise ValueError("automata are not finitely different")
    fin_a = sorted(compute_parts(a).finite)
    fin_b = sorted(compute_parts(b).finite)
    if len(fin_a) != len(fin_b):
        raise AssertionError("finite parts have different sizes; this is a bug")
    fin_b_by_class: dict[int, list[int]] = {}
    for r in fin_b:
        fin_b_by_class.setdefault(class_of[n + r], []).append(r)
    mapping = []
    for p in fin_a:
        partners = fin_b_by_class.get(class_of[p], [])
        if len(partners) != 1:
            raise AssertionError(
                f"state {p} has {len(partners)} class partners, expected exactly one; this is a bug"
            )
        mapping.append((p, partners[0]))
    bij = StateBijection(FINITE_PART, tuple(mapping))
    ok, reason = verify_bijection(a, b, bij)
    if not ok:
        raise AssertionError(f"finite-part map fails verification ({reason}); this is a bug")
    return bij
