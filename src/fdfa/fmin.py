"""f-merging and f-minimization: shrinking a DFA within its finite-difference class.

An f-merge deletes a finite-part state p and redirects its inbound transitions
to a finitely different state q.  The language changes by at most |X|*|Z| words,
where X is the set of words into p and Z the difference of the two state
languages.  Repeating greedy f-merges from a minimized machine reaches a
machine of minimum size within its class (no local minima).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Dfa, _trim, induce, states_reaching
from .classes import state_class_partition
from .language import _count_words, symmetric_difference
from .minimize import is_minimized, minimize, moore_blocks
from .parts import compute_parts, words_reaching


class FMergeError(ValueError):
    """An f-merge precondition failed."""


def _merge(d: Dfa, p: int, q: int) -> Dfa:
    # assumes preconditions already checked
    keep = [s for s in d.states if s != p]
    remap = {old: new for new, old in enumerate(keep)}

    def redirect(t: int) -> int:
        return q if t == p else t

    delta = [tuple(remap[redirect(t)] for t in d.delta[s]) for s in keep]
    start = remap[redirect(d.start)]
    accepting = frozenset(remap[s] for s in d.accepting if s != p)
    merged, _ = _trim(d.alphabet, start, accepting, delta)
    return merged


def f_merge(d: Dfa, p: int, q: int) -> Dfa:
    """Delete p (a finite-part state) and send its traffic to q, where p ~ q.

    States reachable only through p are trimmed; ids are reindexed densely.  If
    p was the start, q becomes the start.
    """
    for s in (p, q):
        if s not in d.states:
            raise FMergeError(f"state {s} out of range")
    if p == q:
        raise FMergeError(f"cannot merge state {p} with itself")
    if p not in compute_parts(d).finite:
        raise FMergeError(f"state {p} is in the infinite part")
    class_of = state_class_partition(d).class_of
    if class_of[p] != class_of[q]:
        raise FMergeError(f"states {p} and {q} are not finitely different")
    return _merge(d, p, q)


@dataclass(frozen=True)
class MergeRecord:
    """One performed f-merge, with enough context to audit its diff bound.

    X is the set of words that reach the deleted state and Z the set where the
    deleted and target states' induced languages disagree; the language change
    caused by this merge is a subset of X.Z, so at most |X|*|Z| words.  The
    record keeps the counts ``n_into`` = |X| and ``n_diff`` = |Z|, which can be
    exponential in the state count; ``words_into_merged`` and
    ``class_diff_words`` list X and Z from ``before`` only when asked.  State
    ids refer to the machine current at merge time (``before``).
    """

    merged: int
    target: int
    class_id: int
    n_into: int
    n_diff: int
    before: Dfa
    after: Dfa

    @property
    def bound(self) -> int:
        return self.n_into * self.n_diff

    # listed once per record on the first read: a nested loop over X and Z
    # reads Z again for every word of X
    @cached_property
    def words_into_merged(self) -> tuple[str, ...]:
        """X, shortlex-sorted."""
        return tuple(words_reaching(self.before, self.merged))

    @cached_property
    def class_diff_words(self) -> tuple[str, ...]:
        """Z, shortlex-sorted."""
        return symmetric_difference(induce(self.before, self.merged),
                                    induce(self.before, self.target)).words


def _pick_merge(parts, classes, reverse: bool) -> tuple[int, int] | None:
    finite = parts.finite
    infinite = parts.infinite
    candidates = [
        p for p in finite if len(classes.members(classes.class_of[p])) > 1
    ]
    if not candidates:
        return None
    # canonical order merges the largest-id candidate first: on canonically
    # minimized machines ids follow BFS depth, so deep states go first and a
    # merge cannot orphan the remaining candidates via trimming
    p = max(candidates) if not reverse else min(candidates)
    mates = [s for s in classes.members(classes.class_of[p]) if s != p]
    infinite_mates = [s for s in mates if s in infinite]
    pool = infinite_mates or mates
    q = min(pool) if not reverse else max(pool)
    return p, q


def f_minimize(d: Dfa, *, order: str = "canonical") -> tuple[Dfa, tuple[MergeRecord, ...]]:
    """Minimize, then greedily f-merge until no finite-part state has a classmate.

    ``order`` is "canonical" or "reversed"; both reach a smallest machine in the
    class, the trace merely differs.  Parts and classes are recomputed from
    scratch after every merge.  Each record counts X and Z by paths and lists
    no word, so the trace costs polynomial time however large its bounds are.
    """
    if order not in ("canonical", "reversed"):
        raise ValueError(f"unknown order {order!r}")
    reverse = order == "reversed"
    m = minimize(d)
    trace: list[MergeRecord] = []
    while True:
        parts = compute_parts(m)
        classes = state_class_partition(m)
        picked = _pick_merge(parts, classes, reverse)
        if picked is None:
            break
        p, q = picked
        merged = _merge(m, p, q)
        trace.append(
            MergeRecord(
                merged=p,
                target=q,
                class_id=classes.class_of[p],
                # p is in the finite part, so every state reaching it is acyclic
                n_into=_count_words(m, states_reaching(m.delta, {p}), {p}),
                n_diff=symmetric_difference(induce(m, p), induce(m, q)).n_words,
                before=m,
                after=merged,
            )
        )
        m = merged
    if not is_minimized(m):
        raise AssertionError("f-minimization fixpoint is not minimized; this is a bug")
    return m, tuple(trace)


def is_f_minimal(d: Dfa) -> tuple[bool, tuple[int, int] | None]:
    """Smallest in its class?  True iff minimized and no finite-part state has a classmate.

    When false, returns a violating pair (p, q) that could be merged.
    """
    part = moore_blocks(d.delta, d.accepting)
    if part.n_blocks < d.n_states:
        by_block: dict[int, int] = {}
        for s, b in enumerate(part.block_of):
            if b in by_block:
                return False, (by_block[b], s)
            by_block[b] = s
    parts = compute_parts(d)
    classes = state_class_partition(d)
    for p in sorted(parts.finite):
        mates = [s for s in classes.members(classes.class_of[p]) if s != p]
        if mates:
            return False, (p, min(mates))
    return True, None


def flip_finite_acceptance(d: Dfa, states) -> Dfa:
    """Toggle acceptance on a set of finite-part states.

    Changes the language on exactly the (finitely many) words reaching those
    states, so the result stays in the machine's class; f-minimality and the
    transition structure are untouched.
    """
    flip = frozenset(states)
    for s in flip:
        if s not in d.states:
            raise ValueError(f"state {s} out of range")
    outside = flip - compute_parts(d).finite
    if outside:
        raise FMergeError(f"states not in the finite part: {sorted(outside)}")
    return Dfa(d.alphabet, d.start, d.accepting ^ flip, d.delta)


def redirect_boundary_transition(d: Dfa, source: int, symbol: str, new_target: int) -> Dfa:
    """Retarget one finite-to-infinite transition within the old target's class.

    The edge must leave a finite-part state and currently enter the infinite
    part; the new target must also be an infinite-part state finitely different
    from the old one.  Redirecting to the current target returns ``d`` itself.
    """
    if source not in d.states:
        raise ValueError(f"state {source} out of range")
    if new_target not in d.states:
        raise ValueError(f"state {new_target} out of range")
    ci = d.symbol_index(symbol)
    parts = compute_parts(d)
    if source not in parts.finite:
        raise FMergeError(f"source state {source} is not in the finite part")
    old = d.delta[source][ci]
    if old not in parts.infinite:
        raise FMergeError(f"transition ({source}, {symbol!r}) does not enter the infinite part")
    if new_target not in parts.infinite:
        raise FMergeError(f"new target {new_target} is not in the infinite part")
    class_of = state_class_partition(d).class_of
    if class_of[old] != class_of[new_target]:
        raise FMergeError(
            f"new target {new_target} is not finitely different from old target {old}"
        )
    if new_target == old:
        return d
    delta = [list(row) for row in d.delta]
    delta[source][ci] = new_target
    redirected, _ = _trim(d.alphabet, d.start, d.accepting, delta)
    return redirected
