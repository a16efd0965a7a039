"""f-merging and f-minimization: shrinking a DFA within its finite-difference class.

An f-merge deletes a finite-part state p and redirects its inbound transitions
to a finitely different state q.  The language changes by at most |X|*|Z| words,
where X is the set of words into p and Z the difference of the two state
languages.  Repeating greedy f-merges from a minimized machine reaches a
machine of minimum size within its class (no local minima).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import Dfa, _check_states, _forward_closure, _trim, _xor_rows, states_reaching
from .classes import _TableAnalysis
from .language import _count_words
from .minimize import StatePartition, is_minimized, minimize


class FMergeError(ValueError):
    """An f-merge precondition failed."""


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
    table = _TableAnalysis(d.delta, d.accepting)
    if p not in table.finite:
        raise FMergeError(f"state {p} is in the infinite part")
    if table.class_of[p] != table.class_of[q]:
        raise FMergeError(f"states {p} and {q} are not finitely different")
    # with every edge into p sent to q, trimming drops p and the states
    # reachable only through it, keeping id order
    rows = [[q if t == p else t for t in row] for row in d.delta]
    merged, _ = _trim(d.alphabet, q if d.start == p else d.start, d.accepting, rows)
    return merged


@dataclass(frozen=True)
class MergeRecord:
    """One performed f-merge: the ids it decided and the factors of its diff bound.

    X is the set of words that reach the deleted state and Z the set where the
    deleted and target states' induced languages disagree; the language change
    caused by this merge is a subset of X.Z, so at most |X|*|Z| words.  The
    record keeps the counts ``n_into`` = |X| and ``n_diff`` = |Z|, which can be
    exponential in the state count, and lists neither set.  State ids refer to
    the machine current at merge time.  A record holds no machine: replaying
    the records of one call through :func:`f_merge` from ``minimize(d)``
    rebuilds the machine before and after each merge.
    """

    merged: int
    target: int
    class_id: int
    n_into: int
    n_diff: int

    @property
    def bound(self) -> int:
        return self.n_into * self.n_diff


def f_minimize(d: Dfa, *, order: str = "canonical") -> tuple[Dfa, tuple[MergeRecord, ...]]:
    """Minimize, then greedily f-merge until no finite-part state has a classmate.

    ``order`` is "canonical" or "reversed"; both reach a smallest machine in the
    class, the trace merely differs.  The records hold ids and counts only;
    ``m = f_merge(m, r.merged, r.target)`` for each record, from
    ``m = minimize(d)``, rebuilds the machines between the merges.

    The finite part (one peel) and ~ classes are computed once, on the
    minimized machine; with no finite part, or no finite-part state with a
    classmate, it is returned as is, with no merge table built and no closing
    check, since :func:`minimize` built it minimal.
    Otherwise both are carried through the merges, which leave both unchanged
    on the surviving states (Holzer & Maletti, TCS 2010, Alg. 3): a merge
    changes the language of only the finite-part ancestors of the merged
    state, and by finitely many words; it closes no cycle; and the states it
    cuts off are finite-part states that were reachable through the merged
    state alone.  So the candidates are listed once, sorted, and swept in
    order, skipping an entry that an earlier merge cut off or left with no
    live classmate.  The merges run on one table in the minimized machine's
    ids.  Redirection and trimming keep id order, so a state's id in the
    machine current at a merge is its rank among the surviving ids.  Each
    record counts X and Z by paths on that table and lists no word, so the
    trace costs polynomial time however large its bounds are.
    """
    if order not in ("canonical", "reversed"):
        raise ValueError(f"unknown order {order!r}")
    reverse = order == "reversed"
    m0 = minimize(d)
    n = m0.n_states
    table = _TableAnalysis(m0.delta, m0.accepting)
    finite = set(table.finite)
    # a merge deletes a finite-part state that has a classmate, so without
    # one m0 is already f-minimal
    if not finite:
        return m0, ()
    table.blocks = StatePartition(tuple(range(n)), n)  # m0 is minimized: no refinement
    # the analysis belongs to this call, so the merges may edit its member lists
    class_of, members = table.class_of, table.members
    # a merge only drops states, so no state becomes a candidate later, and the
    # next entry still finite and with a live classmate is the largest
    # (smallest) candidate left.  Canonical order takes the largest id first: on
    # canonically minimized machines ids follow BFS depth, so deep states go
    # first and a merge cannot orphan the remaining candidates via trimming
    sweep = sorted((p for p in finite if len(members[class_of[p]]) > 1), reverse=not reverse)
    if not sweep:
        return m0, ()
    rows = [list(row) for row in m0.delta]
    accepting = m0.accepting
    start = m0.start
    alive = list(range(n))  # sorted, so a state's id at merge time is its index here
    preds: list[set[int]] = [set() for _ in range(n)]  # the live states with an edge in
    for s, row in enumerate(rows):
        for t in row:
            preds[t].add(s)
    trace: list[MergeRecord] = []
    for p in sweep:
        mates = [s for s in members[class_of[p]] if s != p]
        if p not in finite or not mates:
            continue  # an earlier merge cut p off or left it no live classmate
        # members hold live states only, and a live state outside ``finite`` is
        # in the infinite part
        pool = [s for s in mates if s not in finite] or mates
        q = min(pool) if not reverse else max(pool)
        _, pair_rows, differ = _xor_rows(rows, accepting, rows, accepting, (p, q))
        trace.append(
            MergeRecord(
                merged=bisect_left(alive, p),
                target=bisect_left(alive, q),
                class_id=bisect_left(alive, members[class_of[p]][0]),
                # p is in the finite part, so every state reaching it is acyclic;
                # a closure over the predecessor sets collects those states
                n_into=_count_words(rows, start, set(_forward_closure(preds, (p,))), {p}),
                n_diff=_count_words(pair_rows, 0, states_reaching(pair_rows, differ), differ),
            )
        )
        for s in preds[p]:
            rows[s] = [q if t == p else t for t in rows[s]]
        preds[q] |= preds[p]
        if start == p:
            start = q
        # the states a merge cuts off lie in the acyclic finite part, so one is
        # cut off exactly when no live state has an edge into it any more
        dropped = [p]
        while dropped:
            x = dropped.pop()
            del alive[bisect_left(alive, x)]
            finite.discard(x)
            members[class_of[x]].remove(x)
            for t in set(rows[x]):
                preds[t].discard(x)
                if not preds[t] and t != start:
                    dropped.append(t)
    m, _ = _trim(m0.alphabet, start, accepting, rows)
    return _checked(m), tuple(trace)


def _checked(m: Dfa) -> Dfa:
    if not is_minimized(m):
        raise AssertionError("f-minimization fixpoint is not minimized; this is a bug")
    return m


def is_f_minimal(d: Dfa) -> tuple[bool, tuple[int, int] | None]:
    """Smallest in its class?  True iff minimized and no finite-part state has a classmate.

    When false, returns a violating pair (p, q) that could be merged.
    """
    pair = _TableAnalysis(d.delta, d.accepting).mergeable_pair(d.states)
    return pair is None, pair


def flip_finite_acceptance(d: Dfa, states) -> Dfa:
    """Toggle acceptance on a set of finite-part states.

    Changes the language on exactly the (finitely many) words reaching those
    states, so the result stays in the machine's class; f-minimality and the
    transition structure are untouched.
    """
    flip = frozenset(states)
    _check_states(d, *flip)
    outside = flip - _TableAnalysis(d.delta, d.accepting).finite
    if outside:
        raise FMergeError(f"states not in the finite part: {sorted(outside)}")
    return Dfa(d.alphabet, d.start, d.accepting ^ flip, d.delta)


def redirect_boundary_transition(d: Dfa, source: int, symbol: str, new_target: int) -> Dfa:
    """Retarget one finite-to-infinite transition within the old target's class.

    The edge must leave a finite-part state and currently enter the infinite
    part; the new target must also be an infinite-part state finitely different
    from the old one.  Redirecting to the current target returns ``d`` itself.
    """
    _check_states(d, source, new_target)
    ci = d.symbol_index(symbol)
    table = _TableAnalysis(d.delta, d.accepting)
    if source not in table.finite:
        raise FMergeError(f"source state {source} is not in the finite part")
    old = d.delta[source][ci]
    if old in table.finite:
        raise FMergeError(f"transition ({source}, {symbol!r}) does not enter the infinite part")
    if new_target in table.finite:
        raise FMergeError(f"new target {new_target} is not in the infinite part")
    if table.class_of[old] != table.class_of[new_target]:
        raise FMergeError(
            f"new target {new_target} is not finitely different from old target {old}"
        )
    if new_target == old:
        return d
    delta = [list(row) for row in d.delta]
    delta[source][ci] = new_target
    redirected, _ = _trim(d.alphabet, d.start, d.accepting, delta)
    return redirected
