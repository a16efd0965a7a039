"""Second implementations that the tests compare the package against.

Each one reaches the same answer as a runtime procedure by a different route:
the parts by layered counting, or as the forward closure of the states that
Tarjan's SCCs put on a cycle, instead of in-degree peeling; the verdict
empty/finite/infinite by asking whether a useful state lies on such a cycle
instead of whether an accepting state survives peeling the whole table;
Moore refinement by one signature per state and round instead of one pass
over the table's columns; finiteness by the shape of the minimal machine
instead of cycle analysis, the ~ classes by
cycle reachability in the graph of block pairs instead of merging blocks with
equal successor vectors, the infinite-part isomorphism through long
representative words instead of one Moore partition, and the ``dfa v1`` reader
as a per-token parse of each logical line of ``str.splitlines`` keyed by
(state, symbol) pairs instead of reading canonical text by columns, the
header lazily, and other text with one tokenization per line keyed by ints,
the ``dfa v1`` writer as one formatted string per transition line
(``serialize_dfa_by_lines``) instead of one ``%`` format over the table,
the word count by a depth-first search from the start
(``count_words_by_search``) instead of one pass in reverse peeling order,
and the finite word list
as one (state, word) pair per prefix instead of one byte block of fixed-width
records per (state, length) pair.  ``signature_equal``, a verdict only the tests ask
for, lives here as well, with the cross-machine ``class_matching`` it reads,
and so do ``distinguishing_word`` (one xor product per pair of states) and
the per-pair witness check of ~
(``states_finitely_different``, ``cross_finitely_different`` and
``dfas_finitely_different``): one xor product per pair, against which the
tests compare the ~ engine.  ``iso_from_representatives`` checks its own
precondition that both machines are minimized.  ``f_minimize_by_recomputation``
recomputes the parts and ~ classes of the current machine before every merge
instead of carrying those of the minimized input through the merges, and
merges by ``merge_by_renumbering``, which deletes the merged state and
renumbers the rest before trimming, instead of redirecting the edges into it
and letting one trim drop it.  ``replay_merges`` rebuilds the machines
between the merges of an ``f_minimize`` trace, which holds ids and counts
only, through the checked ``f_merge``.
``random_dfa_by_lcg`` draws each random machine through the method calls of
an ``Lcg`` object instead of one local-variable loop per batch of draws.
``construct_pair_by_prefixes`` numbers the construction's states through a
list of prefix strings and a dict from prefix to rank instead of by rank
arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from fdfa.classes import finite_difference_classes, state_class_partition
from fdfa.core import (
    AlphabetMismatchError,
    Dfa,
    Word,
    _forward_closure,
    _lex_symbol_order,
    check_alphabet,
    check_word,
    disjoint_union,
    induce,
    product_xor,
    reachable_states,
    shortest_cycle_word,
    shortest_word_to,
    states_on_cycles,
    states_reaching,
    trim,
)
from fdfa.fmin import f_merge
from fdfa.formats import DfaFormatError, TrimWarning, _parse_int
from fdfa.iso import INFINITE_PART, StateBijection, verify_bijection
from fdfa.language import (
    EMPTY,
    FINITE,
    INFINITE,
    Classification,
    symmetric_difference,
    useful_states,
)
from fdfa.minimize import StatePartition, is_minimized, minimize, moore_blocks
from fdfa.parts import PartsPartition, compute_parts
from fdfa.rand import _LCG_INC, _LCG_MULT, _MASK64


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


def compute_parts_by_cycles(d: Dfa) -> PartsPartition:
    """Split states by cycle reachability: the infinite part is the forward
    closure of the states that Tarjan's SCCs put on a cycle."""
    infinite = set(_forward_closure(d.delta, states_on_cycles(d.delta)))
    finite = frozenset(set(d.states) - infinite)
    return PartsPartition(finite, frozenset(infinite))


def language_kind_by_cycles(d: Dfa) -> str:
    """EMPTY, FINITE or INFINITE: infinite exactly when a useful state lies on
    a cycle that Tarjan's SCCs find."""
    useful = useful_states(d)
    if d.start not in useful:
        return EMPTY
    return INFINITE if useful & states_on_cycles(d.delta) else FINITE


def moore_blocks_by_states(delta, accepting) -> StatePartition:
    """Refine {accepting, rejecting} by successor blocks until stable, one
    signature tuple per state and round; blocks are numbered in first-seen
    state order, as :func:`fdfa.minimize.moore_blocks` numbers them."""
    n = len(delta)
    labels: dict[bool, int] = {}
    block = [0] * n
    for q in range(n):
        key = q in accepting
        block[q] = labels.setdefault(key, len(labels))
    count = len(labels)
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        new = [0] * n
        for q in range(n):
            sig = (block[q], *(block[t] for t in delta[q]))
            new[q] = sigs.setdefault(sig, len(sigs))
        block = new
        if len(sigs) == count:
            return StatePartition(tuple(block), count)
        count = len(sigs)


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
    """The same verdict as :func:`states_finitely_different`, via the structural test."""
    for s in (p, q):
        if s not in d.states:
            raise ValueError(f"state {s} out of range")
    prod = product_xor(induce(d, p), induce(d, q))
    return finite_language_by_minimization(prod.dfa)


def finite_difference_classes_by_pair_graph(delta, accepting) -> tuple[int, ...]:
    """The ~ class of every state of a raw transition table, as its smallest member.

    Decides every pair at once on the pair graph of the b Moore blocks
    (Badr, Geffert & Shipman, RAIRO-ITA 2009): its nodes are the ordered pairs
    (x, y) of distinct blocks, and each symbol leads to (δx, δy) unless both
    successors share a block.  Every node has a non-empty difference, so the
    difference from (x, y) is infinite exactly when a cycle is reachable from
    it.  O(k·b²) time for k symbols.
    """
    part = moore_blocks(delta, accepting)
    block_of, b = part.block_of, part.n_blocks
    succ: list[list[int] | None] = [None] * b
    for q, x in enumerate(block_of):
        if succ[x] is None:
            succ[x] = [block_of[t] for t in delta[q]]
    rows = []
    for x in range(b):
        for y in range(b):
            # node x*b + y; diagonal nodes stay isolated
            rows.append(() if x == y else
                        tuple(u * b + v for u, v in zip(succ[x], succ[y]) if u != v))
    infinite = states_reaching(rows, states_on_cycles(rows))
    # ~ is an equivalence: each block joins the first earlier class it is ~ to
    leader = list(range(b))
    for x in range(b):
        for y in range(x):
            if leader[y] == y and x * b + y not in infinite:
                leader[x] = y
                break
    smallest: dict[int, int] = {}
    for q, x in enumerate(block_of):
        smallest.setdefault(leader[x], q)
    return tuple(smallest[leader[x]] for x in block_of)


def list_words_by_prefixes(d: Dfa, useful, targets) -> list[Word]:
    """Every word whose run from the start stays in ``useful`` and ends in
    ``targets``, shortlex-sorted.  No cycle may run through ``useful``.

    Breadth-first, one word length at a time, trying symbols in character
    order: each level then comes out sorted, so no sort is needed.
    """
    order = _lex_symbol_order(d)
    delta = d.delta
    out: list[Word] = []
    level: list[tuple[int, Word]] = [(d.start, "")]
    while level:
        nxt: list[tuple[int, Word]] = []
        for q, word in level:
            if q in targets:
                out.append(word)
            row = delta[q]
            for ci, sym in order:
                t = row[ci]
                if t in useful:
                    nxt.append((t, word + sym))
        level = nxt
    return out


def class_matching(a: Dfa, b: Dfa) -> dict[int, int] | None:
    """Bijection a-class-id -> b-class-id induced by ~ across machines, or None."""
    class_of = finite_difference_classes(*disjoint_union(a, b))
    n = a.n_states
    # in the union, a class holding a state of a is named by its smallest a-state
    a_ids = set(class_of[:n])
    b_id: dict[int, int] = {}
    for q in b.states:
        b_id.setdefault(class_of[n + q], q)
    if a_ids != b_id.keys():
        return None
    return {cid: b_id[cid] for cid in sorted(a_ids)}


def distinguishing_word(d: Dfa, p: int, q: int) -> Word | None:
    """Shortlex-least word accepted from exactly one of ``p`` and ``q``.

    Returns None when the two states have equal languages.  A breadth-first
    search of the xor product that tries symbols in character order meets
    the shortlex-least accepting pair first.
    """
    prod = product_xor(induce(d, p), induce(d, q)).dfa
    return shortest_word_to(prod, prod.start, prod.accepting)


def signature_equal(a: Dfa, b: Dfa) -> bool:
    """Do the two machines touch exactly the same ~ classes of languages?"""
    return class_matching(a, b) is not None


def states_finitely_different(d: Dfa, p: int, q: int) -> tuple[bool, Classification]:
    """Decide p ~ q inside one machine; the Classification gives words or a lasso.

    This is the witness API: it builds the product of the two induced machines
    and classifies it; the words or the lasso are built when read.  For the
    verdicts of many pairs use :func:`state_class_partition`.
    """
    for s in (p, q):
        if s not in d.states:
            raise ValueError(f"state {s} out of range")
    diff = symmetric_difference(induce(d, p), induce(d, q))
    return diff.finite, diff


def cross_finitely_different(a: Dfa, p: int, b: Dfa, q: int) -> tuple[bool, Classification]:
    """Decide p ~ q for states of two different machines over one alphabet (witness API)."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"alphabets differ: {a.alphabet!r} vs {b.alphabet!r}")
    if p not in a.states:
        raise ValueError(f"state {p} out of range")
    if q not in b.states:
        raise ValueError(f"state {q} out of range")
    diff = symmetric_difference(induce(a, p), induce(b, q))
    return diff.finite, diff


def dfas_finitely_different(a: Dfa, b: Dfa) -> tuple[bool, Classification]:
    """Machine-level ~: do L(a) and L(b) differ on only finitely many words?

    The Classification lists the words of a finite difference, or builds the
    lasso of an infinite one, when they are read.
    """
    diff = symmetric_difference(a, b)
    return diff.finite, diff


@dataclass(frozen=True)
class RepresentativeAssignment:
    """The long witness words used to transport infinite-part states across machines."""

    threshold: int  # every representative is strictly longer than this
    words: tuple[tuple[int, Word], ...]

    def word_for(self, q: int) -> Word:
        return dict(self.words)[q]


def _require_minimized(d: Dfa, side: str) -> None:
    if not is_minimized(d):
        raise ValueError(f"{side} automaton is not minimized")


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


def logical_lines_by_splitlines(text: str):
    """(line number, content) for each line of ``text.splitlines()`` that holds
    something once its ``#`` comment is cut and its blanks stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield line_no, content


def parse_dfa_by_lines(text: str, *, complete: bool = False) -> Dfa:
    """Parse the ``dfa v1`` format into a validated automaton.

    Unreachable states are dropped with a :class:`TrimWarning` and ids reindexed
    densely.  A missing transition is an error unless ``complete=True``, which
    routes every missing transition to a fresh rejecting sink before validation.
    """
    lines = logical_lines_by_splitlines(text)

    def next_line(expect: str):
        try:
            return next(lines)
        except StopIteration:
            raise DfaFormatError(f"unexpected end of input, expected {expect}") from None

    line_no, magic = next_line("'dfa v1' header")
    if magic != "dfa v1":
        raise DfaFormatError(f"expected 'dfa v1' header, got {magic!r}", line_no)

    line_no, decl = next_line("alphabet line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "alphabet":
        raise DfaFormatError("expected 'alphabet <symbols>'", line_no)
    alphabet = fields[1]
    try:
        check_alphabet(alphabet)
    except ValueError as exc:
        raise DfaFormatError(str(exc), line_no) from None

    line_no, decl = next_line("states line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "states":
        raise DfaFormatError("expected 'states <count>'", line_no)
    n = _parse_int(fields[1], "state count", line_no)
    if n < 1:
        raise DfaFormatError(f"state count must be positive, got {n}", line_no)

    line_no, decl = next_line("start line")
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "start":
        raise DfaFormatError("expected 'start <id>'", line_no)
    start = _parse_int(fields[1], "start state", line_no)
    if not 0 <= start < n:
        raise DfaFormatError(f"start state {start} out of range 0..{n - 1}", line_no)

    line_no, decl = next_line("accept line")
    fields = decl.split()
    if len(fields) < 2 or fields[0] != "accept":
        raise DfaFormatError("expected 'accept <ids>' or 'accept -'", line_no)
    accepting: set[int] = set()
    if fields[1:] != ["-"]:
        for token in fields[1:]:
            q = _parse_int(token, "accepting state", line_no)
            if not 0 <= q < n:
                raise DfaFormatError(f"accepting state {q} out of range 0..{n - 1}", line_no)
            accepting.add(q)

    k = len(alphabet)
    table: dict[tuple[int, int], int] = {}
    for line_no, decl in lines:
        fields = decl.split()
        if len(fields) != 3:
            raise DfaFormatError(f"expected '<from> <symbol> <to>', got {decl!r}", line_no)
        src = _parse_int(fields[0], "source state", line_no)
        if not 0 <= src < n:
            raise DfaFormatError(f"source state {src} out of range 0..{n - 1}", line_no)
        if fields[1] not in alphabet or len(fields[1]) != 1:
            raise DfaFormatError(f"symbol {fields[1]!r} not in alphabet {alphabet!r}", line_no)
        ci = alphabet.index(fields[1])
        dst = _parse_int(fields[2], "target state", line_no)
        if not 0 <= dst < n:
            raise DfaFormatError(f"target state {dst} out of range 0..{n - 1}", line_no)
        if (src, ci) in table:
            raise DfaFormatError(f"duplicate transition for state {src} on {fields[1]!r}", line_no)
        table[(src, ci)] = dst

    # every check below costs what the input holds, never what ``states`` declares
    missing = n * k - len(table)
    sink = n
    if missing:
        if not complete:
            q, ci = next((q, ci) for q in range(n) for ci in range(k) if (q, ci) not in table)
            raise DfaFormatError(
                f"incomplete transition table: state {q} has no transition on {alphabet[ci]!r}"
                f" ({missing} missing in total)"
            )
        n += 1
        for ci in range(k):
            table[(sink, ci)] = sink

    # rows exist only for states reachable from the start; missing transitions go to the sink
    rows = {start: tuple(table.get((start, ci), sink) for ci in range(k))}
    queue = [start]
    for q in queue:
        for t in rows[q]:
            if t not in rows:
                rows[t] = tuple(table.get((t, ci), sink) for ci in range(k))
                queue.append(t)
    if len(rows) < n:
        dropped = n - len(rows)
        plural = "" if dropped == 1 else "s"
        warnings.warn(f"trimmed {dropped} unreachable state{plural}", TrimWarning, stacklevel=2)
    # reindex densely, keeping id order among the survivors as :func:`trim` does
    keep = sorted(rows)
    new_id = {old: new for new, old in enumerate(keep)}
    delta = tuple(tuple(new_id[t] for t in rows[old]) for old in keep)
    return Dfa(alphabet, new_id[start], frozenset(new_id[q] for q in accepting if q in new_id), delta)


def serialize_dfa_by_lines(d: Dfa) -> str:
    """Canonical ``dfa v1`` text: transitions sorted by (from, symbol), accept ascending."""
    lines = [
        "dfa v1",
        f"alphabet {d.alphabet}",
        f"states {d.n_states}",
        f"start {d.start}",
    ]
    if d.accepting:
        lines.append("accept " + " ".join(str(q) for q in sorted(d.accepting)))
    else:
        lines.append("accept -")
    order = _lex_symbol_order(d)
    for q, row in enumerate(d.delta):
        for ci, sym in order:
            lines.append(f"{q} {sym} {row[ci]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RecomputedMerge:
    """One merge of :func:`f_minimize_by_recomputation`, holding both machines."""

    merged: int
    target: int
    class_id: int
    n_into: int
    n_diff: int
    before: Dfa
    after: Dfa


def count_words_by_search(delta, start: int, useful, targets) -> int:
    """How many words lead from ``start`` through the acyclic ``useful`` into
    ``targets``: a depth-first search from ``start`` that counts each state
    once all its useful successors are counted."""
    count: dict[int, int] = {}
    stack = [start]
    while stack:
        q = stack[-1]
        if q in count:
            stack.pop()
            continue
        succ = [t for t in delta[q] if t in useful]
        pending = [t for t in succ if t not in count]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        count[q] = (q in targets) + sum(count[t] for t in succ)
    return count[start]


def merge_by_renumbering(d: Dfa, p: int, q: int) -> Dfa:
    """The f-merge of p into q: p deleted, the other ids renumbered densely,
    every edge into p sent to q, and the states no longer reachable trimmed."""
    keep = [s for s in d.states if s != p]
    remap = {old: new for new, old in enumerate(keep)}

    def redirect(t: int) -> int:
        return q if t == p else t

    delta = [tuple(remap[redirect(t)] for t in d.delta[s]) for s in keep]
    start = remap[redirect(d.start)]
    accepting = frozenset(remap[s] for s in d.accepting if s != p)
    merged, _ = trim(d.alphabet, start, accepting, delta)
    return merged


def _pick_merge(parts, classes, reverse: bool) -> tuple[int, int] | None:
    finite = parts.finite
    infinite = parts.infinite
    members = {cls[0]: cls for cls in classes.classes}
    candidates = [
        p for p in finite if len(members[classes.class_of[p]]) > 1
    ]
    if not candidates:
        return None
    p = max(candidates) if not reverse else min(candidates)
    mates = [s for s in members[classes.class_of[p]] if s != p]
    infinite_mates = [s for s in mates if s in infinite]
    pool = infinite_mates or mates
    q = min(pool) if not reverse else max(pool)
    return p, q


def f_minimize_by_recomputation(d: Dfa, *, order: str = "canonical") -> tuple[Dfa, tuple[RecomputedMerge, ...]]:
    """``f_minimize`` with its parts and classes recomputed on the current
    machine before every merge, and each merge a new machine by
    :func:`merge_by_renumbering`."""
    if order not in ("canonical", "reversed"):
        raise ValueError(f"unknown order {order!r}")
    reverse = order == "reversed"
    m = minimize(d)
    trace: list[RecomputedMerge] = []
    while True:
        parts = compute_parts(m)
        classes = state_class_partition(m)
        picked = _pick_merge(parts, classes, reverse)
        if picked is None:
            break
        p, q = picked
        merged = merge_by_renumbering(m, p, q)
        diff = product_xor(induce(m, p), induce(m, q)).dfa
        trace.append(
            RecomputedMerge(
                merged=p,
                target=q,
                class_id=classes.class_of[p],
                # p is in the finite part, so every state reaching it is acyclic
                n_into=count_words_by_search(m.delta, m.start, states_reaching(m.delta, {p}), {p}),
                n_diff=count_words_by_search(diff.delta, diff.start, useful_states(diff), diff.accepting),
                before=m,
                after=merged,
            )
        )
        m = merged
    if not is_minimized(m):
        raise AssertionError("f-minimization fixpoint is not minimized; this is a bug")
    return m, tuple(trace)


def replay_merges(d: Dfa, records) -> list[Dfa]:
    """The machines of an ``f_minimize(d)`` trace: ``minimize(d)``, then one
    machine after each record's merge, each step checked by ``f_merge``."""
    machines = [minimize(d)]
    for r in records:
        machines.append(f_merge(machines[-1], r.merged, r.target))
    return machines


class Lcg:
    """x' = (6364136223846793005*x + 1442695040888963407) mod 2**64; draws are the top 32 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state >> 32

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection on the top 32 bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            x = self.next_u32()
            if x < limit:
                return x % n


def random_dfa_by_lcg(n_states: int, alphabet: str, seed: int) -> Dfa:
    """Seeded random DFA with all states reachable, in the draw order ``random_dfa`` documents."""
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = Lcg(seed)
    k = len(alphabet)
    while True:
        delta = tuple(
            tuple(rng.below(n_states) for _ in range(k)) for _ in range(n_states)
        )
        start = rng.below(n_states)
        accepting = frozenset(q for q in range(n_states) if rng.below(2) == 1)
        if len(reachable_states(delta, start)) == n_states:
            return Dfa(alphabet, start, accepting, delta)


def construct_pair_by_prefixes(words, alphabet: str) -> tuple[Dfa, Dfa]:
    """``construct_pair``: the prefixes of length <= depth listed level by level,
    each (prefix, copy) pair numbered 2 * rank + copy through a dict."""
    check_alphabet(alphabet)
    if len(alphabet) < 2:
        raise ValueError("the construction needs at least two symbols")
    cleaned = sorted(set(words), key=lambda w: (len(w), w))
    for w in cleaned:
        check_word(w, alphabet)
    depth = max((len(w) for w in cleaned), default=0)
    prefixes: list[Word] = [""]
    level = [""]
    for _ in range(depth):
        level = [w + sym for w in level for sym in alphabet]
        prefixes.extend(level)
    rank = {w: i for i, w in enumerate(prefixes)}

    def state_id(word: Word, copy: int) -> int:
        return 2 * rank[word] + copy

    delta: list[tuple[int, ...]] = [()] * (2 * len(prefixes))
    for w in prefixes:
        for copy in (0, 1):
            row = []
            for sym in alphabet:
                grown = w + sym
                if len(grown) <= depth:
                    row.append(state_id(grown, copy))
                else:
                    # wrap to copy 0 iff the grown word starts with the first symbol
                    row.append(state_id("", 0 if grown[0] == alphabet[0] else 1))
            delta[state_id(w, copy)] = tuple(row)
    member = set(cleaned)
    accepting = frozenset(state_id(w, 1) for w in prefixes if w in member)
    return (Dfa(alphabet, state_id("", 0), accepting, tuple(delta)),
            Dfa(alphabet, state_id("", 1), accepting, tuple(delta)))
