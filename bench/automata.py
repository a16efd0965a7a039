"""The benchmark's own DFA toolkit: inputs and answer keys without importing ``fdfa``.

Everything the benchmark checks a reply against is computed here, so a bug in
the code under test cannot also make its own answer look right.  Machines are
plain ``Machine`` tuples with dense state ids; every function is stdlib only.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class Machine(NamedTuple):
    alphabet: str
    start: int
    accepting: frozenset
    delta: tuple  # delta[q][i] is the successor of q on alphabet[i]

    @property
    def n(self) -> int:
        return len(self.delta)


# --- the ``dfa v1`` text format -------------------------------------------


def serialize(m: Machine) -> str:
    """Canonical ``dfa v1`` text: accepting ids ascending, transitions by (state, symbol)."""
    order = sorted(range(len(m.alphabet)), key=lambda i: m.alphabet[i])
    lines = ["dfa v1", f"alphabet {m.alphabet}", f"states {m.n}", f"start {m.start}"]
    acc = " ".join(str(q) for q in sorted(m.accepting))
    lines.append(f"accept {acc}" if acc else "accept -")
    for q, row in enumerate(m.delta):
        for i in order:
            lines.append(f"{q} {m.alphabet[i]} {row[i]}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Machine:
    """Read a complete ``dfa v1`` machine as the program writes it; raises ValueError."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 5 or lines[0] != "dfa v1":
        raise ValueError("not a dfa v1 document")
    alphabet = lines[1].split()[1]
    n = int(lines[2].split()[1])
    start = int(lines[3].split()[1])
    acc_fields = lines[4].split()[1:]
    accepting = frozenset() if acc_fields == ["-"] else frozenset(int(t) for t in acc_fields)
    k = len(alphabet)
    rows = [[None] * k for _ in range(n)]
    for ln in lines[5:]:
        src, sym, dst = ln.split()
        rows[int(src)][alphabet.index(sym)] = int(dst)
    if len(lines) - 5 != n * k or any(t is None for row in rows for t in row):
        raise ValueError("transition table is not complete")
    return Machine(alphabet, start, accepting, tuple(tuple(r) for r in rows))


def format_word(word: str) -> str:
    return word if word else "@"


def shortlex(words) -> list:
    return sorted(words, key=lambda w: (len(w), w))


# --- reachability, cycles, parts ------------------------------------------


def reachable(delta, sources) -> set:
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for t in delta[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def keep_reachable(alphabet: str, start: int, accepting, delta) -> Machine:
    """The part reachable from ``start``, renumbered densely in old-id order."""
    keep = sorted(reachable(delta, [start]))
    new = {old: i for i, old in enumerate(keep)}
    rows = tuple(tuple(new[t] for t in delta[old]) for old in keep)
    acc = frozenset(new[q] for q in accepting if q in new)
    return Machine(alphabet, new[start], acc, rows)


def cyclic_nodes(succ) -> set:
    """Nodes of a graph (``succ[v]`` lists successors) that lie on a cycle.

    Iterative Tarjan; a node is cyclic when its component has more than one
    node or it has a self-loop.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    out = set()
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, pos = work[-1]
            row = succ[v]
            if pos < len(row):
                work[-1] = (v, pos + 1)
                w = row[pos]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succ[v]:
                    out.update(comp)
    return out


def infinite_part(m: Machine) -> set:
    """States reached by infinitely many words: everything reachable from a cycle."""
    return reachable(m.delta, cyclic_nodes(m.delta))


# --- minimization -----------------------------------------------------------


def canonical_minimal(m: Machine) -> Machine:
    """The minimal machine, numbered by breadth-first discovery in symbol order."""
    block = [1 if q in m.accepting else 0 for q in range(m.n)]
    count = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault((block[q], *[block[t] for t in row]), len(sigs))
                 for q, row in enumerate(m.delta)]
        if len(sigs) == count:
            break
        count = len(sigs)
    rep = {}
    for q in range(m.n):
        rep.setdefault(block[q], q)
    order = sorted(range(len(m.alphabet)), key=lambda i: m.alphabet[i])
    ids = {block[m.start]: 0}
    queue = deque([block[m.start]])
    while queue:
        row = m.delta[rep[queue.popleft()]]
        for i in order:
            b = block[row[i]]
            if b not in ids:
                ids[b] = len(ids)
                queue.append(b)
    rows = [None] * len(ids)
    acc = set()
    for b, i in ids.items():
        rows[i] = tuple(ids[block[t]] for t in m.delta[rep[b]])
        if rep[b] in m.accepting:
            acc.add(i)
    return Machine(m.alphabet, 0, frozenset(acc), tuple(rows))


# --- finite difference ------------------------------------------------------


def fd_classes(m: Machine) -> list:
    """States grouped by finite difference of their languages, via the pair graph.

    L_p xor L_q is infinite exactly when, from the pair (p, q), a pair on a cycle
    can be reached from which a pair of differing acceptance can be reached.
    One backward closure, one cycle search and a second backward closure decide
    every pair at once.
    """
    n, k = m.n, len(m.alphabet)
    acc = [q in m.accepting for q in range(n)]
    preds = [[[] for _ in range(n)] for _ in range(k)]
    for q, row in enumerate(m.delta):
        for i, t in enumerate(row):
            preds[i][t].append(q)

    def backward(seeds) -> bytearray:
        mark = bytearray(n * n)
        queue = deque()
        for x in seeds:
            if not mark[x]:
                mark[x] = 1
                queue.append(x)
        while queue:
            x = queue.popleft()
            p, q = divmod(x, n)
            for i in range(k):
                qs = preds[i][q]
                for pp in preds[i][p]:
                    base = pp * n
                    for qq in qs:
                        if not mark[base + qq]:
                            mark[base + qq] = 1
                            queue.append(base + qq)
        return mark

    bad = [p * n + q for p in range(n) for q in range(n) if acc[p] != acc[q]]
    useful = backward(bad)
    succ = [()] * (n * n)
    for p in range(n):
        rp = m.delta[p]
        for q in range(n):
            x = p * n + q
            if useful[x]:
                rq = m.delta[q]
                succ[x] = tuple(y for y in (rp[i] * n + rq[i] for i in range(k)) if useful[y])
    infinite = backward(cyclic_nodes(succ))
    class_of = [-1] * n
    classes = []
    for p in range(n):
        if class_of[p] != -1:
            continue
        cls = [q for q in range(p, n) if class_of[q] == -1 and not infinite[p * n + q]]
        for q in cls:
            class_of[q] = p
        classes.append(cls)
    return classes


def f_minimal_size(m: Machine) -> int:
    """States of a smallest machine finitely different from ``m``.

    On the minimal machine, every infinite-part state stays and every class
    with no infinite-part member collapses to one state (Badr, Geffert and
    Shipman 2009; Holzer and Maletti 2010).
    """
    mm = canonical_minimal(m)
    kernel = infinite_part(mm)
    return len(kernel) + sum(1 for cls in fd_classes(mm) if not kernel.intersection(cls))


def xor_language(a: Machine, b: Machine):
    """L(a) xor L(b) as a shortlex word list, or None when it is infinite."""
    k = len(a.alphabet)
    first = (a.start, b.start)
    index = {first: 0}
    pairs = [first]
    rows = []
    for p, q in pairs:  # grows while iterating: breadth-first over the reachable product
        row = []
        for i in range(k):
            key = (a.delta[p][i], b.delta[q][i])
            j = index.get(key)
            if j is None:
                j = index[key] = len(pairs)
                pairs.append(key)
            row.append(j)
        rows.append(row)
    final = [j for j, (p, q) in enumerate(pairs) if (p in a.accepting) != (q in b.accepting)]
    preds = [[] for _ in pairs]
    for j, row in enumerate(rows):
        for t in row:
            preds[t].append(j)
    useful = set(final)
    queue = deque(final)
    while queue:
        for j in preds[queue.popleft()]:
            if j not in useful:
                useful.add(j)
                queue.append(j)
    succ = [[t for t in row if t in useful] if j in useful else [] for j, row in enumerate(rows)]
    if cyclic_nodes(succ):
        return None
    final_set = set(final)
    words = []
    stack = [(0, "")] if 0 in useful else []
    while stack:
        j, w = stack.pop()
        if j in final_set:
            words.append(w)
        stack.extend((t, w + a.alphabet[i]) for i, t in enumerate(rows[j]) if t in useful)
    return shortlex(words)


# --- the program's documented random generator -------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def lcg_machine(n: int, alphabet: str, seed: int) -> Machine:
    """What ``fdfa random`` must print, following the LCG and draw order in README.md."""
    state = seed & _MASK64

    def below(bound: int) -> int:
        nonlocal state
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            state = (state * _LCG_MULT + _LCG_INC) & _MASK64
            x = state >> 32
            if x < limit:
                return x % bound

    k = len(alphabet)
    while True:
        delta = tuple(tuple(below(n) for _ in range(k)) for _ in range(n))
        start = below(n)
        accepting = frozenset(q for q in range(n) if below(2) == 1)
        if len(reachable(delta, [start])) == n:
            return Machine(alphabet, start, accepting, delta)
