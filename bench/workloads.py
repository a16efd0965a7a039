"""Seeded inputs, request lists and answer keys for the three workloads.

``build(name, seed, workdir, tiny)`` writes every input machine as a ``dfa v1``
file under ``workdir`` and returns the request list.  Each request carries its
own check, computed here with ``automata`` and never with the code under test.
Input sizes follow fixed schedules; the seed only chooses the machines' content,
so every seed gives a run of the same shape.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from automata import (
    Machine,
    canonical_minimal,
    f_minimal_size,
    fd_classes,
    format_word,
    infinite_part,
    keep_reachable,
    lcg_machine,
    reachable,
    parse,
    serialize,
    shortlex,
    xor_language,
)

WORKLOADS = ("random-classes", "finite-heavy", "large-machines")
_MERGE_LINE = re.compile(r"merge p=\d+ into q=\d+ class=\d+ bound=\d+x\d+\n")


@dataclass
class Request:
    command: str  # the fdfa subcommand, which names its per-command metric
    argv: list
    code: int  # the exit code a correct reply has
    check: Callable  # (stdout, workdir) -> None when correct, else the reason
    outputs: tuple = ()  # files the request writes, removed before every run


class Inputs:
    """Writes machines and word lists into the work directory under short names."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def machine(self, m: Machine) -> str:
        return self.text(serialize(m), "dfa")

    def text(self, text: str, ext: str) -> str:
        self.count += 1
        name = f"in{self.count}.{ext}"
        (self.workdir / name).write_text(text, encoding="utf-8")
        return name


# --- generators ---------------------------------------------------------------


def random_table(rng: random.Random, n: int, alphabet: str) -> Machine:
    """The reachable part of one uniformly drawn table (about 0.8 n states survive)."""
    k = len(alphabet)
    delta = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return keep_reachable(alphabet, rng.randrange(n), accepting, delta)


def random_reachable(rng: random.Random, n_drawn: int, n_kept: int, alphabet: str) -> Machine:
    """Redraw whole tables until the reachable part has exactly ``n_kept`` states."""
    while True:
        m = random_table(rng, n_drawn, alphabet)
        if m.n == n_kept:
            return m


def relabel(rng: random.Random, m: Machine):
    """The same machine under a random renumbering; returns it and the permutation."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    rows = [None] * m.n
    for q, row in enumerate(m.delta):
        rows[perm[q]] = tuple(perm[t] for t in row)
    acc = frozenset(perm[q] for q in m.accepting)
    return Machine(m.alphabet, perm[m.start], acc, tuple(rows)), perm


def flip(m: Machine, states) -> Machine:
    return m._replace(accepting=m.accepting ^ frozenset(states))


def sigma_chain(m: int, alphabet: str) -> Machine:
    """Accepts every word of length at most m: states 0..m accept, m+1 is a sink."""
    k = len(alphabet)
    rows = tuple((min(q + 1, m + 1),) * k for q in range(m + 2))
    return Machine(alphabet, 0, frozenset(range(m + 1)), rows)


def strong_kernel(rng: random.Random, n: int, alphabet: str) -> Machine:
    """A random minimal machine on n states, each reachable from every other.

    Degenerate kernels (one state, say) would make the cost of a trie machine
    depend on luck rather than on its size.
    """
    while True:
        delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
        m = Machine(alphabet, 0, frozenset(q for q in range(n) if rng.random() < 0.5), delta)
        if all(len(reachable(delta, [q])) == n for q in range(n)) and canonical_minimal(m).n == n:
            return m


def trie_on_kernel(rng: random.Random, nodes: int, max_len: int, kernel: int, alphabet: str):
    """A trie of random words whose missing edges enter a small random kernel.

    Words are drawn until the trie has exactly ``nodes`` nodes (the last word
    is cut short to fit), so that the seed moves the words and not the size.

    Returns the machine and ``node_of``, which maps each trie word (every prefix
    of a drawn word) to its state.  The trie is the finite part: only trie edges
    enter trie nodes, so each node is reached by its own word alone.
    """
    words, prefixes = set(), {""}
    while len(prefixes) < nodes:
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        new = [w[:i] for i in range(1, len(w) + 1) if w[:i] not in prefixes]
        w = new[nodes - len(prefixes) - 1] if len(new) > nodes - len(prefixes) else w
        if new:
            words.add(w)
            prefixes.update(w[:i] for i in range(1, len(w) + 1))
    prefixes = shortlex(prefixes)
    node_of = {w: i for i, w in enumerate(prefixes)}
    t = len(prefixes)
    rows = []
    core = strong_kernel(rng, kernel, alphabet)
    for w in prefixes:
        rows.append(tuple(node_of.get(w + a, t + rng.randrange(kernel)) for a in alphabet))
    rows += [tuple(t + q for q in row) for row in core.delta]
    accepting = {node_of[w] for w in words} | {t + q for q in core.accepting}
    m = keep_reachable(alphabet, 0, accepting, rows)  # trie ids come first and survive as is
    return m, node_of


# --- checks ----------------------------------------------------------------


def exact(expected: str, files: dict | None = None) -> Callable:
    """The reply must print ``expected`` and write each file with the given text."""

    def check(stdout: str, workdir: Path):
        if stdout != expected:
            return f"stdout differs from the answer key ({len(stdout)} vs {len(expected)} chars)"
        for name, text in (files or {}).items():
            path = workdir / name
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                return f"output file {name} differs from the answer key"
        return None

    return check


def verdict(finite: bool) -> Callable:
    return exact("finitely-different\n" if finite else "not-finitely-different\n")


def classes_text(m: Machine) -> str:
    return "".join(f"class {c[0]}:" + "".join(f" {q}" for q in c) + "\n" for c in fd_classes(m))


def diff_text(words) -> str:
    return f"finite {len(words)}\n" + "".join(format_word(w) + "\n" for w in shortlex(words))


def fminimize_check(m: Machine, trace: bool) -> Callable:
    """Size equals the f-minimal size, language within a finite difference of ``m``.

    With ``--trace`` there is one well-formed merge line per merge, and at least
    one merge whenever the minimal machine is larger than the f-minimal size.
    """
    size = f_minimal_size(m)
    removable = canonical_minimal(m).n - size

    def check(stdout: str, workdir: Path):
        lines = stdout.splitlines(keepends=True)
        merges = 0
        while trace and lines and lines[0].startswith("merge "):
            line = lines.pop(0)
            if not _MERGE_LINE.fullmatch(line):
                return f"malformed trace line {line!r}"
            merges += 1
        try:
            out = parse("".join(lines))
        except (ValueError, IndexError) as exc:
            return f"reply is not a machine: {exc}"
        if out.n != size:
            return f"{out.n} states, the f-minimal size is {size}"
        if out.alphabet != m.alphabet or xor_language(m, out) is None:
            return "reply is not finitely different from the input"
        if trace and not (0 < merges <= removable if removable else merges == 0):
            return f"{merges} merge lines for {removable} removable states"
        return None

    return check


def construct_check(words, alphabet: str, left: str, right: str) -> Callable:
    """Two machines with empty finite parts whose languages differ on exactly ``words``."""
    depth = max(len(w) for w in words)
    size = 2 * sum(len(alphabet) ** i for i in range(depth + 1))
    expected = shortlex(set(words))

    def check(stdout: str, workdir: Path):
        if stdout:
            return "construct printed to stdout"
        try:
            a = parse((workdir / left).read_text(encoding="utf-8"))
            b = parse((workdir / right).read_text(encoding="utf-8"))
        except (OSError, ValueError, IndexError) as exc:
            return f"output machine unreadable: {exc}"
        for m in (a, b):
            if m.n != size or len(infinite_part(m)) != m.n:
                return "an output machine has the wrong size or a finite part"
        if xor_language(a, b) != expected:
            return "the pair does not differ on exactly the listed words"
        return None

    return check


# --- workloads ---------------------------------------------------------------


def random_classes(rng: random.Random, inputs: Inputs, tiny: bool) -> list:
    """Random binary tables: 44 of 20 drawn states and 22 of 30 (6 and 8 when tiny).

    The reachable part is held at 0.8 of the drawn size, so that the seed moves
    the machines' content and not their size.  With two thirds of the machines
    small, the p50 falls among the small ones and the p90 among the large.
    """
    sizes = [6, 6, 8] if tiny else [20, 20, 30] * 22
    out = []
    for drawn in sizes:
        m = random_reachable(rng, drawn, round(0.8 * drawn), "01")
        mm = canonical_minimal(m)
        other, perm = relabel(rng, mm)
        kernel = sorted(infinite_part(m))
        f = inputs.machine(m)
        out += [
            Request("classes", ["classes", f], 0, exact(classes_text(m))),
            Request("fminimize", ["fminimize", f], 0, fminimize_check(m, trace=False)),
            Request("iso", ["iso", inputs.machine(mm), inputs.machine(other), "--part", "infinite"],
                    0, exact("".join(f"{q} -> {perm[q]}\n" for q in sorted(infinite_part(mm))))),
            Request("findiff", ["findiff", f, inputs.machine(flip(m, [rng.choice(kernel)]))],
                    1, verdict(False)),
        ]
    return out


def finite_heavy(rng: random.Random, inputs: Inputs, tiny: bool) -> list:
    """Sigma^{<=m} chains beside trie-on-kernel machines with a seeded difference set."""
    chains = [(4, "01"), (3, "012")] if tiny else [(12, "01"), (13, "01"), (14, "01"),
                                                     (15, "01"), (8, "012"), (9, "012")]
    out = []
    for m, alphabet in chains:
        chain = sigma_chain(m, alphabet)
        f = inputs.machine(chain)
        empty = inputs.machine(Machine(alphabet, 0, frozenset(), ((0,) * len(alphabet),)))
        shorter = inputs.machine(sigma_chain(m - 1, alphabet))
        every = ["".join(t) for n in range(m + 1) for t in itertools.product(sorted(alphabet), repeat=n)]
        longest = [w for w in every if len(w) == m]
        out += [
            Request("findiff", ["findiff", f, empty], 0, verdict(True)),
            Request("diff", ["diff", f, empty], 0, exact(diff_text(every))),
            Request("findiff", ["findiff", f, shorter], 0, verdict(True)),
            Request("diff", ["diff", f, shorter], 0, exact(diff_text(longest))),
            Request("classes", ["classes", f], 0, exact(classes_text(chain))),
            Request("fminimize", ["fminimize", f, "--trace"], 0, fminimize_check(chain, trace=True)),
        ]
    for _ in range(2 if tiny else 5):
        t, node_of = trie_on_kernel(rng, 12 if tiny else 24, 6, 4, "01")
        diff = rng.sample(sorted(node_of), rng.randint(3, 8))
        f = inputs.machine(t)
        g = inputs.machine(flip(t, [node_of[w] for w in diff]))
        out += [
            Request("findiff", ["findiff", f, g], 0, verdict(True)),
            Request("diff", ["diff", f, g], 0, exact(diff_text(diff))),
            Request("fminimize", ["fminimize", f, "--trace"], 0, fminimize_check(t, trace=True)),
            Request("classes", ["classes", f], 0, exact(classes_text(t))),
        ]
    return out


def large_machines(rng: random.Random, inputs: Inputs, tiny: bool) -> list:
    """Random tables of 2k..20k drawn states, constructions and LCG machines."""
    sizes = [60, 200] if tiny else [round(2000 * 10 ** (i / 19)) for i in range(20)]
    out = []
    for i, drawn in enumerate(sizes):
        m = random_table(rng, drawn, "01" if i % 2 == 0 else "012")
        other, _ = relabel(rng, m)
        f = inputs.machine(m)
        acc = "".join(f" {q}" for q in sorted(m.accepting))
        kernel = infinite_part(m)
        finite = "".join(f" {q}" for q in range(m.n) if q not in kernel)
        copy = f"out{i}.dfa"
        out += [
            Request("check", ["check", f, "-o", copy], 0,
                    exact(f"ok\nstates {m.n}\nalphabet {m.alphabet}\nstart {m.start}\n"
                          f"accepting{acc or ' -'}\n", {copy: serialize(m)}), (copy,)),
            Request("minimize", ["minimize", f], 0, exact(serialize(canonical_minimal(m)))),
            Request("parts", ["parts", f], 0,
                    exact(f"finite:{finite}\ninfinite:" + "".join(f" {q}" for q in sorted(kernel)) + "\n")),
            Request("findiff", ["findiff", f, inputs.machine(other)], 0, verdict(True)),
            Request("findiff", ["findiff", f, inputs.machine(flip(m, [rng.choice(sorted(kernel))]))],
                    1, verdict(False)),
        ]
    depths = [(4, "01"), (3, "012")] if tiny else [(d, "01") for d in (10, 11, 12, 10, 11, 12)] + [
        (d, "012") for d in (6, 7, 6, 7)]
    for i, (depth, alphabet) in enumerate(depths):
        words = {"".join(rng.choice(alphabet) for _ in range(rng.randint(0, depth)))
                 for _ in range(rng.randint(5, 30))}
        words.add("".join(rng.choice(alphabet) for _ in range(depth)))
        listed = inputs.text("".join(format_word(w) + "\n" for w in sorted(words)), "txt")
        left, right = f"pair{i}a.dfa", f"pair{i}b.dfa"
        out.append(Request("construct", ["construct", "--words", listed, "--alphabet", alphabet,
                                         "-o1", left, "-o2", right], 0,
                           construct_check(words, alphabet, left, right), (left, right)))
    for i in range(4 if tiny else 10):
        n = 6 if tiny else 24 + round(16 * i / 9)
        seed = rng.getrandbits(32)
        out.append(Request("random", ["random", "--states", str(n), "--alphabet", "01",
                                      "--seed", str(seed)], 0,
                           exact(serialize(lcg_machine(n, "01", seed)))))
    return out


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    rng = random.Random(seed)
    maker = {"random-classes": random_classes, "finite-heavy": finite_heavy,
             "large-machines": large_machines}[name]
    return maker(rng, Inputs(workdir), tiny)
