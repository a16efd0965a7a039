"""End-to-end acceptance suite.

Each test prints one ``criterion N ...: PASS`` / ``FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they happen).  All
checks are exact; the domains are discrete so there are no tolerances.
"""

import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from fdfa.construct import construct_pair
from fdfa.core import induce
from fdfa.fmin import (
    FMergeError,
    f_minimize,
    flip_finite_acceptance,
    is_f_minimal,
    redirect_boundary_transition,
)
from fdfa.formats import parse_dfa, serialize_dfa
from fdfa.iso import finite_part_iso, infinite_part_iso, verify_bijection
from fdfa.language import symmetric_difference
from fdfa.minimize import is_minimized, minimize
from fdfa.parts import compute_parts, words_reaching
from fdfa.rand import random_dfa

import machines as fixtures
from oracle import oracle_diff, oracle_is_f_minimal
from reference import (
    Lcg,
    compute_parts_by_counting,
    dfas_finitely_different,
    replay_merges,
    signature_equal,
    states_finitely_different,
    states_finitely_different_by_shape,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


def shortlex(words):
    return sorted(words, key=lambda w: (len(w), w))


@pytest.fixture(scope="module")
def minimized_pairs(suite2):
    """Exhaustive minimized <=2-state pairs plus 500 seeded random minimized pairs."""
    small = [d for d in suite2 if is_minimized(d)]
    pairs = [(a, b) for a in small for b in small]
    for i in range(500):
        a = minimize(random_dfa(i % 5 + 1, "01", 10000 + 2 * i))
        b = minimize(random_dfa(i * 3 % 5 + 1, "01", 10001 + 2 * i))
        pairs.append((a, b))
    return pairs


def test_criterion_1_infinite_part_transport(minimized_pairs):
    with criterion("criterion 1 (finite difference forces infinite-part iso)"):
        fd_seen = 0
        for a, b in minimized_pairs:
            fd, _ = dfas_finitely_different(a, b)
            if not fd:
                continue
            fd_seen += 1
            bij = infinite_part_iso(a, b)
            assert bij is not None, (a, b)
            ok, reason = verify_bijection(a, b, bij)
            assert ok, (a, b, reason)
        assert fd_seen > 100  # the suite must not be vacuous


def test_criterion_2_signature_chain(minimized_pairs):
    with criterion("criterion 2 (difference => signatures => iso, converses broken)"):
        for a, b in minimized_pairs:
            fd, _ = dfas_finitely_different(a, b)
            sig = signature_equal(a, b)
            if fd:
                assert sig, (a, b)
            if sig:
                assert infinite_part_iso(a, b) is not None, (a, b)
        # equal signatures, infinitely different: words of odd vs even length
        odd, even = fixtures.odd_length(), fixtures.even_length()
        assert signature_equal(odd, even)
        assert not dfas_finitely_different(odd, even)[0]
        # isomorphic infinite parts, different signatures: 0* vs 1.0*
        z, oz = fixtures.zstar(), fixtures.onezstar()
        assert infinite_part_iso(z, oz) is not None
        assert not signature_equal(z, oz)
        assert not dfas_finitely_different(z, oz)[0]


def test_criterion_3_f_minimization_correct(suite3):
    with criterion("criterion 3 (f_minimize lands on an f-minimal machine)"):
        for d in suite3:
            out, _ = f_minimize(d)
            bound = d.n_states * out.n_states + 2
            words = oracle_diff(d, out, bound)
            claimed = symmetric_difference(d, out)
            assert claimed.finite and list(claimed.words) == words, (d, out)
            assert all(len(w) <= d.n_states * out.n_states for w in words), (d, out)
            assert is_f_minimal(out)[0], (d, out)
            assert oracle_is_f_minimal(out), (d, out)
            assert is_f_minimal(d)[0] == oracle_is_f_minimal(d), d


def test_criterion_4_order_independence(suite3):
    with criterion("criterion 4 (greedy merge order cannot change the outcome)"):
        for d in suite3:
            a, _ = f_minimize(d)
            b, _ = f_minimize(d, order="reversed")
            assert a.n_states == b.n_states, d
            assert infinite_part_iso(a, b) is not None, d
            finite_part_iso(a, b)  # raises if the finite parts cannot be matched


def test_criterion_5_merge_diff_bound(suite3):
    with criterion("criterion 5 (each merge changes at most |X|*|Z| words, all in X.Z)"):
        merges_audited = 0
        for d in suite3:
            _, records = f_minimize(d)
            machines = replay_merges(d, records)
            for r, before, after in zip(records, machines, machines[1:]):
                bound = before.n_states * after.n_states + 2
                realized = set(oracle_diff(before, after, bound))
                into = words_reaching(before, r.merged)
                diff = symmetric_difference(induce(before, r.merged), induce(before, r.target)).words
                xz = {x + z for x in into for z in diff}
                assert realized <= xz, (d, r)
                assert len(realized) <= r.bound, (d, r)
                merges_audited += 1
        assert merges_audited > 500


def test_criterion_6_construction():
    with criterion("criterion 6 (construct_pair realizes exactly the chosen difference)"):
        universe = [""] + ["".join(t) for n in (1, 2, 3) for t in product("01", repeat=n)]
        cases = [[""], ["0", "11"], []]
        for i in range(100):
            rng = Lcg(20000 + i)
            cases.append([w for w in universe if rng.below(2) == 1])
        for words in cases:
            expected = shortlex(set(words))
            n = max((len(w) for w in words), default=0)
            left, right = construct_pair(words, "01")
            assert compute_parts(left).finite == frozenset(), words
            assert compute_parts(right).finite == frozenset(), words
            for a, b in ((left, right), (minimize(left), minimize(right))):
                diff = symmetric_difference(a, b)
                assert diff.finite and list(diff.words) == expected, words
                for length in range(n + 1, n + 4):
                    for t in product("01", repeat=length):
                        w = "".join(t)
                        assert a.accepts(w) == b.accepts(w), (words, w)


def test_criterion_7_part_definitions_agree(suite3):
    with criterion("criterion 7 (two parts definitions and two finiteness tests agree)"):
        for d in suite3:
            assert compute_parts(d) == compute_parts_by_counting(d), d
            for p, q in combinations(range(d.n_states), 2):
                direct = states_finitely_different(d, p, q)[0]
                assert direct == states_finitely_different_by_shape(d, p, q), (d, p, q)


def test_criterion_8_non_uniqueness():
    with criterion("criterion 8 (flips and legal redirects stay f-minimal, in class)"):
        machines = []
        seed = 30000
        while len(machines) < 100:
            m, _ = f_minimize(random_dfa(4, "01", seed))
            seed += 1
            if compute_parts(m).finite:
                machines.append(m)

        def still_in_class_and_minimal(original, transformed):
            bound = min(original.n_states * transformed.n_states + 2, 16)
            words = oracle_diff(original, transformed, bound)
            claimed = symmetric_difference(original, transformed)
            assert claimed.finite and list(claimed.words) == words
            assert all(len(w) < bound for w in words)
            assert is_f_minimal(transformed)[0]

        flips = legal = illegal = 0
        for m in machines:
            parts = compute_parts(m)
            finite = sorted(parts.finite)
            infinite = sorted(parts.infinite)
            for k in range(1, len(finite) + 1):
                for sub in combinations(finite, k):
                    still_in_class_and_minimal(m, flip_finite_acceptance(m, sub))
                    flips += 1
            for src in finite:
                for sym in m.alphabet:
                    old = m.delta[src][m.symbol_index(sym)]
                    if old not in parts.infinite:
                        continue
                    for new in infinite:
                        if new == old:
                            continue
                        if states_finitely_different(m, old, new)[0]:
                            still_in_class_and_minimal(
                                m, redirect_boundary_transition(m, src, sym, new)
                            )
                            legal += 1
                        else:
                            with pytest.raises(FMergeError):
                                redirect_boundary_transition(m, src, sym, new)
                            illegal += 1
        assert flips >= 100 and legal > 0 and illegal > 0


def test_criterion_9_round_trip_and_determinism(tmp_path):
    with criterion("criterion 9 (bit-exact round trips, byte-stable commands)"):
        for d in (
            fixtures.zstar(),
            fixtures.onezstar(),
            fixtures.sigplus(),
            fixtures.all_words(),
            fixtures.empty(),
            fixtures.odd_length(),
            fixtures.even_length(),
        ):
            text = serialize_dfa(d)
            assert serialize_dfa(parse_dfa(text)) == text
        for seed in range(20):
            d = random_dfa(4, "01", 60000 + seed)
            text = serialize_dfa(d)
            assert serialize_dfa(parse_dfa(text)) == text

        oz = tmp_path / "oz.dfa"
        oz.write_text(serialize_dfa(fixtures.onezstar()))
        sp = tmp_path / "sp.dfa"
        sp.write_text(serialize_dfa(fixtures.sigplus()))
        al = tmp_path / "all.dfa"
        al.write_text(serialize_dfa(fixtures.all_words()))
        z = tmp_path / "z.dfa"
        z.write_text(serialize_dfa(fixtures.zstar()))
        commands = [
            ("check", str(oz)),
            ("minimize", str(oz)),
            ("fminimize", str(sp), "--trace"),
            ("parts", str(oz)),
            ("classes", str(sp)),
            ("diff", str(sp), str(al)),
            ("findiff", str(sp), str(al)),
            ("iso", str(z), str(oz), "--part", "infinite"),
            ("construct-stdout",),
            ("random", "--states", "4", "--alphabet", "01", "--seed", "11"),
        ]
        for cmd in commands:
            if cmd == ("construct-stdout",):
                words = tmp_path / "w.txt"
                words.write_text("0\n11\n")
                cmd = (
                    "construct", "--words", str(words), "--alphabet", "01",
                    "-o1", str(tmp_path / "c1.dfa"), "-o2", str(tmp_path / "c2.dfa"),
                )
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "fdfa", *cmd],
                    capture_output=True,
                    text=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout, cmd
            assert runs[0].returncode == runs[1].returncode, cmd
