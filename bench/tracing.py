"""Spans around every public ``fdfa`` function, installed from outside the package.

``install()`` replaces each public function of the layer modules by a wrapper
that records a span (name, start, end, parent span, request id) and reads work
counts off the arguments and the return value.  The wrapper is bound under
every name that holds the original in any ``fdfa`` module, because modules copy
names on import (``from .core import product_xor``) and look them up at call
time (``_induced_diff`` finds ``symmetric_difference`` in ``fdfa.classes``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "formats", "core", "minimize", "parts", "language", "classes",
          "fmin", "iso", "construct", "rand")

# Helpers called once per state, word or symbol: a span there would cost more
# than the work it measures.  reachable_states also runs in Dfa.__post_init__,
# so it is never wrapped globally; random_dfa attempts are counted through the
# name bound in fdfa.rand alone.  clear_memo runs between requests.
SKIP = {"core.check_alphabet", "core.reachable_states", "formats.format_word",
        "formats.parse_word", "language.shortlex_key", "classes.clear_memo"}

PAIR_QUERIES = {"classes.states_finitely_different", "classes.cross_finitely_different"}

COUNTERS = {
    "formats.parse_dfa": lambda a, r: {"bytes": len(a[0])},
    "formats.serialize_dfa": lambda a, r: {"bytes": len(r)},
    "core.product_xor": lambda a, r: {"states_built": len(r.pairs)},
    "minimize.minimize_with_map": lambda a, r: {"states_in": a[0].n_states,
                                                "blocks_out": r[0].n_states},
    "parts.words_reaching": lambda a, r: {"words": len(r)},
    "language.symmetric_difference": lambda a, r: {"words_listed": len(r.words or ()),
                                                   "infinite_verdicts": int(not r.finite)},
    "language.enumerate_finite_language": lambda a, r: {"words": len(r)},
    "classes.state_class_partition": lambda a, r: {"states": a[0].n_states},
    "fmin.f_minimize": lambda a, r: {
        "merges": len(r[1]),
        "states_removed": sum(m.before.n_states - m.after.n_states for m in r[1])},
    "construct.construct_pair": lambda a, r: {"states_built": r[0].n_states + r[1].n_states},
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, request id)
        self.stack = []
        self.request = 0
        self.counts = Counter()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                try:
                    for stat, value in counter(args, result).items():
                        counts[f"{name}.{stat}"] += value
                except (AttributeError, IndexError, TypeError):
                    counts["trace.counter_errors"] += 1
            return result

        return traced

    def report(self, path: Path) -> dict:
        """Write the spans as tab-separated lines and return per-name totals."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        fresh = set()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if name == "language.symmetric_difference" and parent >= 0 \
                    and self.spans[parent][0] in PAIR_QUERIES:
                fresh.add(parent)
        with path.open("w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")
        queries = sum(calls[n] for n in PAIR_QUERIES)
        return {"calls": calls, "self_ns": self_ns, "counts": self.counts,
                "pair_queries": queries, "pair_hits": queries - len(fresh),
                "spans": len(self.spans)}


def install() -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "fdfa" or name.startswith("fdfa."))]
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"fdfa.{layer}"]
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_") and name not in SKIP):
                wrapped[fn] = tracer.wrap(name, fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])

    rand = sys.modules["fdfa.rand"]
    reachable = rand.reachable_states

    def attempt(*args, **kwargs):
        tracer.counts["rand.random_dfa.attempts"] += 1
        return reachable(*args, **kwargs)

    rand.reachable_states = attempt
    return tracer
