"""Closed-loop benchmark of the ``fdfa`` command line: one client, one worker, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the seeded inputs and builds the answer key (``workloads.py``),
then starts a fresh worker process that imports ``fdfa`` from ``src/``.  The
client replays the request list a whole number of times, checks every reply,
and prints one line per metric, then one JSON object as the last line.  With
``--trace 0`` the JSON holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout being measured

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
MIN_REQUESTS = 100  # so that at least ten samples lie beyond p90
SETUPS = 5  # set-up is repeated and its median reported

END_TO_END = [("setup_s", "s"), ("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("findiff_p50_ms", "ms")]
COMMANDS = ("classes", "fminimize", "iso", "findiff", "diff", "minimize", "parts", "check",
            "construct")

LAYER_STATS = [
    ("cli.main", "self_ms"),
    ("formats.parse_dfa", "calls self_ms bytes"),
    ("formats.serialize_dfa", "calls self_ms bytes"),
    ("core.product_xor", "calls self_ms states_built"),
    ("core.trim", "calls self_ms"),
    ("core.strongly_connected_components", "calls self_ms"),
    ("minimize.minimize_with_map", "calls self_ms states_in blocks_out"),
    ("minimize.moore_partition", "calls self_ms"),
    ("parts.compute_parts", "calls self_ms"),
    ("parts.words_reaching", "calls self_ms words"),
    ("language.symmetric_difference", "calls self_ms words_listed infinite_verdicts"),
    ("language.enumerate_finite_language", "calls self_ms words"),
    ("language.classify_language", "calls self_ms"),
    ("language.languages_equal", "calls self_ms"),
    ("classes.state_class_partition", "calls self_ms states"),
    ("classes.states_finitely_different", "calls"),
    ("classes.cross_finitely_different", "calls"),
    ("classes.dfas_finitely_different", "calls self_ms"),
    ("fmin.f_minimize", "calls self_ms merges states_removed"),
    ("fmin.is_f_minimal", "calls self_ms"),
    ("iso.infinite_part_iso", "calls self_ms"),
    ("construct.construct_pair", "calls self_ms states_built"),
    ("rand.random_dfa", "calls self_ms attempts"),
]
MODULES = ("cli", "formats", "core", "minimize", "parts", "language", "classes", "fmin", "iso",
           "construct", "rand")
PER_LAYER = [(f"{fn}.{stat}", {"calls": "count", "self_ms": "ms", "bytes": "bytes"}.get(stat, "count"))
             for fn, stats in LAYER_STATS for stat in stats.split()]
PER_LAYER += [(f"{m}.self_ms", "ms") for m in MODULES]
PER_LAYER += [("classes.memo_hit_ratio", "ratio"), ("rand.random_dfa.success_ratio", "ratio"),
              ("trace.overhead_frac", "ratio")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Worker:
    """A fresh process serving ``fdfa.cli.main`` requests from ``workdir``."""

    def __init__(self, workdir: Path):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)], cwd=workdir, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")
        try:
            ready = self._read().get("ready")
        except BenchError:
            ready = False
        if not ready:
            self.close()
            raise BenchError(f"worker could not import fdfa from {SRC}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker exited unexpectedly")
        return json.loads(line)

    def call(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        reply = {}
        if self.proc.poll() is None:
            try:
                reply = self.call(op="exit")
            except (OSError, BenchError):
                pass
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return reply


class Loop:
    """Replays a request list and judges every reply against its answer key."""

    def __init__(self, worker: Worker, requests: list, workdir: Path, corrupt: int):
        self.worker, self.requests, self.workdir = worker, requests, workdir
        self.corrupt = corrupt  # replies to spoil on purpose (smoke test only)
        self.verified = {}  # request index -> digest of a reply that passed its check
        self.samples = []  # (command, ms)
        self.attempted = self.failed = 0

    def one_pass(self) -> float:
        """Serve every request once; returns the time spent inside ``main``, in ms."""
        total = 0.0
        for i, req in enumerate(self.requests):
            for name in req.outputs:
                (self.workdir / name).unlink(missing_ok=True)
            reply = self.worker.call(op="run", argv=req.argv)
            self.attempted += 1
            if self.corrupt > 0:
                self.corrupt -= 1
                reply["stdout"] += "corrupted\n"
            total += reply["ms"]
            reason = self.judge(i, req, reply)
            if reason is None:
                self.samples.append((req.command, reply["ms"]))
            else:
                self.failed += 1
                print(f"FAILED {' '.join(req.argv)}: {reason}", file=sys.stderr)
        return total

    def judge(self, i: int, req, reply: dict):
        if reply["error"] is not None:
            return "exception:\n" + reply["error"]
        if reply["code"] != req.code:
            return f"exit code {reply['code']}, expected {req.code}"
        digest = hashlib.sha256(reply["stdout"].encode())
        for name in req.outputs:
            path = self.workdir / name
            digest.update(path.read_bytes() if path.is_file() else b"\0missing")
        digest = digest.hexdigest()
        if self.verified.get(i) == digest:  # output is byte-stable, so a match is a pass
            return None
        reason = req.check(reply["stdout"], self.workdir)
        if reason is None:
            self.verified[i] = digest
        return reason

    def run(self, seconds: float) -> list:
        """Whole passes until ``seconds`` are used up; returns each pass's ms in ``main``."""
        start = time.perf_counter()
        need = -(-MIN_REQUESTS // len(self.requests))
        busy = []
        while True:
            busy.append(self.one_pass())
            elapsed = time.perf_counter() - start
            if len(busy) >= need and elapsed + 0.5 * elapsed / len(busy) >= seconds:
                return busy


def set_up(args, workdir: Path):
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    requests = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
    worker = Worker(workdir)
    return requests, worker, time.perf_counter() - start


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(args, workdir: Path):
    setups = []
    for i in range(SETUPS):
        requests, worker, seconds = set_up(args, workdir)
        setups.append(seconds)
        if i < SETUPS - 1:
            worker.close()
    loop = Loop(worker, requests, workdir, args.corrupt)
    try:
        busy = loop.run(args.seconds)
    finally:
        rss = worker.close().get("maxrss_kb", 0)
    ms = [m for _, m in loop.samples] or [float("nan")]
    n = len(loop.samples)
    metrics = {  # name -> (value, unit, note)
        "setup_s": (p50(setups), "s", f"median of {SETUPS} set-ups"),
        "requests_per_s": (len(requests) / (p50(busy) / 1000.0), "1/s",
                           f"median pass of {len(busy)}, {len(requests)} requests each"),
        "latency_p50_ms": (p50(ms), "ms", f"n={n}"),
        "latency_p90_ms": (p90(ms), "ms", f"n={n}"),
        "peak_rss_mb": (rss / 1024.0, "MB", "ru_maxrss of the worker"),
        "failed_frac": (loop.failed / loop.attempted, "ratio", f"{loop.failed} of {loop.attempted}"),
    }
    for cmd in COMMANDS:
        cms = [m for c, m in loop.samples if c == cmd]
        if cms:
            metrics[f"{cmd}_p50_ms"] = (p50(cms), "ms", f"n={len(cms)}")
    print(f"workload {args.workload} seed {args.seed}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.4f} {unit} ({note})")
    return loop, {name: {"value": metrics.get(name, (float("nan"),))[0], "unit": unit}
                  for name, unit in END_TO_END}


def per_layer(args, workdir: Path):
    requests, worker, _ = set_up(args, workdir)
    loop = Loop(worker, requests, workdir, args.corrupt)
    try:
        plain = loop.run(args.seconds / 2)
        worker.call(op="trace")
        traced = loop.run(args.seconds / 2)
        report = worker.call(op="report", path=str(workdir / "spans.tsv"))
    finally:
        worker.close()
    passes = len(traced)
    calls, self_ns, counts = report["calls"], report["self_ns"], report["counts"]
    values = {}
    for fn, stats in LAYER_STATS:
        for stat in stats.split():
            if stat == "calls":
                v = calls.get(fn, 0)
            elif stat == "self_ms":
                v = self_ns.get(fn, 0) / 1e6
            else:
                v = counts.get(f"{fn}.{stat}", 0)
            values[f"{fn}.{stat}"] = v / passes
    for m in MODULES:
        values[f"{m}.self_ms"] = sum(v for k, v in self_ns.items() if k.startswith(m + ".")) / 1e6 / passes
    queries, attempts = report["pair_queries"], counts.get("rand.random_dfa.attempts", 0)
    values["classes.memo_hit_ratio"] = report["pair_hits"] / queries if queries else 0.0
    values["rand.random_dfa.success_ratio"] = calls.get("rand.random_dfa", 0) / attempts if attempts else 0.0
    values["trace.overhead_frac"] = 1.0 - p50(plain) / p50(traced)
    print(f"workload {args.workload} seed {args.seed}: traced {passes} passes of {len(requests)} "
          f"requests, {report['spans']} spans in {workdir.name}/spans.tsv; values are per pass")
    print(f"classes.memo_hit_ratio base: {queries} pair queries; "
          f"rand.random_dfa.success_ratio base: {attempts} attempts; "
          f"counter errors: {counts.get('trace.counter_errors', 0)}")
    for name, unit in PER_LAYER:
        print(f"{name} {values[name]:.4f} {unit}")
    return loop, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--corrupt", type=int, default=0, metavar="N",
                        help="spoil the first N replies before checking them (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "fdfa" / "cli.py").is_file():
        print(f"run.py: no fdfa package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / args.workload
    try:
        loop, metrics = (per_layer if args.trace else end_to_end)(args, workdir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
