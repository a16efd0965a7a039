"""Smoke test of the benchmark itself, at tiny input sizes: ``python3 -m pytest -q bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.5", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, res = result(run("--workload", workload, "--trace", trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.split()[2] == m["unit"]
                   for line in lines), m["name"]
    if trace == "0":
        assert any(line.startswith("failed_frac 0.0000 ratio") for line in lines)


def test_corrupted_reply_counts_as_failed():
    lines, res = result(run("--workload", "finite-heavy", "--corrupt", "1"))
    assert res["failed"] == 1 and not res["correct"]
    assert any(line.startswith("failed_frac ") and f"(1 of {res['attempted']})" in line
               for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
