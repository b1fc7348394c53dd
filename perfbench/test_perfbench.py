"""Tests of the benchmark itself, at smoke size: ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    code, lines = run_bench("--workload", "all", "--smoke", "--seconds", "1", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w['name']}.{m['name']}" for w in spec()["workloads"] for m in spec()[section]}
    assert set(result["metrics"]) == expected


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        code, lines = run_bench("--workload", "all", "--smoke", "--seconds", "1", "--trace", "1", "--seed", "7")
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run_bench("--workload", "search-10-2", "--seconds", "1", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("enumerated, tested, bound", [(10, 2, 10**5), (10, 5, 123454), (6, 3, 5000), (2, 3, 999)])
def test_pruned_candidates_match_brute_force(enumerated, tested, bound):
    def leading_digit_and_palindrome(n):
        digits = []
        while n:
            n, r = divmod(n, enumerated)
            digits.append(r)
        return digits[-1], digits == digits[::-1]

    expected = 0
    if enumerated % tested == 0:
        for n in range(1, bound + 1):
            lead, palindrome = leading_digit_and_palindrome(n)
            expected += palindrome and lead % tested == 0
    assert workloads.pruned_candidates(enumerated, tested, bound) == expected


def test_family_shaped_entries():
    shaped = workloads.family_shaped([33, 99, 7447, 9009, 585585, 13500531, 313, 5], 10**4)
    assert shaped == {3: {1}, 9: {1, 3}, 74: {2}, 585: {3}, 135: {5}}
