#!/usr/bin/env python3
"""Benchmark of simulpal's two engines: the two-base palindrome search and
the certification pipeline for the family a*g**n + rev(a).

Run from the repository root:

    python3 perfbench/run.py --workload search-10-2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --smoke

Workloads, metrics, units and regression bounds are declared in
``BENCHMARK.json``.  Each run starts fresh interpreters: five import probes
for ``setup_s`` (after one untimed probe that fills the bytecode cache),
then one workload process that repeats complete instances of the workload
for ``--seconds`` and checks every output against a reference outside the
timed region.  ``--trace 1`` also runs one instance with spans recorded
around simulpal's public functions and reports the per-layer metrics
instead of the end-to-end ones.  Every run also compares three CLI reports
with the goldens in ``perfbench/goldens`` (``timing_seconds`` aside).

Metrics are printed by name with unit and sample count, then run metadata,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness gate failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS_PY = os.path.join(BENCH_DIR, "workloads.py")
GOLDENS = os.path.join(BENCH_DIR, "goldens")
SETUP_PROBES = 5

# golden name -> CLI arguments; threads are explicit because the CLI
# default follows os.cpu_count(), not the CPU affinity set
CLI_CHECKS = {
    "search-10-2-1e9": ["search", "10", "2", "1e9", "--threads", "1"],
    "family-74-10-2": ["family", "74", "10", "2"],
    "cf-10-2-50": ["cf", "10", "2", "50"],
}
_TIMING = re.compile(rb'"timing_seconds": [-+0-9.eE]+')


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # the program runs with its default working precision
    env.pop("SIMULPAL_PRECISION", None)
    return env


def measure_setup() -> list[float]:
    """Seconds from starting an interpreter to simulpal being imported."""
    times = []
    for index in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, WORKLOADS_PY, "--probe"], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError("simulpal could not be imported from src/")
        if index:
            times.append(elapsed)
    return times


def cli_report(args: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of the CLI, with the timing value blanked."""
    proc = subprocess.run(
        [sys.executable, "-m", "simulpal.cli", *args], capture_output=True, env=child_env(), cwd=ROOT
    )
    return proc.returncode, _TIMING.sub(b'"timing_seconds": null', proc.stdout)


def check_cli() -> list[str]:
    failures = []
    for name, args in CLI_CHECKS.items():
        code, out = cli_report(args)
        with open(os.path.join(GOLDENS, f"{name}.json"), "rb") as fh:
            golden = fh.read()
        if code != 0 or out != golden:
            failures.append(f"simulpal {' '.join(args)}: exit {code}, report differs from goldens/{name}.json")
    return failures


def git_sha() -> str | None:
    # a checkout exported without .git may sit inside another repository
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_loc() -> int:
    package = os.path.join(SRC, "simulpal")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    setup = [] if trace else measure_setup()
    cmd = [sys.executable, WORKLOADS_PY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    child = json.loads(lines[-1])
    cli_failures = check_cli()
    values, samples = child["metrics"], child["samples"]
    if not trace:
        values["setup_s"] = statistics.median(setup)
        samples["setup_s"] = len(setup)

    declared = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    meta = dict(child["meta"], git_sha=git_sha(), src_loc=src_loc(), seconds=seconds, smoke=smoke)
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    for name, m in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{count}")
    for message in child["failures"] + cli_failures:
        print(f"  FAILED: {message}")
    print("meta " + json.dumps(meta))
    failed = child["failed"] + len(cli_failures)
    return {
        "correct": failed == 0,
        "attempted": child["attempted"] + len(CLI_CHECKS),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(SRC, "simulpal", "__init__.py")):
            raise BenchError("no simulpal sources under src/; run from a full checkout")
        results = {}
        for workload in names if args.workload == "all" else [args.workload]:
            results[workload] = run_workload(spec, workload, args.seed, args.seconds, args.trace, args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
