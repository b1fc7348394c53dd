"""One benchmark run in a fresh interpreter: the workloads, their correctness
gates and the traced run.

``run.py`` starts this file once per run and reads the JSON object it
prints last.  ``--probe`` only imports simulpal and prints ``ready``;
``run.py`` times such probes for ``setup_s``.  Each workload is a closed
loop with one client: the next call starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# OEIS A007632 up to 1e18, shipped with the tests
REFERENCE = os.path.join(ROOT, "tests", "data", "simul_pal_10_2_1e18.txt")
REFERENCE_BOUND = 10**18

sys.path.insert(0, SRC)
import simulpal  # noqa: E402
from simulpal import bounds, lindep, palgen, precise, reduction, simulcheck  # noqa: E402

from tracing import Tracer  # noqa: E402

# (full size, smoke size): the search bound, or the exclusive prefix limit
SIZES = {
    "search-10-2": (10**12, 10**7),
    "family-10-2": (600, 200),
}


def read_reference() -> list[int]:
    with open(REFERENCE) as fh:
        return [int(line) for line in fh if line.strip() and not line.startswith("#")]


def _mirror(half: int, g: int, d: int) -> int:
    # the d-digit base-g palindrome whose leading ceil(d/2) digits are ``half``
    digits = []
    while half:
        half, r = divmod(half, g)
        digits.append(r)
    digits.reverse()
    value = 0
    for digit in digits + digits[: d // 2][::-1]:
        value = value * g + digit
    return value


def pruned_candidates(enumerated: int, tested: int, bound: int) -> int:
    """Palindromes <= bound in base ``enumerated`` that the search may skip
    untested: when ``tested`` divides ``enumerated``, those whose leading digit
    is a multiple of ``tested``."""
    if enumerated % tested:
        return 0
    total = 0
    d = 1
    while True:
        lo = enumerated ** ((d + 1) // 2 - 1)
        if _mirror(lo, enumerated, d) > bound:
            return total
        end, hi = lo, lo * enumerated
        while end < hi:  # least half whose palindrome exceeds bound
            mid = (end + hi) // 2
            if _mirror(mid, enumerated, d) <= bound:
                end = mid + 1
            else:
                hi = mid
        for lead in range(tested, enumerated, tested):
            total += max(0, min(end, (lead + 1) * lo) - lead * lo)
        d += 1


def is_binary_palindrome(n: int) -> bool:
    s = format(n, "b")
    return s == s[::-1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Rep:
    """One complete, timed instance of a workload."""

    wall: float
    latencies: list[float]  # one per operation
    outputs: list
    # the search() call's start time, then the time of each progress callback
    marks: list[float] = field(default_factory=list)


class SearchWorkload:
    """search(10, 2, bound): one worker, no checkpoint."""

    g, h = 10, 2

    def __init__(self, bound, seed):
        self.bound = bound
        self.expected = [n for n in read_reference() if n <= bound]

    def run_once(self) -> Rep:
        marks = [perf_counter()]
        try:
            found = simulcheck.search(
                self.g, self.h, self.bound, threads=1, progress=lambda info: marks.append(perf_counter())
            )
        except Exception as exc:  # a raising call is a failed operation
            found = exc
        wall = perf_counter() - marks[0]
        return Rep(wall, [wall], [found], marks)

    def check(self, rep: Rep) -> list[str]:
        found = rep.outputs[0]
        if found == self.expected:
            return []
        return [f"search({self.g}, {self.h}, {self.bound}) gave {found!r:.200}"]

    def layer_metrics(self, reps, traced):
        enumerated = simulcheck.plan_enumeration_base(self.g, self.h, self.bound)
        tested = self.h if enumerated == self.g else self.g
        candidates = palgen.count_palindromes_upto(enumerated, self.bound)
        gaps = [b - a for a, b in zip(traced.marks, traced.marks[1:])] or [0.0]
        found = traced.outputs[0]
        return {
            "simulcheck.candidates": candidates,
            "simulcheck.candidates_pruned": pruned_candidates(enumerated, tested, self.bound),
            "simulcheck.candidates_per_s": candidates / min(r.wall for r in reps),
            "simulcheck.hits": len(found) if isinstance(found, list) else 0,
            "simulcheck.chunks": len(gaps),
            "simulcheck.chunk_ms_p50": statistics.median(gaps) * 1e3,
            "simulcheck.chunk_ms_max": max(gaps) * 1e3,
        }


def family_shaped(numbers: list[int], limit: int) -> dict[int, set[int]]:
    """{a: shifts n} for the numbers of the form a*10**n + rev(a), a < limit."""
    out: dict[int, set[int]] = {}
    for number in numbers:
        s = str(number)
        for k in range(1, len(str(limit - 1)) + 1):
            a, n = int(s[:k]), len(s) - k
            if a < limit and a % 10 and n >= k and number == a * 10**n + int(str(a)[::-1]):
                out.setdefault(a, set()).add(n)
    return out


class FamilyWorkload:
    """verify_family(a, 10, 2) with default arguments for every admissible
    prefix a < limit, in seeded shuffled order."""

    g, h = 10, 2

    def __init__(self, limit, seed):
        self.prefixes = [a for a in range(1, limit) if a % 10]
        self.rng = random.Random(seed)
        self.shipped = family_shaped(read_reference(), limit)

    def run_once(self) -> Rep:
        order = list(self.prefixes)
        self.rng.shuffle(order)
        latencies, outputs = [], []
        start = perf_counter()
        for a in order:
            t = perf_counter()
            try:
                report = reduction.verify_family(a, self.g, self.h)
            except Exception as exc:
                report = exc
            latencies.append(perf_counter() - t)
            outputs.append((a, report))
        return Rep(perf_counter() - start, latencies, outputs)

    def check(self, rep: Rep) -> list[str]:
        failures = []
        for a, report in rep.outputs:
            problem = self._check_report(a, report)
            if problem:
                failures.append(f"verify_family({a}, 10, 2): {problem}")
        return failures

    def _check_report(self, a, report) -> str | None:
        if isinstance(report, Exception):
            return f"raised {report!r}"
        if report.status != "complete":
            return f"status {report.status}"
        rev_a = int(str(a)[::-1])
        oracle = tuple(
            n for n in range(len(str(a)), report.tested_upper + 1) if is_binary_palindrome(a * 10**n + rev_a)
        )
        if report.ns != oracle:
            return f"shifts {report.ns}, oracle {oracle} up to {report.tested_upper}"
        listed = {n for n in report.ns if a * 10**n + rev_a <= REFERENCE_BOUND}
        if listed != self.shipped.get(a, set()):
            return f"shifts below 1e18 {sorted(listed)}, shipped list {sorted(self.shipped.get(a, ()))}"
        return None

    def layer_metrics(self, reps, traced):
        branches = Counter(report.branch for _, report in traced.outputs if not isinstance(report, Exception))
        return {f"reduction.branch.{b}": branches[b] for b in ("independent", "dependent", "excluded-parity")}


WORKLOADS = {
    "search-10-2": SearchWorkload,
    "family-10-2": FamilyWorkload,
}

# layer metrics only some workloads produce; the others report 0
WORKLOAD_LAYER_METRICS = (
    "simulcheck.candidates", "simulcheck.candidates_pruned", "simulcheck.candidates_per_s",
    "simulcheck.hits", "simulcheck.chunks", "simulcheck.chunk_ms_p50", "simulcheck.chunk_ms_max",
    "reduction.branch.independent", "reduction.branch.dependent", "reduction.branch.excluded-parity",
)
# spans reported as <name>.calls and <name>.s
TIMED_SPANS = (
    "palgen.count_palindromes_upto",
    "bounds.shift_exponent_bound",
    "lindep.dependence_witness",
    "reduction.continued_fraction",
    "reduction.precompute_reduction_pairs",
    "reduction.baker_davenport_reduce",
    "reduction.dependent_case_check",
)


class LayerCounters:
    """Counts taken from the arguments and results of traced calls."""

    def __init__(self):
        self.pairs_admitted = 0
        self.bd_pairs_tried: list[int] = []
        self.refinements = 0
        self.max_bits = 0

    def on_pairs(self, args, result):
        self.pairs_admitted += len(result)

    def on_reduce(self, args, result):
        if result.pair_used is not None:
            self.bd_pairs_tried.append(1 + next(i for i, p in enumerate(args[0].pairs) if p is result.pair_used))

    def on_refined(self, args, result):
        if result is not args[0]:
            self.refinements += 1
            self.on_log(args, result)

    def on_log(self, args, result):
        # exact values carry a nominal precision; only computed ones count
        if result.refinable:
            self.max_bits = max(self.max_bits, result.bits)


def install(tracer: Tracer, counters: LayerCounters) -> None:
    patch = tracer.patch_function
    patch(simulcheck, "search", "simulcheck.search")
    patch(simulcheck, "plan_enumeration_base", "simulcheck.plan_enumeration_base")
    patch(palgen, "count_palindromes_upto", "palgen.count_palindromes_upto")
    patch(bounds, "shift_exponent_bound", "bounds.shift_exponent_bound")
    patch(lindep, "dependence_witness", "lindep.dependence_witness")
    patch(reduction, "verify_family", "reduction.verify_family")
    patch(reduction, "continued_fraction", "reduction.continued_fraction")
    patch(reduction, "precompute_reduction_pairs", "reduction.precompute_reduction_pairs", counters.on_pairs)
    patch(reduction, "baker_davenport_reduce", "reduction.baker_davenport_reduce", counters.on_reduce)
    patch(reduction, "dependent_case_check", "reduction.dependent_case_check")
    # only the direct shift scan's calls, not the search's own digit tests
    patch(reduction, "is_palindrome_early_exit", "reduction.direct_scan", everywhere=False)
    patch(precise, "hp_log", "precise.hp_log", counters.on_log)
    tracer.patch_method(precise.PreciseReal, "refined", "precise.PreciseReal.refined", counters.on_refined)


def layer_metrics(workload, reps: list[Rep], traced: Rep, tracer: Tracer, counters: LayerCounters) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    out = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0)
    out.update(workload.layer_metrics(reps, traced))
    out.update({
        "trace.overhead_s": traced.wall - statistics.median(r.wall for r in reps),
        "simulcheck.plan_s": seconds("simulcheck.plan_enumeration_base"),
        "reduction.direct_scan.shifts": calls("reduction.direct_scan"),
        "reduction.direct_scan.s": seconds("reduction.direct_scan"),
        "reduction.pairs_admitted": counters.pairs_admitted,
        "reduction.bd_pairs_tried_per_success": statistics.fmean(counters.bd_pairs_tried)
        if counters.bd_pairs_tried
        else 0,
        "reduction.verify_family.self_s": totals.get("reduction.verify_family", (0, 0.0, 0.0))[2],
        "precise.refinements": counters.refinements,
        "precise.max_bits": counters.max_bits,
        "precise.hp_log.calls": calls("precise.hp_log"),
    })
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = seconds(name)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any child process
    it waited for, such as search pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not simulpal.__file__.startswith(SRC + os.sep):
        print(f"simulpal imported from {simulpal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(OUT_DIR, exist_ok=True)
    size = SIZES[args.workload][1 if args.smoke else 0]
    workload = WORKLOADS[args.workload](size, args.seed)

    reps: list[Rep] = []
    failures: list[str] = []
    measured = 0.0
    while not reps or measured < args.seconds:
        rep = workload.run_once()
        measured += rep.wall
        failures += workload.check(rep)
        # outputs kept across reps would grow the heap, and with it the
        # garbage collector's work and the peak RSS, from rep to rep
        rep.outputs = None
        reps.append(rep)
    attempted = sum(len(rep.latencies) for rep in reps)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "threads": 1,
        "reps": len(reps),
        "python": sys.version.split()[0],
        "mpmath": sys.modules["mpmath"].__version__,
        "sympy": sys.modules["sympy"].__version__,
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    samples: dict[str, int] = {}
    if args.trace:
        tracer, counters = Tracer(), LayerCounters()
        install(tracer, counters)
        try:
            traced = workload.run_once()
        finally:
            tracer.restore()
        failures += workload.check(traced)
        attempted += len(traced.latencies)
        metrics = layer_metrics(workload, reps, traced, tracer, counters)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
        note = (
            "search chunks run in private _scan_chunk calls (in pool workers when threads > 1), "
            "so chunk metrics come from the gaps between progress callbacks"
        )
        tracer.write(spans_path, json.dumps({**meta, "note": note}))
        meta.update({"spans": os.path.relpath(spans_path, ROOT), "spans_recorded": len(tracer.spans), "note": note})
    else:
        # Timings come from the fastest complete instance in the run.  Other
        # tenants of a shared host slow whole stretches of a run by up to 2x
        # and never speed it up, so the fastest instance is the steadiest
        # measure of the program's own cost; the median is kept in meta.
        best = min(reps, key=lambda rep: rep.wall)
        meta["wall_s_median"] = statistics.median(rep.wall for rep in reps)
        metrics = {
            "wall_s": best.wall,
            "peak_rss_mb": peak_rss_mb(),
            "call_p50_ms": statistics.median(best.latencies) * 1e3,
            "call_p99_ms": percentile(best.latencies, 0.99) * 1e3,
        }
        ops = len(best.latencies)
        samples = {"wall_s": len(reps), "peak_rss_mb": 1, "call_p50_ms": ops, "call_p99_ms": ops}
    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "samples": samples,
        "meta": meta,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
