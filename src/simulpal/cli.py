"""Command-line interface: search, count, check, family certification,
bound evaluation and continued fractions, with structured reports.

Reports go to stdout as a single JSON document (or CSV of the results
only); progress and diagnostics go to stderr.  Exit codes: 0 success,
1 negative predicate, 2 usage or validation error, 3 checkpoint mismatch,
4 certification left undecided.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import bounds as bounds_mod
from . import precise, reduction, simulcheck
from .lindep import multiplicatively_independent
from .radix import DomainError, check_base, is_palindrome, reverse_in_base
from .simulcheck import CheckpointMismatchError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_UNDECIDED = 4


def parse_exact_int(text: str) -> int:
    """Integer parser accepting scientific shorthand: '1e18' -> 10**18 exactly."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a number: {text!r}") from exc
    if q.denominator != 1:
        raise DomainError(f"{text!r} is not an integer")
    return q.numerator


def parse_base_list(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise DomainError(f"bad base list {text!r}") from exc
    if not out:
        raise DomainError("need at least one base")
    return out


def _default_threads() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _report(command: str, parameters: dict, results, started: float, checkpoint_path=None) -> dict:
    report = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    if checkpoint_path is not None:
        report["checkpoint_path"] = checkpoint_path
    return report


def _emit(report: dict, fmt: str, csv_rows: tuple[list[str], list[list]]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        header, rows = csv_rows
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))


def _with_log10(value: float) -> dict:
    return {"value": value, "log10": math.log10(value) if value > 0 else None}


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def show(info: dict) -> None:
        print(
            f"  length {info['digit_length']} ({info['parity']}): "
            f"half {info['half_value']}/{info['half_end'] - 1}, {info['found']} found",
            file=sys.stderr,
        )

    return show


def cmd_check(args) -> int:
    started = time.perf_counter()
    n = parse_exact_int(args.n)
    bases = parse_base_list(args.bases)
    table = {str(b): is_palindrome(n, b) for b in bases}
    report = _report("check", {"n": n, "bases": bases}, table, started)
    _emit(report, args.format, (["base", "is_palindrome"], [[b, v] for b, v in table.items()]))
    return EXIT_OK if all(table.values()) else EXIT_NEGATIVE


def _run_search(args, counting: bool) -> int:
    started = time.perf_counter()
    bound = parse_exact_int(args.bound)
    checkpoint_path = args.resume if args.resume else args.checkpoint
    found = simulcheck.search(
        args.g,
        args.h,
        bound,
        enumeration_base=args.enumeration_base,
        checkpoint_path=checkpoint_path,
        resume=args.resume is not None,
        threads=args.threads,
        checkpoint_interval=args.checkpoint_interval,
        progress=_progress_printer(args.progress),
    )
    name = "count" if counting else "search"
    params = {
        "g": args.g,
        "h": args.h,
        "bound": bound,
        "enumeration_base": args.enumeration_base,
        "threads": args.threads,
    }
    if counting:
        results = {"count": len(found)}
        csv_rows = (["count"], [[len(found)]])
    else:
        results = {"count": len(found), "palindromes": found}
        csv_rows = (["palindrome"], [[n] for n in found])
    report = _report(name, params, results, started, checkpoint_path)
    _emit(report, args.format, csv_rows)
    return EXIT_OK


def cmd_search(args) -> int:
    return _run_search(args, counting=False)


def cmd_count(args) -> int:
    return _run_search(args, counting=True)


def cmd_family(args) -> int:
    started = time.perf_counter()
    kwargs = {"bits": args.precision, "exhaustive_limit": args.exhaustive_limit}
    if args.bound is not None:
        kwargs["bound"] = parse_exact_int(args.bound)
    report_obj = reduction.verify_family(args.a, args.g, args.h, **kwargs)
    rev_a = reverse_in_base(args.a, args.g)
    results = {
        "status": report_obj.status,
        "branch": report_obj.branch,
        "shifts": list(report_obj.ns),
        "values": [args.a * args.g**n + rev_a for n in report_obj.ns],
        "alpha": None if report_obj.alpha is None else str(report_obj.alpha),
        "bound": report_obj.bound,
        "reduced_bound": report_obj.reduced_bound,
        "pair_used": None if report_obj.pair_used is None else {
            "q": report_obj.pair_used.q,
            "kappa": str(report_obj.pair_used.kappa),
        },
        "witness": None if report_obj.witness is None else asdict(report_obj.witness),
        "dependent_sieve": None
        if report_obj.dependent_result is None
        else {
            "floor": report_obj.dependent_result.floor,
            "q_ceiling": report_obj.dependent_result.q_ceiling,
            "small_regime": list(report_obj.dependent_result.small_regime),
            "large_regime": list(report_obj.dependent_result.large_regime),
            "survivors": list(report_obj.dependent_result.survivors),
        },
        "tested_upper": report_obj.tested_upper,
        "undecided_above": report_obj.undecided_above,
    }
    report = _report(
        "family",
        {"a": args.a, "g": args.g, "h": args.h, "precision_bits": args.precision},
        results,
        started,
    )
    _emit(report, args.format, (["n", "value"], list(zip(results["shifts"], results["values"]))))
    return EXIT_UNDECIDED if report_obj.status == "undecided" else EXIT_OK


def cmd_bound(args) -> int:
    started = time.perf_counter()
    shift_terms = bounds_mod.shift_exponent_bound_terms(args.a, args.g, args.h)
    results = {
        "shift_exponent_bound": _with_log10(max(shift_terms.values())),
        "shift_exponent_terms": {k: _with_log10(v) for k, v in shift_terms.items()},
    }
    rows = [["shift_exponent_bound", max(shift_terms.values())]]
    rows += [[f"shift_term_{k}", v] for k, v in shift_terms.items()]
    if args.n is not None:
        run_terms = bounds_mod.zero_run_threshold_terms(args.a, args.g, args.h, args.n)
        results["zero_run_threshold"] = _with_log10(max(run_terms.values()))
        results["zero_run_terms"] = {k: _with_log10(v) for k, v in run_terms.items()}
        rows.append(["zero_run_threshold", max(run_terms.values())])
        rows += [[f"zero_run_term_{k}", v] for k, v in run_terms.items()]
    report = _report(
        "bound",
        {"a": args.a, "g": args.g, "h": args.h, "n": args.n},
        results,
        started,
    )
    _emit(report, args.format, (["quantity", "value"], rows))
    return EXIT_OK


def cmd_cf(args) -> int:
    started = time.perf_counter()
    check_base(args.g)
    check_base(args.h)
    # equal or power-related bases make log g / log h rational
    if not multiplicatively_independent(args.g, args.h):
        raise DomainError(f"bases {args.g} and {args.h} are multiplicatively dependent")
    x = precise.PreciseReal.log_ratio(args.g, args.h, args.precision)
    cf = reduction.continued_fraction(x, args.count)
    results = {
        "quotients": list(cf.quotients),
        "convergents": [{"p": p, "q": q} for p, q in cf.convergents],
        "exact": cf.exact,
    }
    report = _report(
        "cf",
        {"g": args.g, "h": args.h, "count": args.count, "precision_bits": args.precision},
        results,
        started,
    )
    rows = [[i, a, p, q] for i, (a, (p, q)) in enumerate(zip(cf.quotients, cf.convergents))]
    _emit(report, args.format, (["index", "quotient", "p", "q"], rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision",
        type=int,
        default=precise.DEFAULT_PRECISION,
        help=f"working precision in bits, 1 to {precise.MAX_PRECISION} "
        f"(default {precise.DEFAULT_PRECISION})",
    )
    parser = argparse.ArgumentParser(
        prog="simulpal",
        description="Find, count and certify integers that are palindromes in two bases at once.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[fmt], help="test palindromicity of N in each base")
    p.add_argument("n")
    p.add_argument("--bases", required=True, help="comma-separated bases, e.g. 10,2")
    p.set_defaults(func=cmd_check)

    for name, helptext in (
        ("search", "list all simultaneous palindromes up to a bound"),
        ("count", "count simultaneous palindromes up to a bound"),
    ):
        p = sub.add_parser(name, parents=[fmt], help=helptext)
        p.add_argument("g", type=int)
        p.add_argument("h", type=int)
        p.add_argument("bound", help="inclusive bound; scientific shorthand like 1e14 is exact")
        p.add_argument("--checkpoint", help="write resumable state to this file")
        p.add_argument("--resume", help="resume from this checkpoint file and keep updating it")
        p.add_argument(
            "--threads",
            type=int,
            default=_default_threads(),
            help="worker processes, at least 1 (default: the CPUs this process may use; "
            "1 gives a sequential reference run)",
        )
        p.add_argument("--enumeration-base", type=int, default=None)
        p.add_argument("--checkpoint-interval", type=float, default=300.0)
        p.add_argument("--progress", action="store_true", help="progress lines on stderr")
        p.set_defaults(func=cmd_search if name == "search" else cmd_count)

    p = sub.add_parser(
        "family", parents=[fmt, precision], help="certify all n with a*g**n + rev(a) palindromic in base h"
    )
    p.add_argument("a", type=int)
    p.add_argument("g", type=int)
    p.add_argument("h", type=int)
    p.add_argument("--bound", default=None, help="override the unconditional bound X")
    p.add_argument("--exhaustive-limit", type=int, default=2000)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", parents=[fmt], help="evaluate the explicit bounds term by term")
    p.add_argument("a", type=int)
    p.add_argument("g", type=int)
    p.add_argument("h", type=int)
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("cf", parents=[fmt, precision], help="continued fraction of log g / log h")
    p.add_argument("g", type=int)
    p.add_argument("h", type=int)
    p.add_argument("count", type=int)
    p.set_defaults(func=cmd_cf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointMismatchError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except precise.UndecidedComparisonError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
