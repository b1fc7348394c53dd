"""Command-line interface: search, count, check, family certification,
bound evaluation and continued fractions, with structured reports.

Reports go to stdout as a single JSON document (or CSV of the results
only); progress and diagnostics go to stderr.  Exit codes: 0 success,
1 negative predicate, 2 usage or validation error, 3 mismatched, damaged
or unwritable checkpoint, 4 certification left undecided.

Each ``cmd_*`` returns its exit code, parameters, results and CSV table
(header, rows); ``search`` and ``count`` add the checkpoint path, None
without one.  :func:`main` alone times the call, builds the report and
prints it.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import reprlib
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import bounds as bounds_mod
from . import precise, reduction, simulcheck
from .lindep import _require_independent
from .radix import DomainError, check_base, is_palindrome, reverse_in_base
from .simulcheck import CheckpointMismatchError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_UNDECIDED = 4


_INTEGER_TEXT = re.compile(r"\s*([+-]?)(?=\.?\d)(\d(?:_?\d)*)?(?:\.(\d(?:_?\d)*)?)?(?:[eE]([+-]?)(\d(?:_?\d)*))?\s*")


def parse_exact_int(text: str) -> int:
    """Integer parser accepting scientific shorthand: '1e18' -> 10**18 exactly.

    ``_INTEGER_TEXT`` is ``float``'s spelling without inf and nan, in Unicode decimal digits with an underscore
    only between two, as ``int`` has them; other text is "not a number".  The digit count comes first, from
    the digit strings (20 significant exponent digits are past 10**18), and decides "is not an integer", then
    the int-str limit (if off: the larger of Python's default and ``len(text)``); only then is the value built.
    """
    parts = _INTEGER_TEXT.fullmatch(text.translate({ord(c): str(int(c)) for c in set(text) if c.isdecimal()}))
    if parts is None:
        raise DomainError(f"not a number: {reprlib.repr(text)}")
    sign, whole, fraction, exponent_sign, exponent = (part.replace("_", "") for part in parts.groups(""))
    digits = (whole + fraction).lstrip("0")
    if not digits:  # zero, whatever its exponent
        return 0
    length = len(digits) - len(fraction) + int(exponent_sign + "0" + exponent.lstrip("0")[:20])  # digit count
    if len(digits.rstrip("0")) > length:
        raise DomainError(f"{reprlib.repr(text)} is not an integer")
    default = getattr(sys.int_info, "default_max_str_digits", 4300)  # Python before 3.10.7 has no limit
    limit = getattr(sys, "get_int_max_str_digits", int)() or max(default, len(text))
    if length > limit:  # the limit is a C int, far below 10**18
        count, most = ("more than 10**18", "a") if length > 10**18 else (length, f"the {limit} digits a")
        size = f"{'a negative' if sign == '-' else 'an'} integer of {count} digits"
        raise DomainError(f"{reprlib.repr(text)} is {size}, more than {most} report can print")
    return int(sign + digits[:length]) * 10 ** max(length - len(digits), 0)


def _number_argument(text: str, kind: type = int):
    # kind's grammar, int's with no shorthand; argparse's own message would quote all of a refused text
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {reprlib.repr(text)}") from None


def parse_base_list(text: str) -> list[int]:
    # an empty entry fails int(); check keys its results by base, so a repeated one would collapse
    try:
        out = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad base list {reprlib.repr(text)}") from exc
    if len(set(out)) < len(out):
        raise DomainError(f"base list {reprlib.repr(text)} repeats a base")
    return out


def _with_log10(value: float) -> dict:
    return {"value": value, "log10": math.log10(value) if value > 0 else None}


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def show(info: dict) -> None:
        print(
            f"  length {info['digit_length']}: {info['cursor']}/{info['length_end']}, {info['found']} found",
            file=sys.stderr,
        )

    return show


def cmd_check(args):
    n = parse_exact_int(args.n)
    bases = parse_base_list(args.bases)
    table = {str(b): is_palindrome(n, b) for b in bases}
    code = EXIT_OK if all(table.values()) else EXIT_NEGATIVE
    return code, {"n": n, "bases": bases}, table, (["base", "is_palindrome"], [[b, v] for b, v in table.items()])


def cmd_search(args):
    bound = parse_exact_int(args.bound)
    checkpoint_path = args.checkpoint if args.resume is None else args.resume
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
    params = {
        "g": args.g,
        "h": args.h,
        "bound": bound,
        "enumeration_base": args.enumeration_base,
        "threads": min(args.threads, simulcheck.usable_cpus()),
    }
    if args.command == "count":
        return EXIT_OK, params, {"count": len(found)}, (["count"], [[len(found)]]), checkpoint_path
    results = {"count": len(found), "palindromes": found}
    return EXIT_OK, params, results, (["palindrome"], [[n] for n in found]), checkpoint_path


def cmd_family(args):
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
            "kappa": str(Fraction(report_obj.pair_used.q, 2 * report_obj.bound)),
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
    return (
        EXIT_UNDECIDED if report_obj.status == "undecided" else EXIT_OK,
        {"a": args.a, "g": args.g, "h": args.h, "precision_bits": args.precision},
        results,
        (["n", "value"], list(zip(results["shifts"], results["values"]))),
    )


def cmd_bound(args):
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
    return EXIT_OK, {"a": args.a, "g": args.g, "h": args.h, "n": args.n}, results, (["quantity", "value"], rows)


def cmd_cf(args):
    # equal or power-related bases make log g / log h rational
    _require_independent(check_base(args.g), check_base(args.h))
    x = precise.PreciseReal.log_ratio(args.g, args.h, args.precision)
    cf = reduction.continued_fraction(x, args.count)
    results = {
        "quotients": list(cf.quotients),
        "convergents": [{"p": p, "q": q} for p, q in cf.convergents],
        "exact": cf.exact,
    }
    rows = [[i, a, p, q] for i, (a, (p, q)) in enumerate(zip(cf.quotients, cf.convergents))]
    return (
        EXIT_OK,
        {"g": args.g, "h": args.h, "count": args.count, "precision_bits": args.precision},
        results,
        (["index", "quotient", "p", "q"], rows),
    )


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision",
        type=_number_argument,
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
        p.add_argument("g", type=_number_argument)
        p.add_argument("h", type=_number_argument)
        p.add_argument("bound", help="inclusive bound; scientific shorthand like 1e14 is exact")
        state = p.add_mutually_exclusive_group()
        state.add_argument("--checkpoint", help="write resumable state to this file")
        state.add_argument("--resume", help="resume from this checkpoint file and keep updating it")
        p.add_argument(
            "--threads",
            type=_number_argument,
            default=simulcheck.usable_cpus(),
            help="worker processes, at least 1 (default: the CPUs this process may use; "
            "1 gives a sequential reference run)",
        )
        p.add_argument("--enumeration-base", type=_number_argument, default=None)
        p.add_argument("--checkpoint-interval", type=lambda text: _number_argument(text, float), default=300.0)
        p.add_argument("--progress", action="store_true", help="progress lines on stderr")
        p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "family", parents=[fmt, precision], help="certify all n with a*g**n + rev(a) palindromic in base h"
    )
    p.add_argument("a", type=_number_argument)
    p.add_argument("g", type=_number_argument)
    p.add_argument("h", type=_number_argument)
    p.add_argument("--bound", default=None, help="override the unconditional bound X")
    p.add_argument("--exhaustive-limit", type=_number_argument, default=2000)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", parents=[fmt], help="evaluate the explicit bounds term by term")
    p.add_argument("a", type=_number_argument)
    p.add_argument("g", type=_number_argument)
    p.add_argument("h", type=_number_argument)
    p.add_argument("n", type=_number_argument, nargs="?", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("cf", parents=[fmt, precision], help="continued fraction of log g / log h")
    p.add_argument("g", type=_number_argument)
    p.add_argument("h", type=_number_argument)
    p.add_argument("count", type=_number_argument)
    p.set_defaults(func=cmd_cf)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, parameters, results, (header, rows), *checkpoint = args.func(args)
    except CheckpointMismatchError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except precise.UndecidedComparisonError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": args.command,
        "parameters": parameters,
        "results": results,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    if checkpoint and checkpoint[0] is not None:
        report["checkpoint_path"] = checkpoint[0]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    return code


if __name__ == "__main__":
    sys.exit(main())
