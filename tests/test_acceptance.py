"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 2, 3, 6, 8, 10, 12, 13, 14, 15 and 17 do real work (full
scans, ten thousand reductions, exhaustive property sweeps, the searches to
1e18 with either base of (10, 2) driving and, for bases 2 and 3, to 1e14, ten
thousand certified families, both engines on twelve base pairs); the whole
module finishes in a few minutes.
"""

import random
import time
from fractions import Fraction

import pytest

from simulpal.bounds import shift_exponent_bound
from simulpal.lindep import dependence_witness, multiplicatively_independent
from simulpal.palgen import iter_palindromes
from simulpal.precise import PreciseReal, hp_log
from simulpal.radix import is_palindrome, reverse_in_base
from simulpal.reduction import (
    DependenceWitness,
    ReductionProblem,
    baker_davenport_reduce,
    continued_fraction,
    dependent_case_check,
    precompute_reduction_pairs,
    verify_family,
)
from simulpal.simulcheck import count, search

from conftest import oracle_digits, oracle_is_palindrome, oracle_reverse, oracle_simultaneous

X_MODEL = 2_650_000_000_000_000


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def model_pairs():
    eps = PreciseReal.log_ratio(10, 2, 192)
    return precompute_reduction_pairs(eps, X_MODEL, 50)


def test_criterion_1_known_list_prefix_1e9(known_list_10_2):
    started = time.perf_counter()
    found = search(10, 2, 10**9)
    elapsed = time.perf_counter() - started
    expected = [n for n in known_list_10_2 if n <= 10**9]
    assert len(expected) == 30 and expected[-1] == 939474939
    rendered = "\n".join(str(n) for n in found) + "\n"
    golden = "\n".join(str(n) for n in expected) + "\n"
    assert rendered == golden
    assert elapsed < 10.0
    _pass(1, f"30 entries below 1e9 reproduced byte-exactly in {elapsed:.2f}s")


def test_criterion_2_known_list_prefix_1e14(known_list_10_2):
    started = time.perf_counter()
    found = search(10, 2, 10**14, threads=2)
    elapsed = time.perf_counter() - started
    expected = [n for n in known_list_10_2 if n <= 10**14]
    assert len(expected) == 49 and expected[-1] == 34141388314143
    assert found == expected
    _pass(2, f"49 entries below 1e14 reproduced in {elapsed:.1f}s")


@pytest.mark.parametrize("g,h", [(2, 3), (6, 15), (5, 7), (11, 13), (7, 29), (2, 10)])
def test_criterion_3_counts_match_full_scan(g, h):
    bound = 10**6
    expected = oracle_simultaneous(bound, g, h)
    assert count(g, h, bound) == len(expected)
    assert search(g, h, bound) == expected
    _pass(3, f"count({g},{h},1e6) = {len(expected)} matches the naive full scan")


def test_criterion_4_bases_2_3():
    found = search(2, 3, 10**7)
    assert found == [1, 6643, 1422773, 5415589]
    brute = [
        n
        for n in range(1, 10**7 + 1)
        if oracle_is_palindrome(n, 2) and oracle_is_palindrome(n, 3)
    ]
    assert found == brute
    _pass(4, "search(2,3,1e7) = {1, 6643, 1422773, 5415589}, brute-force confirmed")


def test_criterion_5_shift_bound_model_instance():
    val = shift_exponent_bound(10**6 - 1, 10, 2)
    assert val <= 2.65e15
    assert val >= 0.98 * 2.65e15
    _pass(5, f"shift exponent bound {val:.4e} <= 2.65e15, within 2%")


def test_criterion_6_reduction_power(model_pairs):
    started = time.perf_counter()
    log2 = hp_log(2, 192)
    c1 = Fraction(11 * 2**6, 9) / log2
    reduced = []
    for a in range(3, 10**4 + 1):
        if a % 10 == 0:
            continue
        rev_a = reverse_in_base(a, 10)
        if rev_a % 2 == 0:
            continue
        alpha = Fraction(a, reverse_in_base(rev_a, 2))
        if dependence_witness(alpha, 10, 2) is not None:
            continue
        delta = hp_log(alpha, 192) / log2
        problem = ReductionProblem(delta, c1, 2, X_MODEL, tuple(model_pairs))
        outcome = baker_davenport_reduce(problem)
        assert outcome.status == "reduced", f"no usable pair for a={a}"
        assert outcome.new_bound <= 81, f"a={a} reduced only to {outcome.new_bound}"
        reduced.append(outcome.new_bound)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert len(reduced) > 4000
    _pass(
        6,
        f"{len(reduced)} independent-case prefixes reduced from 2.65e15 to "
        f"<= {max(reduced)} in {elapsed:.1f}s",
    )


def test_criterion_7_dependent_case_structure():
    witness = DependenceWitness(1, 0, 0, degenerate=True)
    result = dependent_case_check(
        witness, 10**6 - 1, 10, 2, X_MODEL, n_floor=30, s_bound=34, factor_floor=30, slack=6
    )
    assert result.bound == 29 < 30
    assert len(result.small_regime) == 8
    eps = PreciseReal.log_ratio(10, 2, 192)
    first_eight = [q for _, q in continued_fraction(eps, 8).convergents]
    assert list(result.small_regime) == first_eight
    assert len(result.large_regime) == 24
    assert max(result.large_regime) < 2.66e15
    assert result.q_ceiling <= 2.66e15
    assert result.survivors == ()
    _pass(
        7,
        "dependent sieve: floor substitution kills the first 8 convergents, "
        "the denominator substitution the remaining 24 below 2.66e15; bound 29",
    )


def test_criterion_8_pipeline_closure(model_pairs, known_list_10_2):
    started = time.perf_counter()
    powers = [10**n for n in range(42)]
    for a in range(1, 2001):
        if a % 10 == 0:
            continue
        report = verify_family(a, 10, 2, pairs=model_pairs, bound=X_MODEL)
        assert report.status == "complete"
        rev_a = reverse_in_base(a, 10)
        brute = [
            n
            for n in range(len(str(a)), 41)
            if oracle_is_palindrome(a * powers[n] + rev_a, 2)
        ]
        assert list(report.ns) == brute, f"mismatch at a={a}"

    # every family-shaped entry of the known list is recovered from its prefix
    recovered = 0
    for n_value in known_list_10_2:
        s = str(n_value)
        d = len(s)
        for n_a in range(1, d // 2 + 1):
            a = int(s[:n_a])
            if a % 10 == 0:
                continue
            if s[d - n_a :] == str(a)[::-1] and set(s[n_a : d - n_a]) <= {"0"}:
                n = d - n_a
                report = verify_family(a, 10, 2, pairs=model_pairs, bound=X_MODEL)
                assert n in report.ns, f"{n_value} = family({a}, n={n}) not recovered"
                recovered += 1
    assert recovered >= 6
    elapsed = time.perf_counter() - started
    _pass(
        8,
        f"verify_family == brute force for a <= 2000 and {recovered} family-shaped "
        f"list entries recovered, in {elapsed:.1f}s",
    )


def test_criterion_9_evaluator_fidelity():
    import mpmath

    from simulpal.bounds import LaurentInstance, MatveevInstance, laurent_lower_bound, matveev_lower_bound

    inst = MatveevInstance(
        alphas=(Fraction(74, 61), Fraction(2), Fraction(10)),
        b_coeffs=(1, -47, 14),
        A=(16.8, 0.7, 2.31),
    )
    ev = matveev_lower_bound(inst)
    with mpmath.workdps(50):
        e = mpmath.e
        c3 = mpmath.mpf(16) / 6 * e**3 * 9 * 5 * 65536 * (1.5 * e)
        c0 = mpmath.mpf("20.2") + mpmath.mpf("5.5") * mpmath.log(3)
        b = 47 * mpmath.mpf("0.7") / mpmath.mpf("2.31")
        w0 = mpmath.log(1.5 * e * b)
        oracle = -(c3 * c0 * w0 * mpmath.mpf("16.8") * mpmath.mpf("0.7") * mpmath.mpf("2.31"))
        matveev_err = abs(ev.value / float(oracle) - 1)
    assert matveev_err < 1e-6

    lev = laurent_lower_bound(
        LaurentInstance(Fraction(3), Fraction(2), b1=3, b2=7, logA1=2.5, logA2=1.2)
    )
    oracle_log = -24.34 * 21**2 * 2.5 * 1.2
    laurent_err = abs(lev.log_value / oracle_log - 1)
    assert laurent_err < 1e-6

    two_log_factor = 24.34 * 4 / float(hp_log(2, 128).lower)
    assert two_log_factor <= 141
    _pass(
        9,
        f"evaluators within {max(matveev_err, laurent_err):.1e} of independent "
        f"oracles; assembled two-log factor {two_log_factor:.2f} <= 141",
    )


def test_criterion_10_property_suites(tmp_path):
    started = time.perf_counter()
    # reversal involution wherever the last digit is nonzero, exhaustive
    for g in (2, 3, 10, 16):
        for a in range(1, 10**5 + 1):
            if a % g:
                assert reverse_in_base(reverse_in_base(a, g), g) == a
    # early exit against the naive check, a million random instances
    rng = random.Random(20250810)
    for _ in range(10**6):
        n = rng.randrange(1, 10**12)
        h = rng.randrange(2, 17)
        assert is_palindrome(n, h) == oracle_is_palindrome(n, h)
    # mirrored-half enumeration against the brute filter
    for g in (2, 3, 10):
        brute = [n for n in range(1, 10**5 + 1) if oracle_is_palindrome(n, g)]
        assert list(iter_palindromes(g, 1, 10**5)) == brute
    # kill-and-resume determinism
    reference = search(10, 2, 10**7)
    for kill_after in (1, 2, 5):
        path = tmp_path / f"cp{kill_after}.json"
        hits = 0

        class Abort(Exception):
            pass

        def bomb(info):
            nonlocal hits
            hits += 1
            if hits >= kill_after:
                raise Abort

        try:
            search(10, 2, 10**7, checkpoint_path=str(path), progress=bomb, checkpoint_interval=0.0)
            raise AssertionError("expected the injected abort to fire")
        except Abort:
            pass
        resumed = search(10, 2, 10**7, checkpoint_path=str(path), resume=True)
        assert resumed == reference
    elapsed = time.perf_counter() - started
    _pass(10, f"involution, early-exit, enumeration and resume suites in {elapsed:.1f}s")


def test_criterion_11_continued_fraction_stability(model_pairs):
    q192 = continued_fraction(PreciseReal.log_ratio(10, 2, 192), 50).quotients
    q384 = continued_fraction(PreciseReal.log_ratio(10, 2, 384), 50).quotients
    assert q192 == q384 and len(q192) == 50
    assert len(model_pairs) == 16
    assert all(pair.q > 1.06e16 for pair in model_pairs)
    _pass(11, "50 quotients stable from 192 to 384 bits; exactly 16 usable pairs above 1.06e16")


def test_criterion_12_known_list_1e18(known_list_10_2):
    started = time.perf_counter()
    found = search(10, 2, 10**18, threads=2)
    elapsed = time.perf_counter() - started
    assert len(known_list_10_2) == 62
    assert found == known_list_10_2
    _pass(12, f"all 62 entries below 1e18 reproduced in {elapsed:.1f}s")


def _family_shapes(n_value: int, g: int, max_prefix: int):
    # every (a, n) with a < max_prefix, g not dividing a, n >= base-g digits of
    # a, and n_value = a*g**n + rev(a): a's digits, zeros, a's digits reversed
    s = oracle_digits(n_value, g)[::-1]  # most significant first
    d = len(s)
    for n_a in range(1, d // 2 + 1):
        a = sum(digit * g**i for i, digit in enumerate(reversed(s[:n_a])))
        if a < max_prefix and a % g and s[d - n_a :] == s[:n_a][::-1] and set(s[n_a : d - n_a]) <= {0}:
            yield a, d - n_a


def test_criterion_13_family_sweep_1e18(known_list_10_2):
    started = time.perf_counter()
    certified = set()
    for a in range(1, 10**4):
        if a % 10 == 0:
            continue
        report = verify_family(a, 10, 2)
        assert report.status == "complete", f"a={a} left {report.status}"
        rev_a = reverse_in_base(a, 10)
        certified |= {(a, n) for n in report.ns if a * 10**n + rev_a <= 10**18}
    elapsed = time.perf_counter() - started
    expected = {shape for n_value in known_list_10_2 for shape in _family_shapes(n_value, 10, 10**4)}
    assert len(expected) >= 6
    assert certified == expected
    _pass(
        13,
        f"verify_family certifies every a < 1e4; its {len(certified)} shifts below 1e18 are "
        f"exactly the family-shaped list entries, in {elapsed:.1f}s",
    )


def test_criterion_14_bases_2_3_to_1e14():
    # OEIS A060792, numbers that are palindromic in bases 2 and 3:
    # https://oeis.org/A060792.  The next term, 381920985378904469, lies above 1e17.
    started = time.perf_counter()
    found = search(2, 3, 10**14)
    elapsed = time.perf_counter() - started
    assert found == [1, 6643, 1422773, 5415589, 90396755477]
    _pass(14, f"search(2,3,1e14) = the five A060792 terms below 1e14, in {elapsed:.1f}s")


def test_criterion_15_driver_against_driver_1e16(known_list_10_2):
    # the planner lets base 10 drive (10, 2); here base 2 walks and base 10 is
    # tested, to the end of the shipped list (the name keeps the first bound)
    started = time.perf_counter()
    found = search(10, 2, 10**18, enumeration_base=2)
    elapsed = time.perf_counter() - started
    assert len(known_list_10_2) == 62 and max(known_list_10_2) < 10**18
    assert found == known_list_10_2
    _pass(15, f"base 2 driving (10, 2) reproduces all 62 entries below 1e18 in {elapsed:.1f}s")


# every pair the certification accepts with g <= 16: h divides g, and the
# bases are independent; (4, 2), (8, 2), (8, 4), (9, 3), (16, 2), (16, 4)
# and (16, 8) are powers of one base
FAMILY_PAIRS = [(g, h) for g in range(2, 17) for h in range(2, g) if g % h == 0 and multiplicatively_independent(g, h)]


def family_pairs_agree(X: int, max_prefix: int, threads: int = 1) -> dict:
    """Check each pair of FAMILY_PAIRS with two engines: the family-shaped
    hits of ``search(g, h, X)`` must be the shifts below X that
    ``verify_family`` certifies for every a < ``max_prefix``, each report
    ``complete``.  Returns the number of shifts per pair.  Criterion 17 runs
    it at X = 1e14 with a < 600; the CI workflow at X = 1e20 with a < 3 000
    on two workers.
    """
    shifts = {}
    for g, h in FAMILY_PAIRS:
        certified = set()
        for a in range(1, max_prefix):
            if a % g:
                report = verify_family(a, g, h)
                assert report.status == "complete", f"({g}, {h}): a={a} left {report.status}"
                rev_a = reverse_in_base(a, g)
                certified |= {(a, n) for n in report.ns if a * g**n + rev_a <= X}
        found = search(g, h, X, threads=threads)
        expected = {shape for n_value in found for shape in _family_shapes(n_value, g, max_prefix)}
        assert certified == expected, f"({g}, {h}): the engines differ on {sorted(certified ^ expected)}"
        shifts[g, h] = len(certified)
    return shifts


def test_criterion_17_every_family_pair_two_engines_1e14():
    started = time.perf_counter()
    assert len(FAMILY_PAIRS) == 12 and FAMILY_PAIRS[0] == (6, 2) and FAMILY_PAIRS[-1] == (15, 5)
    shifts = family_pairs_agree(10**14, 600)
    elapsed = time.perf_counter() - started
    assert min(shifts.values()) >= 1
    _pass(
        17,
        f"on all 12 family pairs, search below 1e14 and verify_family for a < 600 agree on "
        f"{sum(shifts.values())} shifts ({min(shifts.values())}-{max(shifts.values())} a pair), in {elapsed:.1f}s",
    )
