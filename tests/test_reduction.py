import sys
from fractions import Fraction
from math import ceil

import mpmath
import pytest

from simulpal import bounds, precise, radix, reduction
from simulpal.bounds import (
    LaurentInstance,
    MatveevInstance,
    laurent_lower_bound,
    matveev_lower_bound,
    shift_exponent_bound,
    solve_log_majorant,
    zero_run_threshold_terms,
)
from simulpal.lindep import DependenceWitness, dependence_witness, multiplicatively_independent
from simulpal.palgen import family_instance
from simulpal.precise import PreciseReal, UndecidedComparisonError, hp_exp, hp_log
from simulpal.radix import DomainError, digit_count, is_palindrome, reverse_in_base
from simulpal.reduction import (
    _base_pair,
    _convergent_terms,
    DependentCaseResult,
    ReductionOutcome,
    ReductionProblem,
    baker_davenport_reduce,
    continued_fraction,
    dependent_case_check,
    precompute_reduction_pairs,
    verify_family,
)

from conftest import oracle_digits, oracle_is_palindrome, oracle_reverse
from test_acceptance import FAMILY_PAIRS

X_MODEL = 2_650_000_000_000_000  # prior shift bound for bases (10, 2), prefixes < 1e6


def oracle_quotients(count):
    """Independent continued-fraction expansion of log 10 / log 2 at high
    working precision, no interval machinery involved."""
    with mpmath.workdps(250):
        x = mpmath.log(10) / mpmath.log(2)
        out = []
        for _ in range(count):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        return out


def test_continued_fraction_matches_oracle():
    x = PreciseReal.log_ratio(10, 2, 192)
    cf = continued_fraction(x, 50)
    assert list(cf.quotients) == oracle_quotients(50)
    assert not cf.exact
    assert cf.convergents[:6] == ((3, 1), (10, 3), (93, 28), (196, 59), (485, 146), (2136, 643))


def test_continued_fraction_rational_terminates():
    cf = continued_fraction(PreciseReal.exact(Fraction(3, 2)), 10)
    assert cf.quotients == (1, 2)
    assert cf.exact
    assert cf.convergents[-1] == (3, 2)


def test_convergent_law_certified():
    # the reduction takes each of the first 50 convergents as a pair on the convergent law alone, with no
    # comparison of its own; here the law is certified by interval comparison on every family pair and (3, 2)
    witness = dependence_witness(5, 10, 2)
    dependent_case_check(witness, 5, 10, 2, X=10**40)  # extends the cached expansion of (10, 2) past 50 quotients
    assert len(_base_pair(10, 2, 192).cf.quotients) > 50
    for g, h in [*FAMILY_PAIRS, (3, 2)]:
        x = PreciseReal.log_ratio(g, h, 192)
        cf = continued_fraction(x, 50)
        assert _base_pair(g, h, 192).pairs == cf.convergents
        for p, q in cf.convergents:
            # |x q - p| < 1/q
            assert abs(x * q - p).is_less(Fraction(1, q))
            # and the classical quality bound |x - p/q| < 1/q**2
            assert abs(x - Fraction(p, q)).is_less(Fraction(1, q * q))


def test_precompute_pairs_model_case():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    assert len(pairs) == 16
    assert all(pair.q > 4 * X_MODEL for pair in pairs)
    assert all(Fraction(pair.q, 2 * X_MODEL) > 2 for pair in pairs)
    # denominators ascend, so the scan prefers the smallest usable q
    qs = [pair.q for pair in pairs]
    assert qs == sorted(qs)


def test_precompute_pairs_small_bound():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, 10, 12)
    assert pairs
    assert all(pair.q > 40 for pair in pairs)


def test_precompute_pairs_rational_epsilon():
    pairs = precompute_reduction_pairs(PreciseReal.exact(Fraction(7, 2)), 10**6, 10)
    assert pairs == []


def test_reduction_problem_validation():
    # kappa = q/(2X) must exceed 1: a pair needs q > 2X
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    q = pairs[0].q
    for X in ((q + 1) // 2, q):
        with pytest.raises(DomainError, match=f"pair q={q} needs q > 2X, got X={X}"):
            ReductionProblem(eps, hp_log(2), 2, X, (pairs[0],))
    assert ReductionProblem(eps, hp_log(2), 2, (q - 1) // 2, (pairs[0],)).pairs == (pairs[0],)


@pytest.mark.parametrize(
    "c1, B, message",
    [
        # as c2 = log B, B = 1/e reduced to new_bound=-13, B = 1 raised a bare ZeroDivisionError, and c1 = -1 a
        # logarithm DomainError only once a pair had passed
        (PreciseReal.exact(1), -1, "the base B must be an integer at least 2, got -1"),
        (PreciseReal.exact(1), 0, "the base B must be an integer at least 2, got 0"),
        (PreciseReal.exact(1), 1, "the base B must be an integer at least 2, got 1"),
        (PreciseReal.exact(1), 2.0, "the base B must be an integer at least 2, got 2.0"),
        (PreciseReal.exact(-1), 2, "c1 must be certainly positive"),
        (PreciseReal.exact(0), 2, "c1 must be certainly positive"),
        (PreciseReal(-1, 1, 192), 2, "c1 must be certainly positive"),
    ],
)
def test_reduction_problem_refuses_a_base_below_two_and_a_c1_not_certainly_positive(c1, B, message):
    eps = PreciseReal.log_ratio(3, 2, 192)
    pairs = tuple(precompute_reduction_pairs(eps, 1000, 12))
    with pytest.raises(DomainError, match=message):
        ReductionProblem(PreciseReal.exact(Fraction(1, 3)), c1, B, 1000, pairs)


def _model_problem(a, pairs, bits=192):
    log2 = hp_log(2, bits)
    rr = reverse_in_base(reverse_in_base(a, 10), 2)
    delta = hp_log(Fraction(a, rr), bits) / log2
    c1 = Fraction(11 * 2**6, 9) / log2
    return ReductionProblem(delta, c1, 2, X_MODEL, tuple(pairs))


def test_baker_davenport_model_sample():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    reduced = 0
    for a in range(3, 400):
        if a % 10 == 0 or reverse_in_base(a, 10) % 2 == 0:
            continue
        if dependence_witness(Fraction(a, reverse_in_base(reverse_in_base(a, 10), 2)), 10, 2):
            continue
        outcome = baker_davenport_reduce(_model_problem(a, pairs))
        assert outcome.status == "reduced"
        assert outcome.new_bound <= 81
        reduced += 1
    assert reduced > 100


def test_baker_davenport_soundness_above_new_bound():
    # once the pair fires, the defining inequality must already fail just
    # above the reduced bound and at the prior bound
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    problem = _model_problem(74, pairs)
    outcome = baker_davenport_reduce(problem)
    assert outcome.status == "reduced"
    q = outcome.pair_used.q
    kappa = Fraction(q, 2 * X_MODEL)
    for n2 in (outcome.new_bound + 1, X_MODEL):
        lhs = (problem.c1 * q).log() - n2 * hp_log(problem.B)
        rhs = hp_log(Fraction(1, 2 * kappa))
        assert lhs.is_less(rhs)


def test_baker_davenport_zero_shift_has_no_pair():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    problem = ReductionProblem(PreciseReal.exact(0), Fraction(11 * 64, 9) / hp_log(2), 2, X_MODEL, tuple(pairs))
    assert baker_davenport_reduce(problem) == ReductionOutcome("no-usable-pair")


def test_baker_davenport_synthetic_hand_checked():
    # epsilon = log 3 / log 2, delta = 1/3, c1 = 1, X = 1000: the first usable
    # convergent is q = 15601, so the bound drops to floor(log_B(q**2 / X)):
    # log_2 = 17.89 and log_3 = 11.29
    eps = PreciseReal.log_ratio(3, 2, 192)
    X = 1000
    pairs = precompute_reduction_pairs(eps, X, 12)
    assert pairs[0].q == 15601
    for B, bound in ((2, 17), (3, 11)):
        problem = ReductionProblem(PreciseReal.exact(Fraction(1, 3)), PreciseReal.exact(1), B, X, tuple(pairs))
        outcome = baker_davenport_reduce(problem)
        assert outcome.status == "reduced"
        assert outcome.pair_used.q == 15601
        assert outcome.new_bound == bound
        # the largest t with X B**t <= c1 q**2, in integers: 1000 * 2**17 = 131 072 000
        # and 1000 * 3**11 = 177 147 000 are at most 15601**2 = 243 391 201, and
        # 262 144 000 and 531 441 000 exceed it
        assert X * B**bound <= 15601**2 < X * B ** (bound + 1)
    # c1 = 10**-9 makes floor(q**2 c1) = 0 < X: no n2 >= 0 is left
    tiny = PreciseReal.exact(Fraction(1, 10**9))
    problem = ReductionProblem(PreciseReal.exact(Fraction(1, 3)), tiny, 2, X, tuple(pairs))
    assert baker_davenport_reduce(problem) == ReductionOutcome("reduced", -1, pairs[0])


def test_baker_davenport_skips_a_pair_whose_test_ties():
    # delta = 2X/q**2 makes ||q delta|| = 2X/q exactly, which is not dyadic:
    # both sides round outward to overlapping enclosures, so the first pair is
    # undecidable and skipped, and the second reduces the bound
    X, one = 1000, PreciseReal.exact(1)
    first, second = precompute_reduction_pairs(PreciseReal.log_ratio(3, 2, 192), X, 12)[:2]
    delta = PreciseReal.exact(Fraction(2 * X, first.q**2))
    with pytest.raises(UndecidedComparisonError):
        (delta * first.q).dist_to_nearest_int().is_greater(Fraction(2 * X, first.q))
    assert baker_davenport_reduce(ReductionProblem(delta, one, 2, X, (first,))) == ReductionOutcome("no-usable-pair")
    outcome = baker_davenport_reduce(ReductionProblem(delta, one, 2, X, (first, second)))
    # floor(log_2(q**2 c1 / X)) with c1 = 1 and q = 31867: log_2 = 19.95, and
    # 1000 * 2**19 = 524 288 000 <= 31867**2 = 1 015 505 689 < 1 048 576 000
    assert (outcome.status, outcome.pair_used, outcome.new_bound) == ("reduced", second, 19)
    assert second.q == 31867 and X * 2**19 <= second.q**2 < X * 2**20


def test_dependent_case_raises_a_low_floor_until_the_convergent_law_holds():
    # 92 over (10, 2): alpha = 92/23 = 2**2; from any floor below 7 the sieve
    # raises it to the least n with h**n log h > 2c(rn + s_bound), c = (11r/9) h**slack
    report = verify_family(92, 10, 2)
    w = report.witness
    c = Fraction(11 * w.r, 9) * 2 ** digit_count(92, 10)
    with mpmath.workdps(50):
        law = lambda n: 2**n * mpmath.log(2) > 2 * mpmath.mpf(c.numerator) / c.denominator * (w.r * n + abs(w.s))
        least = next(n for n in range(1, 100) if law(n))
    assert least == 7
    for n_floor in range(1, least):
        result = dependent_case_check(w, 92, 10, 2, report.bound, n_floor=n_floor)
        assert (result.floor, result.bound, result.survivors) == (least, least - 1, ())


def test_dependent_case_model_structure():
    witness = DependenceWitness(1, 0, 0, degenerate=True)
    result = dependent_case_check(
        witness, 999_999, 10, 2, X_MODEL, n_floor=30, s_bound=34, factor_floor=30, slack=6
    )
    assert result.floor == 30
    assert result.bound == 29
    assert result.q_ceiling == X_MODEL + 34
    assert len(result.small_regime) == 8
    assert len(result.large_regime) == 24
    assert result.survivors == ()
    # the small regime knocks out exactly the first eight convergents
    eps = PreciseReal.log_ratio(10, 2, 192)
    cf = continued_fraction(eps, 40)
    first_qs = [q for _, q in cf.convergents[:8]]
    assert list(result.small_regime) == first_qs
    assert max(result.large_regime) < 2_660_000_000_000_000


def test_dependent_case_with_witness_defaults():
    # a = 2: alpha = 2 / rev(rev(2,10),2) = 2/1 = 2 with witness (1, 0, 1)
    witness = dependence_witness(Fraction(2), 10, 2)
    assert (witness.r, witness.s, witness.t) == (1, 0, 1)
    result = dependent_case_check(witness, 2, 10, 2, X_MODEL)
    assert result.survivors == ()
    assert result.bound < 50


def test_dependent_case_with_r_above_one():
    # bases (24, 6) leave an index-two exponent lattice, so ratios like 2
    # carry witnesses with r = 2; the sieve must scale the inequality by r
    witness = dependence_witness(Fraction(2), 24, 6)
    assert witness.r == 2
    result = dependent_case_check(witness, 5, 24, 6, 10**8)
    assert result.q_ceiling == 2 * 10**8 + abs(witness.s)
    assert result.survivors == ()
    assert result.bound < 50


def test_verify_family_examples():
    assert 3 in verify_family(9, 10, 2).ns
    assert verify_family(74, 10, 2).ns == (2,)
    report = verify_family(1, 10, 2)
    assert report.ns == () and report.branch == "dependent" and report.status == "complete"
    assert verify_family(585, 10, 2).ns == (3,)


def test_verify_family_parity_exclusion():
    # rev(a) even makes every family value even, hence never a binary palindrome
    report = verify_family(2, 10, 2)
    assert report.branch == "excluded-parity" and report.ns == ()
    report = verify_family(41, 10, 2)
    assert report.branch == "excluded-parity" and report.ns == ()


def test_verify_family_rejects_divisible_prefix():
    with pytest.raises(DomainError, match="10 divides 20: family values are not base-10 palindromes"):
        verify_family(20, 10, 2)


def test_verify_family_checks_each_argument_once_per_public_call(monkeypatch):
    # verify_family checks a, g and h at entry and then takes the unchecked
    # digit helpers; only the public stages it calls check their own arguments.
    # Outside the direct scan that makes 10.43 check_int calls a prefix of
    # (10, 2), where three checks of the bases and the checked digit helpers
    # made 25.4, a second check of the bases inside the independence test 13.7,
    # and three logarithms of the prefix in the bound, each checking its
    # precision, 11.04.  Of the 10.43, 1.15 is ReductionProblem's checks that X
    # is an int and its base B an int >= 2, once each per independent prefix.  The scan hands the checked
    # palindrome test only the shifts whose top base-h digits read
    # rev(rev(a), h): 3.9 a prefix, where it tested all 35.4.
    counts = {False: 0, True: 0}
    in_scan, scan_calls = [False], [0]
    check_int = radix.check_int

    def counted(*args, **kwargs):
        counts[in_scan[0]] += 1
        return check_int(*args, **kwargs)

    def scan_test(n, h, test=reduction.is_palindrome_early_exit):
        scan_calls[0] += 1
        in_scan[0] = True
        try:
            return test(n, h)
        finally:
            in_scan[0] = False

    prefixes = [a for a in range(1, 600) if a % 10]
    for a in prefixes:  # fills the per-process caches first
        verify_family(a, 10, 2)
    for module in [m for name, m in sys.modules.items() if name.startswith("simulpal.")]:
        if getattr(module, "check_int", None) is check_int:
            monkeypatch.setattr(module, "check_int", counted)
    monkeypatch.setattr(reduction, "is_palindrome_early_exit", scan_test)
    for a in prefixes:
        verify_family(a, 10, 2)
    assert counts[False] <= 10.5 * len(prefixes)
    assert 0 < counts[True] and scan_calls[0] <= 4.5 * len(prefixes)


def test_verify_family_takes_one_logarithm_of_the_prefix(monkeypatch):
    # everything that depends only on (g, h) is computed once per process and
    # pair, so on a warm pass the bound takes log a alone and builds log(a g h)
    # and log(g a) from it, where it took all three; an independent prefix adds
    # log alpha in the reduction, 2 calls where there were 4
    calls = {}

    def counting(module):
        def counted(*args, _log=module.hp_log, **kwargs):
            calls[module.__name__] = calls.get(module.__name__, 0) + 1
            return _log(*args, **kwargs)

        return counted

    prefixes = [a for a in range(1, 600) if a % 10]
    for a in prefixes:  # fills the per-process caches first
        verify_family(a, 10, 2)
    for module in (bounds, reduction):
        monkeypatch.setattr(module, "hp_log", counting(module))
    branches = set()
    for a in prefixes:
        calls.clear()
        branch = verify_family(a, 10, 2).branch
        branches.add(branch)
        in_bound = calls.get("simulpal.bounds", 0)
        if branch == "independent":
            assert (in_bound, calls.get("simulpal.reduction", 0)) == (1, 1)
        else:
            assert in_bound == (branch == "dependent")
    assert branches == {"independent", "dependent", "excluded-parity"}


def test_verify_family_makes_three_interval_logarithms_an_independent_prefix(monkeypatch):
    # on a warm pass the bound takes log a and log(log g * log(a g h)), and an
    # independent prefix adds log alpha for delta, 3 calls of mpmath's interval
    # log where the reduced bound, the floor of log(q**2 c1 / X) / log h, made
    # a fourth: it is now an integer digit count; the dependent sieve takes
    # log c, and an excluded-parity prefix takes none
    calls = [0]

    def counted(*args, _log=precise.mpi_log):
        calls[0] += 1
        return _log(*args)

    prefixes = [a for a in range(1, 600) if a % 10]
    for a in prefixes:  # fills the per-process caches first
        verify_family(a, 10, 2)
    monkeypatch.setattr(precise, "mpi_log", counted)
    expected = {"independent": 3, "dependent": 3, "excluded-parity": 0}
    branches = set()
    for a in prefixes:
        calls[0] = 0
        branch = verify_family(a, 10, 2).branch
        branches.add(branch)
        assert calls[0] == expected[branch], (a, branch)
    assert branches == set(expected)


def test_reduced_bound_brackets_the_baker_davenport_value():
    # an independent check of each independent report's reduced bound t, in
    # plain mpmath at 256 bits: X h**t <= 11 q**2 h**n_a / (9 log h) < X h**(t+1),
    # with q the pair used and n_a the base-g digit count of the prefix
    cases = [(10, 2, 600)] + [(g, h, 100) for g, h in FAMILY_PAIRS]
    checked = {}
    with mpmath.workprec(256):
        for g, h, below in cases:
            for a in range(1, below):
                report = verify_family(a, g, h) if a % g else None
                if report is None or report.branch != "independent":
                    continue
                t, q, X = report.reduced_bound, report.pair_used.q, report.bound
                value = 11 * mpmath.mpf(q) ** 2 * mpmath.mpf(h) ** digit_count(a, g) / (9 * mpmath.log(h))
                assert X * h**t <= value < X * h ** (t + 1), (a, g, h)
                checked[g, h] = checked.get((g, h), 0) + 1
    assert len(checked) == len(FAMILY_PAIRS) and checked[10, 2] > 250


def test_verify_family_closed_loop():
    for a in (9, 74, 585):
        report = verify_family(a, 10, 2)
        for n in report.ns:
            value = family_instance(a, 10, 2, n).N
            assert is_palindrome(value, 10) and is_palindrome(value, 2)


def test_verify_family_brute_force_small_range():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    for a in range(1, 201):
        if a % 10 == 0:
            continue
        report = verify_family(a, 10, 2, pairs=pairs, bound=X_MODEL)
        assert report.status == "complete"
        assert report.tested_upper <= 81 or report.branch == "excluded-parity"
        rev_a = reverse_in_base(a, 10)
        brute = [
            n
            for n in range(len(str(a)), 41)
            if oracle_is_palindrome(a * 10**n + rev_a, 2)
        ]
        assert list(report.ns) == brute


def test_verify_family_undecided_reports_honestly():
    report = verify_family(74, 10, 2, pairs=[], bound=10**9, exhaustive_limit=50)
    assert report.status == "undecided"
    assert report.undecided_above == report.tested_upper == 50
    assert report.ns == (2,)


def test_verify_family_rejects_bad_precision_without_logarithms():
    # (2, 10, 2) takes the excluded-parity branch, which computes no logarithm
    with pytest.raises(DomainError, match="precision must be in"):
        verify_family(2, 10, 2, bits=0)
    with pytest.raises(DomainError, match="precision must be in"):
        verify_family(2, 10, 2, bits=(1 << 16) + 1)


_EPSILON = PreciseReal.log_ratio(10, 2)


@pytest.mark.parametrize(
    "call,match",
    [
        # a float reached mpmath as a bare TypeError, and True ran at 1 bit
        (lambda: hp_log(2, 1.5), "precision must be in"),
        (lambda: verify_family(74, 10, 2, bits=192.0), "precision must be in"),
        (lambda: PreciseReal.log_ratio(10, 2, True), "precision must be in"),
        # a float bound was a bare TypeError, and True ran with X = 1
        (lambda: verify_family(74, 10, 2, bound=1e9), "prior bound X must be a positive integer"),
        (lambda: verify_family(2, 10, 2, bound=1e9), "prior bound X must be a positive integer"),
        (lambda: verify_family(74, 10, 2, bound=True), "prior bound X must be a positive integer"),
        # verify_family checks its prefix and bases once, at entry, and no stage it calls checks them again
        (lambda: verify_family(74, 10.0, 2), r"base must be an integer in \[2, 4294967295\], got 10.0"),
        (lambda: verify_family(74, 2, 10), "need 2 <= h < g, got h=10, g=2"),
        (lambda: verify_family(74, 10, 3), r"need h \| g, got h=3, g=10"),
        (lambda: verify_family(74, 8, 2), "bases 8 and 2 are multiplicatively dependent"),
        (lambda: verify_family(True, 10, 2), "prefix a must be a positive integer, got True"),
        (lambda: precompute_reduction_pairs(_EPSILON, 1.5), "prior bound X must be a positive integer"),
        # X must be an int: kappa = q/(2X) is built from it as an exact rational
        (lambda: ReductionProblem(_EPSILON, _EPSILON, 2, 1000.0, ()), "prior bound X must be a positive"),
        # 2.5 quotients came back as 3
        (lambda: continued_fraction(_EPSILON, 2.5), "integer count of at least one quotient"),
        (lambda: dependent_case_check(DependenceWitness(1, 1, -1), 5, 10, 2, X=100.5), "integer at least the testing floor"),
        # 2.5 and 3 were independent, and sympy could not factor 2 * 2.5 * 3
        (lambda: multiplicatively_independent(2.5, 3), "considered for integers"),
        (lambda: dependence_witness(2, 2.5, 3), "considered for integers"),
        # these returned a bound, or ran, on a fractional or boolean argument
        (lambda: shift_exponent_bound(74.5, 10, 2), "prefix a must be a positive integer, got 74.5"),
        (lambda: shift_exponent_bound(True, 10, 2), "prefix a must be a positive integer, got True"),
        (lambda: zero_run_threshold_terms(74, 10, 2, 2.5), "shift exponent must be positive, got 2.5"),
        (lambda: laurent_lower_bound(LaurentInstance(3, 2, b1=2.5, b2=7)), "coefficients must be positive integers"),
        (lambda: matveev_lower_bound(MatveevInstance((2, 3), (1.5, 2))), "the coefficients must be integers"),
        (lambda: MatveevInstance((2, 3), (1, 2), D=2.0), "the degree D must be a positive integer"),
        (lambda: MatveevInstance((2, 3), (1, 2), kappa=3), "kappa must be 1 or 2"),
        (lambda: verify_family(74, 10, 2, exhaustive_limit=2.5), "exhaustive limit must be a non-negative integer"),
        (lambda: verify_family(74, 10, 2, exhaustive_limit=-1), "exhaustive limit must be a non-negative integer"),
        # a bare TypeError, or any value taken
        (lambda: dependent_case_check(DependenceWitness(1, 1, -1), 5, 10, 2, X=100, n_floor=30.5), "testing floor"),
        (lambda: dependent_case_check(DependenceWitness(1, 1, -1), 5, 10, 2, X=100, s_bound=1.5), "s_bound must"),
        (lambda: dependent_case_check(DependenceWitness(1, 1, -1), 5, 10, 2, X=100, factor_floor=2.5), "factor_floor"),
        (lambda: dependent_case_check(DependenceWitness(1, 1, -1), 5, 10, 2, X=100, slack=0.5), "slack must"),
        # no positive rational: OverflowError or a plain ValueError from Fraction
        (lambda: hp_log(float("inf")), "logarithm of non-positive value inf"),
        (lambda: hp_log(float("nan")), "logarithm of non-positive value nan"),
        (lambda: PreciseReal.log_ratio(float("inf"), 2), "needs positive x and y"),
        (lambda: dependence_witness("x", 10, 2), "expected a positive rational, got 'x'"),
        # a fixed endpoint that Fraction cannot take: a bare OverflowError or a plain ValueError
        (lambda: hp_exp(float("inf")), "endpoints must be rationals, got \\[inf, inf\\]"),
        (lambda: hp_exp(float("-inf")), "endpoints must be rationals, got \\[-inf, -inf\\]"),
        (lambda: hp_exp(float("nan")), "endpoints must be rationals, got \\[nan, nan\\]"),
        (lambda: hp_exp("x"), "endpoints must be rationals, got \\['x', 'x'\\]"),
        (lambda: PreciseReal.exact(float("nan")), "endpoints must be rationals, got \\[nan, nan\\]"),
        (lambda: hp_log(2) * float("inf"), "endpoints must be rationals, got \\[inf, inf\\]"),
        # a fixed value at 0 bits made escalation double 0 forever; a string was a bare TypeError
        (lambda: PreciseReal(1, 2, 0), "precision must be in"),
        (lambda: PreciseReal(1, 2, -3), "precision must be in"),
        (lambda: PreciseReal(1, 2, "x"), "precision must be in"),
        (lambda: PreciseReal(1, 2, True), "precision must be in"),
        # refined() compared the precision before checking it: a bare TypeError, or the value unchanged
        (lambda: hp_log(2).refined("x"), "precision must be in"),
        (lambda: hp_log(2).refined(0), "precision must be in"),
        (lambda: hp_log(2).refined(True), "precision must be in"),
        (lambda: hp_log(2).refined(-5), "precision must be in"),
        (lambda: PreciseReal(1, 2, 64).refined(0), "precision must be in"),
        # "upper bounds" of 1.5 and 48.0 from a NaN, and a bare TypeError from a string
        (lambda: solve_log_majorant(float("nan"), 1, 1), "need a rational A > 0, got nan"),
        (lambda: solve_log_majorant(10, float("nan"), 2), "need a rational B >= 0, got nan"),
        (lambda: solve_log_majorant("x", 1, 1), "need a rational A > 0, got 'x'"),
        # a height override below the height it stands for gave a log-bound of +1.07e9 or -214 (not -1.63e8),
        # and -1.07 (not -11792) for Laurent; NaN and a string were a bare ValueError, 0.0 a ZeroDivisionError
        (lambda: MatveevInstance((2, 3), (1, 1), A=(-5.0, 1.0)), "A must be a positive rational, got -5.0"),
        (lambda: MatveevInstance((2, 3), (1, 1), A=(0.001, 0.001)), "A must be at least 0.693147180559945"),
        (lambda: MatveevInstance((2, 3), (1, 1), A=(float("nan"), 2.0)), "A must be a positive rational, got nan"),
        (lambda: LaurentInstance(3, 2, b1=3, b2=7, logA1=0.01, logA2=0.01), "logA1 must be at least 1.09861228866"),
        (lambda: LaurentInstance(3, 2, b1=3, b2=7, logA1=2.5, logA2=0.5), "logA2 must be at least 1.0, got 0.5"),
        (lambda: LaurentInstance(3, 2, b1=3, b2=7, logA1=0.0), "logA1 must be a positive rational, got 0.0"),
        (lambda: LaurentInstance(3, 2, b1=3, b2=7, logA2="x"), "logA2 must be a positive rational, got 'x'"),
        # dependent rationals gave exp(-14880) as a lower bound of a form that is 0
        (lambda: LaurentInstance(Fraction(1, 2), Fraction(1, 4), b1=2, b2=1), "1/2 and 1/4 are multiplicatively dep"),
        (lambda: LaurentInstance(Fraction(9, 4), Fraction(27, 8), b1=3, b2=2), "9/4 and 27/8 are multiplicatively"),
        (lambda: LaurentInstance(1, 2, b1=1, b2=1), "1 and 2 are multiplicatively dependent"),
        # a bare TypeError: "object of type 'float' has no len()", and the same for an int
        (lambda: MatveevInstance((2, 3), (1, 1), A=5.0), "A must be a tuple or a list, got 5.0"),
        (lambda: MatveevInstance(5, (1, 1)), "alphas must be a tuple or a list, got 5"),
        (lambda: MatveevInstance((2, 3), 7), "b_coeffs must be a tuple or a list, got 7"),
        # a bare OverflowError from the conversion to float
        (lambda: solve_log_majorant(10**400, 0, 1), "A must not exceed the largest float, got an integer of 401 digits"),
        (lambda: solve_log_majorant(10, Fraction(10**400, 3), 2), "B must not exceed the largest float, got the ratio"),
        # Fraction parses a numeric string: a bare TypeError, or the string taken as a number
        (lambda: solve_log_majorant("10", 1, 1), "need a rational A > 0, got '10'"),
        (lambda: hp_log("10"), "logarithm of non-positive value 10"),
        (lambda: dependence_witness("5", 10, 2), "expected a positive rational, got '5'"),
        (lambda: MatveevInstance(("2", "3"), (1, 1)), "logarithm arguments must be positive and != 1, got 2"),
    ],
    ids=[
        "hp_log-bits", "verify_family-bits", "log_ratio-bits", "verify_family-bound", "verify_family-parity-bound",
        "verify_family-bound-bool", "verify_family-float-base", "verify_family-h-above-g", "verify_family-h-not-dividing",
        "verify_family-dependent-bases", "verify_family-bool-prefix",
        "pairs-X", "problem-X", "cf-count", "dependent-X", "independent", "witness",
        "shift-bound-float", "shift-bound-bool", "zero-run-n", "laurent-b1", "matveev-b", "matveev-D", "matveev-kappa",
        "exhaustive-limit-float", "exhaustive-limit-negative", "dependent-n_floor", "dependent-s_bound",
        "dependent-factor_floor", "dependent-slack", "hp_log-inf", "hp_log-nan", "log_ratio-inf", "witness-string",
        "hp_exp-inf", "hp_exp-minus-inf", "hp_exp-nan", "hp_exp-string", "exact-nan", "times-inf",
        "fixed-bits-zero", "fixed-bits-negative", "fixed-bits-string", "fixed-bits-bool",
        "refined-bits-string", "refined-bits-zero", "refined-bits-bool", "refined-bits-negative", "refined-fixed-bits-zero",
        "majorant-A-nan", "majorant-B-nan", "majorant-A-string", "matveev-A-negative", "matveev-A-small",
        "matveev-A-nan", "laurent-logA1-small", "laurent-logA2-small", "laurent-logA1-zero", "laurent-logA2-string",
        "laurent-dependent-halves", "laurent-dependent-powers", "laurent-one", "matveev-A-float", "matveev-alphas-int",
        "matveev-b-int", "majorant-A-huge", "majorant-B-huge", "majorant-A-numeric-string", "hp_log-numeric-string",
        "witness-numeric-string", "matveev-alphas-numeric-strings",
    ],
)
def test_certification_rejects_arguments_that_are_not_integers(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_verify_family_scans_every_shift_below_the_certificate_floor():
    # a certificate says nothing below its floor, so the scan reaches floor - 1
    # whether the certified top is lower (999999: reduced to 20, regime floor
    # 30) or there is none (no pairs: undecided above the regime floor 12 - 1)
    report = verify_family(999999, 10, 2, bound=40)
    assert (report.reduced_bound, report.tested_upper) == (20, 29)
    report = verify_family(1, 10, 2)
    assert report.tested_upper == report.dependent_result.floor - 1 == 29
    report = verify_family(74, 10, 2, pairs=[], bound=10**9, exhaustive_limit=5)
    assert (report.status, report.undecided_above, report.tested_upper) == ("undecided", 11, 11)


def test_verify_family_scan_tests_its_top_shift():
    # 74*10**2 + 47 = 7447 = 0b1110100010111; with X = 2 and no pairs the scan
    # ends at 2 itself.  The family sweeps cannot see this edge: no hit of the
    # 12 family pairs with a < 600 lies within 20 shifts of its scan's top
    report = verify_family(74, 10, 2, pairs=[], bound=2)
    assert (report.tested_upper, report.ns) == (2, (2,))


def test_verify_family_small_bound_is_exhaustive():
    report = verify_family(74, 10, 2, pairs=[], bound=300, exhaustive_limit=2000)
    assert report.status == "complete"
    assert report.tested_upper == 300
    assert report.ns == (2,)


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4)])
def test_base_pair_table_gives_the_precomputed_pairs(g, h):
    table = _base_pair(g, h, 192)
    eps = PreciseReal.log_ratio(g, h)
    shift_bounds = [ceil(shift_exponent_bound(a, 10, 2)) for a in (1, 74, 999_999)]
    for X in [1, 10**3, 10**9, *shift_bounds]:
        assert [pair for pair in table.pairs if pair.q > 4 * X] == precompute_reduction_pairs(eps, X)


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4)])
def test_verify_family_default_pairs_match_explicit_pairs(g, h):
    eps = PreciseReal.log_ratio(g, h)
    for a in range(1, 200):
        if a % g == 0:
            continue
        X = ceil(shift_exponent_bound(a, g, h))
        explicit = verify_family(a, g, h, pairs=precompute_reduction_pairs(eps, X))
        assert verify_family(a, g, h) == explicit


def test_prefixes_reduced_by_one_convergent_share_its_pair():
    # the pairs are built once per base pair, and each prefix reduces with
    # the base pair's pairs themselves, not with copies made for its bound
    first, second = verify_family(11, 10, 2), verify_family(13, 10, 2)
    assert first.branch == second.branch == "independent" and first.bound != second.bound
    assert first.pair_used.q == second.pair_used.q
    assert first.pair_used is second.pair_used
    assert any(pair is first.pair_used for pair in _base_pair(10, 2, 192).pairs)


@pytest.mark.parametrize("X", [X_MODEL, 10**40])
def test_dependent_case_candidates_match_fresh_expansion(X):
    # the sieve starts from the table's 50 quotients and extends past them
    # only when q_ceiling needs it; its candidates are all convergents up
    # to q_ceiling either way
    result = dependent_case_check(DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, X)
    eps = PreciseReal.log_ratio(10, 2, 192)
    count = 40
    cf = continued_fraction(eps, count)
    while cf.convergents[-1][1] <= result.q_ceiling:
        count += 20
        cf = continued_fraction(eps, count)
    fresh = [q for _, q in cf.convergents if q <= result.q_ceiling]
    assert sorted(result.small_regime + result.large_regime + result.survivors) == fresh
    if X == X_MODEL:
        assert count == 40
    else:
        assert len(fresh) > 50


def test_a_second_dependent_prefix_computes_no_convergent_term():
    # the bisections probe 6 of the 32 candidates of 92 (witness (1, 0, 2));
    # 99, 313 and 585 have the same candidates and regimes, so after 92 they
    # find every probed convergent's terms in the memo.  33 has 31 candidates,
    # so its bisections probe 4 other convergents, before or after 92.  The
    # linear sieve computed the terms of every candidate
    _convergent_terms.cache_clear()  # earlier tests of this process may have filled it
    first = verify_family(92, 10, 2)
    assert first.branch == "dependent" and _convergent_terms.cache_info().misses == 6
    for a in (99, 313, 585):
        assert verify_family(a, 10, 2).branch == "dependent"
    assert _convergent_terms.cache_info().misses == 6
    verify_family(33, 10, 2)
    assert _convergent_terms.cache_info().misses == 10
    _convergent_terms.cache_clear()
    verify_family(33, 10, 2)
    assert _convergent_terms.cache_info().misses == 6
    assert verify_family(92, 10, 2) == first
    assert _convergent_terms.cache_info().misses == 10


def _dependent_reports(g: int, h: int, max_prefix: int):
    reports = (verify_family(a, g, h) for a in range(1, max_prefix) if a % g)
    return [report for report in reports if report.branch == "dependent"]


def test_dependent_prefixes_of_10_2_below_600():
    reports = _dependent_reports(10, 2, 600)
    assert [report.a for report in reports] == [1, 3, 5, 7, 9, 33, 92, 99, 313, 585]
    for report in reports:
        assert report.status == "complete" and report.dependent_result.survivors == ()


@pytest.mark.parametrize("g, h", FAMILY_PAIRS)
def test_dependent_sieve_cold_equals_warm(g, h):
    # the memo only saves work: the sieve decides each convergent alike from
    # an empty memo and from a full one; started at the floor the report's
    # sieve settled on, it settles there again
    for report in _dependent_reports(g, h, 600):
        result = report.dependent_result
        args = (report.witness, report.a, g, h, report.bound)
        kwargs = {"n_floor": result.floor, "slack": digit_count(report.a, g)}
        _convergent_terms.cache_clear()
        cold = dependent_case_check(*args, **kwargs)
        assert dependent_case_check(*args, **kwargs) == cold == result


def test_dependent_sieve_cold_equals_warm_past_the_table():
    # X = 10**40 needs convergents past the table's 50 quotients
    check = lambda: dependent_case_check(DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, 10**40)
    # and the bisections probe 7 of its 89 candidates, where the linear
    # sieve computed the terms of all of them
    _convergent_terms.cache_clear()
    cold = check()
    assert _convergent_terms.cache_info().misses == 7
    assert check() == cold
    assert _convergent_terms.cache_info().misses == 7


def test_a_warm_sieve_past_the_table_expands_no_continued_fraction(monkeypatch):
    # the longest expansion of epsilon is kept per base pair and precision;
    # a warm call at X = 10**40 expanded it anew to 70 and to 90 quotients
    args = (DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, 10**40)
    dependent_case_check(*args)
    calls, expand = [], reduction.continued_fraction
    monkeypatch.setattr(reduction, "continued_fraction", lambda *a: calls.append(a) or expand(*a))
    warm = dependent_case_check(*args)
    assert calls == []
    assert warm == linear_sieve(*args)


def linear_sieve(witness, a, g, h, X, n_floor=30, *, s_bound=None, factor_floor=None, slack=None, bits=192):
    """The dependent sieve as a linear scan: the reference that the bisected
    ``dependent_case_check`` must equal.  It decides every candidate
    convergent by its own certified comparisons, from a fresh continued
    fraction and with no memo, and rests on neither monotone fact."""
    r, s = witness.r, witness.s
    s_bound = abs(s) if s_bound is None else s_bound
    slack = digit_count(a, g) if slack is None else slack
    c = Fraction(11 * r, 9) * h**slack
    log_h, eps = hp_log(h, bits), PreciseReal.log_ratio(g, h, bits)
    floor_n = n_floor
    while not (log_h * Fraction(h) ** floor_n).is_greater(2 * c * (r * floor_n + s_bound)):
        floor_n += 1
    factor_floor = max(1, r * floor_n + s) if factor_floor is None else factor_floor
    q_ceiling = r * X + s_bound
    count = 50
    while continued_fraction(eps, count).convergents[-1].q <= q_ceiling:
        count += 20
    log_c = hp_log(c, bits)
    rhs_small = Fraction(c, factor_floor * h**floor_n) / log_h
    small_regime, large_regime, survivors = [], [], []
    for p, q in continued_fraction(eps, count).convergents:
        if q > q_ceiling:
            break
        err = abs(eps - Fraction(p, q))
        if err.is_greater(rhs_small):
            small_regime.append(q)
            continue
        n_sub = max(floor_n, -((s_bound - q) // r))  # ceil((q - s_bound) / r)
        if err.log().is_greater(log_c - n_sub * log_h - (hp_log(q, bits) + log_h.log())):
            large_regime.append(q)
        else:
            survivors.append(q)
    return DependentCaseResult(
        bound=X if survivors else floor_n - 1, floor=floor_n, q_ceiling=q_ceiling,
        small_regime=tuple(small_regime), large_regime=tuple(large_regime), survivors=tuple(survivors),
    )


@pytest.mark.parametrize("g, h", FAMILY_PAIRS)
def test_bisected_sieve_equals_linear_sieve_on_every_dependent_prefix(g, h):
    # the sieve verify_family ran, from the floor it started at, against the linear scan
    for report in _dependent_reports(g, h, 600):
        n_a = digit_count(report.a, g)
        n_floor = max(30, n_a + max(digit_count(g * report.a, h), 2))
        oracle = linear_sieve(report.witness, report.a, g, h, report.bound, n_floor=n_floor, slack=n_a)
        assert report.dependent_result == oracle


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, X_MODEL), {}),
        ((DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, X_MODEL),
         {"n_floor": 30, "s_bound": 34, "factor_floor": 30, "slack": 6}),
        ((DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, 10**40), {}),
        ((dependence_witness(Fraction(2), 24, 6), 5, 24, 6, 10**8), {}),
    ]
    + [((dependence_witness(Fraction(4), 10, 2), 92, 10, 2, X_MODEL), {"n_floor": n}) for n in range(1, 8)],
    ids=["X_MODEL", "X_MODEL-structure", "1e40", "r-2", *(f"92-n_floor-{n}" for n in range(1, 8))],
)
def test_bisected_sieve_equals_linear_sieve(args, kwargs):
    assert dependent_case_check(*args, **kwargs) == linear_sieve(*args, **kwargs)


@pytest.mark.parametrize("g, h", FAMILY_PAIRS)
def test_convergent_errors_strictly_decrease(g, h):
    # fact 1 of the bisected sieve, certified: |epsilon - p/q| strictly
    # decreases over the first 50 convergents, and for (10, 2) over the 89
    # below the ceiling of X = 10**40
    eps = PreciseReal.log_ratio(g, h)
    convergents = continued_fraction(eps, 90 if (g, h) == (10, 2) else 50).convergents
    if (g, h) == (10, 2):
        convergents = [pair for pair in convergents if pair.q <= 10**40]
        assert len(convergents) == 89
    errors = [abs(eps - Fraction(p, q)) for p, q in convergents]
    assert all(err.is_greater(following) for err, following in zip(errors, errors[1:]))


def _counting_comparisons(monkeypatch) -> list:
    calls = []
    compare = PreciseReal.is_greater
    monkeypatch.setattr(PreciseReal, "is_greater", lambda self, other: calls.append(1) or compare(self, other))
    return calls


def test_a_dependent_prefix_makes_at_most_eight_comparisons(monkeypatch):
    # one for the floor, about log2(32) = 5 for the small regime's end and one
    # for the large regime's start: 7.0 a prefix, where the linear sieve made
    # one or two for each of the 31 or 32 candidates, 52.9 a prefix
    prefixes = [1, 3, 5, 7, 9, 33, 92, 99, 313, 585]
    for a in prefixes:  # fills the per-process caches first
        verify_family(a, 10, 2)
    calls = _counting_comparisons(monkeypatch)
    for a in prefixes:
        calls.clear()
        assert verify_family(a, 10, 2).branch == "dependent"
        assert len(calls) <= 8


def test_the_sieve_past_the_table_makes_at_most_twelve_comparisons(monkeypatch):
    # 89 candidates below the ceiling of X = 10**40: 8 comparisons, where the
    # linear sieve made 171
    check = lambda: dependent_case_check(DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, 10**40)
    check()
    calls = _counting_comparisons(monkeypatch)
    check()
    assert len(calls) <= 12


def test_verify_family_dependent_small_bound_scans_directly():
    # X below the sieve floor max(30, regime floor): every shift up to X is
    # tested, as on the independent branch
    report = verify_family(1, 10, 2, bound=5)
    assert (report.branch, report.status, report.tested_upper) == ("dependent", "complete", 5)
    assert report.dependent_result is None and report.ns == ()
    assert verify_family(9, 10, 2, bound=20).ns == (1, 3)
    assert verify_family(11, 10, 2, bound=5).status == "complete"
    for a in (1, 11):
        with pytest.raises(ValueError):
            verify_family(a, 10, 2, bound=0)


def test_direct_scan_keeps_the_shifts_of_a_string_oracle_scan():
    # the scan tests a shift's top base-h digits before the palindrome test, and from n = ell on, where
    # h**n > rev(a), only there; on every shift up to tested_upper it must keep what the oracle keeps,
    # a = 3 over (10, 2) among them, whose shift 1 (33 = 100001 in base 2) comes before ell = 2
    for g, h in FAMILY_PAIRS:
        for a in range(1, 300):
            if a % g:
                report, rev_a = verify_family(a, g, h), oracle_reverse(a, g)
                shifts = range(len(oracle_digits(a, g)), report.tested_upper + 1)
                assert report.ns == tuple(n for n in shifts if oracle_is_palindrome(a * g**n + rev_a, h)), (g, h, a)
