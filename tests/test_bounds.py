import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import simulpal
from simulpal import bounds, precise
from simulpal.bounds import (
    SHIFT_THREE_LOG_COEFF,
    SHIFT_TWO_LOG_COEFF,
    LaurentInstance,
    MatveevInstance,
    THREE_LOG_COEFF,
    laurent_lower_bound,
    matveev_lower_bound,
    shift_exponent_bound,
    shift_exponent_bound_terms,
    solve_log_majorant,
    tail_fit_threshold,
    zero_run_threshold_terms,
)
from simulpal.lindep import dependence_witness, multiplicatively_independent
from simulpal.palgen import family_instance
from simulpal.precise import PreciseReal, hp_log
from simulpal.radix import MAX_BASE, DomainError, digit_count
from simulpal.reduction import verify_family

from test_acceptance import FAMILY_PAIRS


def _zero_run_threshold(a, g, h, n):
    return max(zero_run_threshold_terms(a, g, h, n).values())


def _matveev_constant_3():
    # C(3, 1), which matveev_lower_bound reports for any three-log form
    return matveev_lower_bound(MatveevInstance(alphas=(2, 3, 5), b_coeffs=(1, 1, 1))).C_n


def test_weil_height():
    # with D = 1 the computed height bound of a rational above 1 is its
    # Weil height log max(|p|, q), which dominates |log alpha|
    A = matveev_lower_bound(MatveevInstance(alphas=(5, Fraction(4, 7)), b_coeffs=(1, 1))).A
    assert math.isclose(A[0], math.log(5), rel_tol=1e-12)
    assert math.isclose(A[1], math.log(7), rel_tol=1e-12)
    for alpha in (-2, 1):
        with pytest.raises(DomainError, match="positive and != 1"):
            MatveevInstance(alphas=(alpha, 3), b_coeffs=(1, 1))


def test_matveev_constant_against_oracle():
    with mpmath.workdps(50):
        e = mpmath.e
        oracle = mpmath.mpf(16) / 6 * e**3 * 9 * 5 * (4 * 4) ** 4 * (e * 3 / 2)
        assert abs(_matveev_constant_3() / float(oracle) - 1) < 1e-12
    assert 6.4e8 < _matveev_constant_3() < 6.5e8


def test_matveev_full_evaluation_against_oracle():
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
        b = max(1, 1 * 16.8 / 2.31, 47 * 0.7 / 2.31, 14 * 2.31 / 2.31)
        w0 = mpmath.log(1.5 * e * b)
        omega = mpmath.mpf("16.8") * mpmath.mpf("0.7") * mpmath.mpf("2.31")
        oracle = -(c3 * c0 * w0 * omega)
        assert abs(ev.value / float(oracle) - 1) < 1e-6
    assert ev.value < 0
    assert abs(ev.C0 - 26.241) < 1e-2
    assert abs(ev.B_bound - 47 * 0.7 / 2.31) < 1e-9


def test_matveev_assembled_coefficient_consistency():
    # C(3) * C0(3, D=1) * 1.152 should sit just below the assembled
    # three-log coefficient 2.022e10 used in the zero-run threshold
    c3 = _matveev_constant_3()
    c0 = 20.2 + 5.5 * math.log(3)
    assembled = c3 * c0 * 1.152
    assert 0.9 * float(THREE_LOG_COEFF) <= assembled <= float(THREE_LOG_COEFF)


def test_matveev_validation():
    with pytest.raises(DomainError, match="the last coefficient must be nonzero"):
        MatveevInstance(alphas=(Fraction(2), Fraction(3)), b_coeffs=(1, 0))
    with pytest.raises(DomainError, match="logarithm arguments must be positive and != 1"):
        MatveevInstance(alphas=(Fraction(1), Fraction(3)), b_coeffs=(1, 1))


def test_laurent_direct_substitution():
    ev = laurent_lower_bound(
        LaurentInstance(Fraction(3), Fraction(2), b1=3, b2=7, logA1=2.5, logA2=1.2)
    )
    assert ev.log_b == 21.0
    oracle_log = -24.34 * 441 * 2.5 * 1.2
    assert abs(ev.log_value / oracle_log - 1) < 1e-6
    assert 0 < ev.value < 1


def test_laurent_below_true_linear_form():
    ev = laurent_lower_bound(LaurentInstance(Fraction(3), Fraction(2), b1=1, b2=1))
    true_gap = Fraction(mpmath.nstr(mpmath.log(3) - mpmath.log(2), 40))
    assert 0 < ev.value <= true_gap


def test_laurent_random_instances_stay_below_truth():
    rng = random.Random(5)
    tested = 0
    while tested < 100:
        a1 = Fraction(rng.randrange(2, 50), rng.randrange(1, 10))
        a2 = Fraction(rng.randrange(2, 50), rng.randrange(1, 10))
        if a1 == 1 or a2 == 1 or a1 == a2:
            continue
        try:
            inst = LaurentInstance(a1, a2, b1=rng.randrange(1, 100), b2=rng.randrange(1, 100))
        except DomainError as exc:
            if "dependent" not in str(exc):
                raise
            continue
        ev = laurent_lower_bound(inst)
        with mpmath.workdps(60):
            true_gap = abs(inst.b2 * mpmath.log(a2) - inst.b1 * mpmath.log(a1))
            # dependent pairs, whose form can be 0, are refused at construction
            assert ev.value < Fraction(mpmath.nstr(true_gap, 50))
        assert ev.value > 0
        tested += 1


def test_laurent_large_degree_stays_small():
    # D = 1000 puts the exponent near 4.6e12: the evaluation must not build
    # the rational of about 6.7e12 bits that reading ``value`` would
    code = (
        "import math, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))\n"
        "from fractions import Fraction\n"
        "from simulpal.bounds import LaurentInstance, laurent_lower_bound\n"
        "ev = laurent_lower_bound(LaurentInstance(Fraction(3), Fraction(2), b1=3, b2=7, D=1000))\n"
        "assert math.isfinite(ev.log_value) and ev.log_value < -4e12, ev.log_value\n"
        "assert ev.bound.bits == 128\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simulpal.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_laurent_two_log_coefficient_fits():
    # the assembled two-log factor 24.34 * 4 / log 2 must stay below 142's
    # predecessor 141 for the threshold chain to close
    assert 24.34 * 4 / math.log(2) <= 141


def test_laurent_validation():
    with pytest.raises(DomainError, match="8 and 2 are multiplicatively dependent"):
        LaurentInstance(Fraction(8), Fraction(2), b1=1, b2=1)
    with pytest.raises(DomainError, match="the two coefficients must be positive integers"):
        LaurentInstance(Fraction(3), Fraction(2), b1=0, b2=1)


def test_tail_fit_threshold():
    assert math.isclose(tail_fit_threshold(1, 10, 2), math.log(10) / math.log(2), rel_tol=1e-9)
    assert math.isclose(tail_fit_threshold(10**6, 10, 2), math.log(10**7) / math.log(2), rel_tol=1e-9)
    # exact integer version, verify_family's regime floor: smallest m with h**m > g*a
    assert digit_count(10, 2) == 4
    assert digit_count(10**7, 2) == 24
    assert digit_count(10, 9) == 2


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4), (12, 6), (24, 6), (6, 2)])
def test_min_zero_run_is_the_least_fitting_power(g, h):
    for a in range(1, 3000):
        m = digit_count(g * a, h)
        assert h**m > g * a >= h ** (m - 1)


def test_zero_run_threshold_values():
    val = _zero_run_threshold(1, 10, 2, 10**6)
    oracle = float(THREE_LOG_COEFF) * math.log(10) * math.log(20) * math.log(10**6)
    assert abs(val / oracle - 1) < 1e-9
    assert 1.92e12 < val < 1.94e12

    terms = zero_run_threshold_terms(1, 10, 2, 3)
    assert abs(terms["dependence_degree"] - math.log(10) * math.log(20) ** 2 / math.log(2) ** 3) < 1e-6
    assert abs(terms["two_log"] - 142 * math.log(3) ** 2 * math.log(10)) < 1e-6
    # the three-log term dominates even at tiny n
    assert max(terms.values()) == terms["three_log"]
    assert 1.5e11 < terms["three_log"] < 1.56e11


def test_zero_run_threshold_never_rejects_true_palindrome():
    # 585585 = family(a=585, n=3) has zero run m = 0, far below the threshold
    assert 0 < _zero_run_threshold(585, 10, 2, 3)


def test_zero_run_threshold_validation():
    with pytest.raises(DomainError, match=r"need 2 <= h < g, got h=10, g=2"):
        _zero_run_threshold(1, 2, 10, 5)
    with pytest.raises(DomainError, match=r"need h \| g, got h=3, g=10"):
        _zero_run_threshold(1, 10, 3, 5)
    with pytest.raises(DomainError, match="bases 8 and 2 are multiplicatively dependent"):
        _zero_run_threshold(1, 8, 2, 5)


def test_shift_exponent_bound_model_instance(  ):
    val = shift_exponent_bound(10**6 - 1, 10, 2)
    assert val <= 2.65e15
    assert val >= 0.98 * 2.65e15


def test_shift_exponent_bound_monotone_in_prefix():
    samples = [1, 2, 3, 17, 999, 10**5, 10**6 - 1]
    vals = [shift_exponent_bound(a, 10, 2) for a in samples]
    assert vals == sorted(vals)


def test_shift_exponent_small_prefix_regime():
    # for a <= 2 the solved two-log expression is suppressed entirely
    assert "two_log_solved" not in shift_exponent_bound_terms(2, 10, 2)
    terms = shift_exponent_bound_terms(3, 10, 2)
    assert "two_log_solved" in terms
    assert max(terms.values()) == terms["three_log_solved"]


def test_shift_exponent_bound_is_its_three_log_term():
    # shift_exponent_bound evaluates only the three-log term, by its lemma; on
    # 5 316 prefixes it equals the maximum of the four terms, which is that
    # term, and encloses an mpmath evaluation of it from above within 1e-14
    prefixes = list(range(1, 400)) + [10**k + 7 for k in range(3, 300, 7)] + [10**5000 + 1]
    for g, h in FAMILY_PAIRS:
        with mpmath.workdps(40):
            log_g = mpmath.log(g)
            for a in prefixes:
                terms = shift_exponent_bound_terms(a, g, h)
                bound = shift_exponent_bound(a, g, h)
                assert bound == max(terms.values()) == terms["three_log_solved"], (a, g, h)
                log_agh = mpmath.log(a) + mpmath.log(g * h)
                oracle = int(SHIFT_THREE_LOG_COEFF) * log_g * log_agh * mpmath.log(log_g * log_agh) ** 2
                assert oracle <= bound <= oracle * (1 + mpmath.mpf(1e-14)), (a, g, h)


def test_three_log_term_dominates_at_the_ends_of_the_lemma():
    # the lemma of shift_exponent_bound, certified at its worst case: a of
    # 2**50 bits, g h as large as the base check allows and G = log 3, where
    # the degree term comes within 2.6x; and at A = log 6, below every
    # A = log(a g h) of the domain, where A / L**2 has its other peak
    log_2, log_3 = hp_log(2), hp_log(3)
    edge = log_2 * 2**50 + hp_log(MAX_BASE**2)
    for A, least, most in ((edge, Fraction(5, 2), Fraction(13, 5)), (hp_log(6), 10**11, None)):
        L = (log_3 * A).log()
        three_log = SHIFT_THREE_LOG_COEFF * log_3 * A * L * L
        assert L.is_greater(Fraction(677, 1000)) and L.is_less(29 * 10**4)
        assert three_log.is_greater(Fraction(10**12) * A / log_2)  # tail_fit
        assert three_log.is_greater(SHIFT_TWO_LOG_COEFF * A * L * L * L)
        degree = log_3 * A * A / (log_2 * log_2 * log_2)
        assert three_log.is_greater(degree * least)
        assert most is None or three_log.is_less(degree * most)


def test_shift_exponent_bound_refuses_a_prefix_past_its_lemma(monkeypatch):
    # no integer in memory has more than 2**50 bits: a lower limit shows the guard
    monkeypatch.setattr(bounds, "_MAX_PREFIX_BITS", 200)
    assert shift_exponent_bound(2**200 - 1, 10, 2) == max(shift_exponent_bound_terms(2**200 - 1, 10, 2).values())
    with pytest.raises(DomainError, match="^prefix an integer of 61 digits has more than 200 bits"):
        shift_exponent_bound(2**200 + 1, 10, 2)
    with pytest.raises(DomainError, match="more than 200 bits"):
        verify_family(2**200 + 1, 10, 2)


def test_shift_exponent_bound_makes_seven_interval_operations(monkeypatch):
    # log a, log(a g h), log g log(a g h), its log and square, and two products,
    # each one mpmath interval operation, and one rounding to a float; the
    # maximum of all four terms took 16 operations and 4 roundings
    shift_exponent_bound(1, 10, 2)  # fills the per-base-pair cache
    ops, roundings = [], []
    compose, upper_float = precise._compose, bounds.upper_float
    monkeypatch.setattr(precise, "_compose", lambda *args, **kw: ops.append(1) or compose(*args, **kw))
    monkeypatch.setattr(bounds, "upper_float", lambda x: roundings.append(1) or upper_float(x))
    shift_exponent_bound(123_457, 10, 2)
    assert (len(ops), len(roundings)) == (7, 1)


# literal floats: a change to the arithmetic or to its rounding that moves a
# bound term by one ulp shows here; for a = 123 also the bound, reduced bound
# and pair denominator of the verify_family report
@pytest.mark.parametrize(
    "a, g, h, values, report",
    [
        (1, 10, 2, (3.3219280948873626, 62.05050236331545, 131463019477863.0), None),
        (2, 10, 2, (4.321928094887363, 94.08669918318151, 198653783467446.88), None),
        (3, 10, 2, (4.906890595608519, 115.9065774542785, 242508504574144.97, 17455.17168937064), None),
        (74, 10, 2, (9.531381460516313, 368.43502994534737, 683949725593396.9, 255610099.1581942), None),
        (92, 10, 2, (9.845490050944376, 390.74064425270643, 719097154973317.2, 296709583.22104853), None),
        (
            123, 10, 2,
            (10.264442600226603, 421.5117062136084, 766863619325183.6, 356475340.880648),
            (766863619325184, 63, 30387805924728145),
        ),
        (999999, 10, 2, (23.253495221515777, 1954.0645082980068, 2644038821689119.5, 4777285089.42511), None),
        (35, 6, 2, (7.714245517666123, 196.2970761024471, 313696481294535.0, 138592138.45290697), None),
        (1234, 15, 5, (6.10527832708171, 1063.3860830190433, 1864954972091013.5, 1027796222.213897), None),
    ],
)
def test_shift_exponent_bound_terms_are_pinned(a, g, h, values, report):
    names = ("tail_fit", "dependence_degree", "three_log_solved", "two_log_solved")
    assert shift_exponent_bound_terms(a, g, h) == dict(zip(names, values))
    if report is not None:
        r = verify_family(a, g, h)
        assert (r.bound, r.reduced_bound, r.pair_used.q) == report


# literal floats, as above, for the terms `bound ... --n` prints; tail_fit_threshold
# is the first of them
@pytest.mark.parametrize(
    "a, g, h, n, values",
    [
        (1, 10, 2, 3, (3.3219280948873626, 62.05050236331545, 394.63258129438225, 153230172572.60266)),
        (123, 10, 2, 60, (10.264442600226603, 421.5117062136084, 5481.1641620313385, 1488388807575.9395)),
        (35, 6, 2, 10**6, (7.714245517666123, 196.2970761024471, 48562.600049825196, 3023312581875.7603)),
        (1234, 15, 5, 7, (6.10527832708171, 1063.3860830190433, 1456.09805464056, 1218473161098.1436)),
    ],
)
def test_zero_run_threshold_terms_are_pinned(a, g, h, n, values):
    names = ("tail_fit", "dependence_degree", "two_log", "three_log")
    assert list(zero_run_threshold_terms(a, g, h, n).items()) == list(zip(names, values))
    assert tail_fit_threshold(a, g, h) == values[0]


def test_bounds_round_outward_past_float_range():
    # the product of 58 height bounds of 1e300 passes float range; the rounding
    # raised a bare OverflowError, where +inf (and -inf below) still bound it
    ev = matveev_lower_bound(MatveevInstance(alphas=tuple(range(2, 60)), b_coeffs=(1,) * 58, A=(1e300,) * 58))
    assert (ev.Omega, ev.value) == (math.inf, -math.inf)
    assert math.isfinite(ev.C_n) and math.isfinite(ev.W0)


def test_prefixes_past_the_int_to_str_limit_are_bounded():
    # a message built on every call once converted a 5 001-digit argument to
    # decimal, which Python refuses past 4 300 digits
    assert hp_log(10**5000).is_greater(11512)
    assert shift_exponent_bound(10**5000 + 1, 10, 2) > 1e19
    assert dependence_witness(Fraction(10**5000 + 1, 3), 10, 2) is None


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: hp_log(-(10**5000)), "non-positive value a negative integer of 5001 digits"),
        (lambda: verify_family(-(10**5000), 10, 2), "positive integer, got a negative integer of 5001 digits"),
        (lambda: verify_family(10**5000, 10, 2), "10 divides an integer of 5001 digits"),
        (lambda: family_instance(10**5000, 10, 2, 3), "10 divides an integer of 5001 digits"),
        (lambda: dependence_witness(2, 10**5000, 10**5000), "bases an integer of 5001 digits and an integer of 5001"),
        (lambda: multiplicatively_independent(-(10**5000), 2), "got a negative integer of 5001 digits"),
        # a rational's numerator or denominator is named the same way
        (lambda: hp_log(Fraction(-(10**5000), 3)), "value the ratio of a negative integer of 5001 digits to 3"),
        (lambda: dependence_witness(Fraction(-(10**5000), 3), 10, 2), "got the ratio of a negative integer of 5001"),
        (lambda: PreciseReal(10**5000, 1, 64), r"empty interval \[an integer of 5001 digits, 1\]"),
    ],
    ids=[
        "hp_log", "verify_family-negative", "verify_family-divisible", "family_instance", "witness", "independence",
        "hp_log-fraction", "witness-fraction", "empty-interval",
    ],
)
def test_rejected_arguments_past_the_int_to_str_limit_are_domain_errors(call, match):
    # each message formatted the argument, which raised a bare ValueError past 4 300 digits
    with pytest.raises(DomainError, match=match):
        call()


def test_majorant_examples():
    val = solve_log_majorant(10, 0, 1)
    assert abs(val - 10 * math.log(10) ** 2) < 1e-9
    # true largest solution of n = 10 log n is about 35.77
    assert val > 35.78


def _fixpoint_from_above(A, B, power):
    """Largest solution of n = A*(log n)**power + B by damped iteration from
    above, or None when the equation has no solution >= 1."""
    n = 1e30
    for _ in range(500):
        if n <= 1.0:
            return None
        n = A * math.log(n) ** power + B
    return n


@pytest.mark.parametrize("power,A_range", [(1, (8.0, 10**6)), (2, (63.0, 10**6))])
def test_majorant_dominates_fixpoint(power, A_range):
    rng = random.Random(power)
    for _ in range(200):
        A = rng.uniform(*A_range)
        B = rng.uniform(0, 1000)
        majorant = solve_log_majorant(A, B, power)
        root = _fixpoint_from_above(A, B, power)
        assert root is not None
        assert majorant >= root
        assert root >= A * math.log(root) ** power + B - 1e-6 * root


def test_majorant_fallback_region():
    # below the closed-form validity threshold the numeric search takes over
    for A, B, power in ((2.0, 0.0, 1), (5.0, 1.0, 2), (0.5, 3.0, 1), (40.0, 2.0, 2)):
        majorant = solve_log_majorant(A, B, power)
        root = _fixpoint_from_above(A, B, power)
        if root is not None:
            assert majorant >= root - 1e-9


def test_majorant_reproduces_shift_coefficients():
    # three-log route: the solved form 5.11e12 ... dominates the majorant of
    # n = A log n + B at the model instance
    a, g, h = 10**6 - 1, 10, 2
    L = math.log(g) * math.log(a * g * h)
    A = 2.023e10 * L
    B = math.log(a) / math.log(g) + 1
    assert solve_log_majorant(A, B, 1) <= 5.11e12 * L * math.log(L) ** 2

    # two-log route: C = 130 log a majorises A + B/(log A)^2 for a >= 3, and
    # C (log C)^3 stays below 1.91e7 log a (log log a)^3
    with mpmath.workdps(40):
        for a in (3, 10, 10**6 - 1):
            la = mpmath.log(a)
            B2 = mpmath.log(a) / mpmath.log(10) + 1
            assert 142 + B2 / mpmath.log(142) ** 2 <= 130 * la
            C = 130 * la
            assert C * mpmath.log(C) ** 3 <= mpmath.mpf(1.91e7) * la * mpmath.log(la) ** 3


def test_solved_shift_bound_leaves_a_zero_run_past_the_threshold():
    # the solved coefficients are sound only if every shift n past the bound
    # X leaves a zero run n - n_a longer than the unsolved threshold allows;
    # checked at n = ceil(X), 2 ceil(X) and 10 ceil(X) on each family pair.
    # The least margin, 17.9x, is at (6, 2), a = 1, n = ceil(X); with
    # SHIFT_THREE_LOG_COEFF / 20 this fails there
    margins = {}
    for g, h in FAMILY_PAIRS:
        for a in [a for a in range(1, 50) if a % g] + [10**k + 7 for k in range(3, 60, 4)]:
            X, n_a = math.ceil(shift_exponent_bound(a, g, h)), digit_count(a, g)
            for n in (X, 2 * X, 10 * X):
                margins[g, h, a, n // X] = (n - n_a) / _zero_run_threshold(a, g, h, n)
    assert min(margins.values()) > 1
    assert min(margins, key=margins.get) == (6, 2, 1, 1)


def test_majorant_validation():
    with pytest.raises(DomainError):
        solve_log_majorant(10, 0, 3)
    with pytest.raises(DomainError):
        solve_log_majorant(-1, 0, 1)
