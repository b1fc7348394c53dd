import math
import random
from fractions import Fraction

import mpmath
import pytest

from simulpal.bounds import (
    LaurentInstance,
    MatveevInstance,
    PreconditionError,
    THREE_LOG_COEFF,
    laurent_lower_bound,
    matveev_constant,
    matveev_lower_bound,
    min_zero_run_for_tail_fit,
    shift_exponent_bound,
    shift_exponent_bound_terms,
    solve_log_majorant,
    tail_fit_threshold,
    weil_height,
    zero_run_threshold,
    zero_run_threshold_terms,
)
from simulpal.lindep import PreconditionError as LindepPreconditionError
from simulpal.radix import DomainError


def test_weil_height():
    assert math.isclose(weil_height(5), math.log(5), rel_tol=1e-12)
    assert math.isclose(weil_height(Fraction(4, 7)), math.log(7), rel_tol=1e-12)
    assert weil_height(1) == 0.0
    with pytest.raises(DomainError):
        weil_height(-2)


def test_matveev_constant_against_oracle():
    with mpmath.workdps(50):
        e = mpmath.e
        oracle = mpmath.mpf(16) / 6 * e**3 * 9 * 5 * (4 * 4) ** 4 * (e * 3 / 2)
        assert abs(matveev_constant(3) / float(oracle) - 1) < 1e-12
    assert 6.4e8 < matveev_constant(3) < 6.5e8


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
    c3 = matveev_constant(3)
    c0 = 20.2 + 5.5 * math.log(3)
    assembled = c3 * c0 * 1.152
    assert 0.9 * float(THREE_LOG_COEFF) <= assembled <= float(THREE_LOG_COEFF)


def test_precondition_error_is_shared():
    assert PreconditionError is LindepPreconditionError


def test_matveev_validation():
    with pytest.raises(PreconditionError):
        MatveevInstance(alphas=(Fraction(2), Fraction(3)), b_coeffs=(1, 0))
    with pytest.raises(PreconditionError):
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
        except PreconditionError:
            continue
        ev = laurent_lower_bound(inst)
        with mpmath.workdps(60):
            true_gap = abs(inst.b2 * mpmath.log(a2) - inst.b1 * mpmath.log(a1))
            assert ev.value < Fraction(mpmath.nstr(true_gap, 50)) or true_gap == 0
        assert ev.value > 0
        tested += 1


def test_laurent_two_log_coefficient_fits():
    # the assembled two-log factor 24.34 * 4 / log 2 must stay below 142's
    # predecessor 141 for the threshold chain to close
    assert 24.34 * 4 / math.log(2) <= 141


def test_laurent_validation():
    with pytest.raises(PreconditionError):
        LaurentInstance(Fraction(8), Fraction(2), b1=1, b2=1)
    with pytest.raises(PreconditionError):
        LaurentInstance(Fraction(3), Fraction(2), b1=0, b2=1)


def test_tail_fit_threshold():
    assert math.isclose(tail_fit_threshold(1, 10, 2), math.log(10) / math.log(2), rel_tol=1e-9)
    assert math.isclose(tail_fit_threshold(10**6, 10, 2), math.log(10**7) / math.log(2), rel_tol=1e-9)
    # exact integer version: smallest m with h**m > g*a
    assert min_zero_run_for_tail_fit(1, 10, 2) == 4
    assert min_zero_run_for_tail_fit(10**6, 10, 2) == 24
    assert min_zero_run_for_tail_fit(1, 10, 9) == 2


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4), (12, 6), (24, 6), (6, 2)])
def test_min_zero_run_is_the_least_fitting_power(g, h):
    for a in range(1, 3000):
        m = min_zero_run_for_tail_fit(a, g, h)
        assert h**m > g * a >= h ** (m - 1)


def test_zero_run_threshold_values():
    val = zero_run_threshold(1, 10, 2, 10**6)
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
    assert 0 < zero_run_threshold(585, 10, 2, 3)


def test_zero_run_threshold_validation():
    with pytest.raises(PreconditionError):
        zero_run_threshold(1, 2, 10, 5)  # h > g
    with pytest.raises(PreconditionError):
        zero_run_threshold(1, 10, 3, 5)  # h does not divide g
    with pytest.raises(PreconditionError):
        zero_run_threshold(1, 8, 2, 5)  # multiplicatively dependent


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


def test_majorant_validation():
    with pytest.raises(DomainError):
        solve_log_majorant(10, 0, 3)
    with pytest.raises(DomainError):
        solve_log_majorant(-1, 0, 1)
