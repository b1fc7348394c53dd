from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from simulpal.precise import (
    PreciseReal,
    UndecidedComparisonError,
    hp_exp,
    hp_log,
)


def enclosure_of(x: PreciseReal, reference: str) -> bool:
    ref = Fraction(mpmath.mpf(reference))
    return x.lower <= ref <= x.upper


def test_hp_log_exact_one():
    z = hp_log(1)
    assert z.lower == z.upper == 0


def test_hp_log_encloses_reference():
    # reference values from mpmath at much higher working precision
    with mpmath.workdps(80):
        ref2 = Fraction(mpmath.nstr(mpmath.log(2), 60))
        ref_ratio = Fraction(mpmath.nstr(mpmath.log(10) / mpmath.log(2), 60))
    x = hp_log(2, 128)
    assert x.lower < ref2 < x.upper
    assert x.upper - x.lower < Fraction(1, 2**100)
    r = PreciseReal.log_ratio(10, 2, 128)
    assert r.lower < ref_ratio < r.upper


def test_refinement_is_nested():
    for val in (2, 3, Fraction(22, 7), 10**6 + 3):
        x = hp_log(val, 64)
        y = x.refined(256)
        assert x.lower <= y.lower <= y.upper <= x.upper
        assert y.upper - y.lower < x.upper - x.lower


def test_composed_values_refine():
    x = PreciseReal.log_ratio(10, 2, 64)
    y = x * 1234567 - 4100000
    z = y.refined(512)
    assert z.upper - z.lower < y.upper - y.lower
    assert y.lower <= z.lower and z.upper <= y.upper


def test_exact_arithmetic():
    a = PreciseReal.exact(Fraction(3, 2))
    b = PreciseReal.exact(Fraction(1, 3))
    assert (a + b).lower == Fraction(11, 6)
    assert (a * b).upper == Fraction(1, 2)
    assert (a / b).lower == Fraction(9, 2)
    assert abs(-a).upper == Fraction(3, 2)
    assert (a - 1).lower == Fraction(1, 2)


def test_division_by_zero_interval():
    z = PreciseReal.exact(0)
    with pytest.raises(ZeroDivisionError):
        PreciseReal.exact(1) / z


def test_division_and_log_escalate():
    # true value about 2.8e-5; the 8-bit enclosure straddles zero
    x = PreciseReal.log_ratio(10, 2, 8) - Fraction(33219, 10000)
    assert x.lower < 0 < x.upper
    inverse = 1 / x
    assert inverse.bits > 8 and 35000 < inverse.lower <= inverse.upper < 36000
    log = x.log()
    assert log.bits > 8 and log.lower <= log.upper < -10


def test_log_positive_requirement():
    with pytest.raises(ValueError):
        PreciseReal.exact(-1).log()
    with pytest.raises(ValueError):
        hp_log(0)


def test_exp_log_consistency():
    x = hp_exp(1, 128)
    back = x.log()
    assert back.lower <= 1 <= back.upper


def test_dist_to_nearest_int():
    assert PreciseReal.exact(Fraction(7, 2)).dist_to_nearest_int().upper == Fraction(1, 2)
    assert PreciseReal.exact(5).dist_to_nearest_int().upper == 0
    d = PreciseReal.exact(Fraction(17, 4)).dist_to_nearest_int()
    assert d.lower == d.upper == Fraction(1, 4)
    # an irrational times a large integer still gets a tight distance
    x = PreciseReal.log_ratio(10, 2, 192) * (10**15 + 7)
    d = x.dist_to_nearest_int()
    assert d.upper - d.lower < Fraction(1, 2**40)
    assert Fraction(0) <= d.lower <= d.upper <= Fraction(1, 2)


def test_comparisons_escalate():
    x = PreciseReal.log_ratio(10, 2, 64)
    # true value 3.3219...: both decisions need refinement beyond 64 bits
    tight_low = Fraction(33219280948873623, 10**16)
    tight_high = tight_low + Fraction(1, 10**16)
    assert x.is_greater(tight_low)
    assert x.is_less(tight_high)
    assert x.floor() == 3
    assert (x * 1000).floor() == 3321


def test_comparison_of_equal_exacts():
    a = PreciseReal.exact(Fraction(1, 3))
    assert not a.is_greater(Fraction(1, 3))
    assert not a.is_less(Fraction(1, 3))


def test_comparison_against_exact_rational_escalates():
    # the exact operand cannot refine; the coarse enclosure must, far beyond
    # its starting precision, before the comparison is decidable
    tight = hp_log(2, 300).lower
    coarse = hp_log(2, 64)
    assert coarse.is_greater(tight)
    assert not coarse.is_less(tight)
    quotient = hp_log(4, 64) / hp_log(2, 64)
    assert not quotient.is_greater(hp_log(4, 320).upper / hp_log(2, 320).lower)


def test_undecidable_comparison_raises():
    wide = PreciseReal(Fraction(0), Fraction(1), 64)  # fixed, no source
    with pytest.raises(UndecidedComparisonError):
        wide.is_greater(Fraction(1, 2))


def test_undecided_error_prints_enclosures_beyond_float_range():
    # the error message shows both operands; float() of 10**400 overflows
    huge = PreciseReal(Fraction(10**400), Fraction(10**400 + 1), 64)
    with pytest.raises(UndecidedComparisonError, match=r"1\.0e\+400"):
        huge.is_greater(Fraction(10**400))
    assert repr(PreciseReal.exact(Fraction(-(10**5000)))) == "PreciseReal([-1.0e+5000, -1.0e+5000], bits=65536)"
    assert repr(PreciseReal.exact(Fraction(1, 4))) == "PreciseReal([0.25, 0.25], bits=65536)"


_endpoint = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
_interval = st.one_of(
    # non-negative, mixed-sign, containing zero as an endpoint, non-positive
    st.tuples(_endpoint.map(abs), _endpoint.map(abs)),
    st.tuples(_endpoint.map(lambda x: -abs(x) - 1), _endpoint.map(lambda x: abs(x) + 1)),
    st.tuples(st.just(Fraction(0)), _endpoint.map(abs)),
    st.tuples(_endpoint.map(lambda x: -abs(x)), st.just(Fraction(0))),
    st.tuples(_endpoint.map(lambda x: -abs(x)), _endpoint.map(lambda x: -abs(x))),
).map(sorted)


@given(_interval, _interval)
def test_product_endpoints_are_the_four_product_hull(x, y):
    ps = [u * v for u in x for v in y]
    product = PreciseReal(*x, 64) * PreciseReal(*y, 64)
    assert (product.lower, product.upper) == (min(ps), max(ps))


def test_immutability():
    x = hp_log(2)
    with pytest.raises(AttributeError):
        x.lower = Fraction(0)
