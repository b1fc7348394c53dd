import math
import operator
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import fhalf, from_rational, fzero, mpf_add, mpf_floor, mpf_lt
from mpmath.libmp import mpi_abs, mpi_add, mpi_div, mpi_log, mpi_mul, mpi_neg, mpi_sub, to_rational

from simulpal import precise
from simulpal.precise import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    PreciseReal,
    UndecidedComparisonError,
    hp_exp,
    hp_log,
    upper_float,
)
from simulpal.radix import DomainError


def enclosure_of(x: PreciseReal, reference: str) -> bool:
    ref = Fraction(mpmath.mpf(reference))
    return x.lower <= ref <= x.upper


def test_hp_log_exact_one():
    z = hp_log(1)
    assert z.lower == z.upper == 0
    assert z.refinable
    finer = z.refined(400)
    assert finer.lower == finer.upper == 0 and finer.bits == 400


@pytest.mark.parametrize(
    "make",
    [lambda bits: hp_log(2, bits), lambda bits: hp_exp(2, bits), lambda bits: PreciseReal.log_ratio(10, 2, bits)],
    ids=["hp_log", "hp_exp", "log_ratio"],
)
@pytest.mark.parametrize("bits", [0, -1, (1 << 16) + 1])
def test_enclosures_reject_a_precision_out_of_range(make, bits):
    with pytest.raises(DomainError, match="precision must be in"):
        make(bits)


@pytest.mark.parametrize("x, y", [(10, 1), (0, 2), (2, 0), (1, 1), (-2, 3), (2, -3)])
def test_log_ratio_rejects_a_logarithm_it_cannot_enclose(x, y):
    # log(1) = 0 as a divisor and log(0) = -inf give infinite endpoints, which
    # to_rational reads as 0: without the check they pass as a certified [0, 0]
    with pytest.raises(DomainError, match="needs positive x and y"):
        PreciseReal.log_ratio(x, y, 64)


@pytest.mark.parametrize(
    "y, floor", [(Fraction(1001, 1000), 693), (Fraction(257, 256), 177), (Fraction(999, 1000), -693)]
)
def test_log_ratio_with_a_divisor_log_near_zero_escalates_the_divisor(y, floor):
    # at 8 bits log y touches 0; dividing by that enclosure gave an infinite
    # upper end, which to_rational reads as 0, and floor() a bare ValueError
    x = PreciseReal.log_ratio(2, y, 8)
    with mpmath.workdps(60):
        reference = Fraction(mpmath.nstr(mpmath.log(2) / mpmath.log(mpmath.mpf(y.numerator) / y.denominator), 50))
    assert all(map(math.isfinite, (float(x.lower), float(x.upper))))
    assert x.lower <= reference <= x.upper
    assert x.floor() == floor


def test_fixed_int_endpoints_divide_exactly():
    # int endpoints once divided as floats, and 1/(3/4) rounded below 2/3: the
    # quotient encloses [1/4, 2/3] at 64 bits and refines toward it
    q = PreciseReal(1, 2, 64) / PreciseReal(3, 4, 64)
    for x in (q, q.refined(256)):
        assert x.lower == Fraction(1, 4) and 0 <= x.upper - Fraction(2, 3) < Fraction(1, 2 ** (x.bits - 1))


@pytest.mark.parametrize("bits", [16, 64, 192])
def test_log_endpoints_are_the_logs_of_the_endpoints(bits):
    # the hull [lower, upper] keeps both endpoints of hp_log; an exact 1/3
    # is not dyadic, so the hull must take its lower and upper roundings
    x = PreciseReal.log_ratio(10, 2, bits) / 3
    for b in (bits, 2 * bits + 1):
        y, log = x.refined(b), x.log().refined(b)
        assert (log.lower, log.upper, log.bits) == (hp_log(y.lower, b).lower, hp_log(y.upper, b).upper, b)
    third = PreciseReal.exact(Fraction(1, 3)).log()
    assert (third.lower, third.upper) == (hp_log(Fraction(1, 3)).lower, hp_log(Fraction(1, 3)).upper)


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
    # exact operands give a computed enclosure at their MAX_PRECISION bits
    a = PreciseReal.exact(Fraction(3, 2))
    b = PreciseReal.exact(Fraction(1, 3))
    results = [(a + b, Fraction(11, 6)), (a * b, Fraction(1, 2)), (a / b, Fraction(9, 2)), (abs(-a), Fraction(3, 2))]
    for x, value in results + [(a - 1, Fraction(1, 2))]:
        assert x.refinable and x.bits == MAX_PRECISION
        assert x.lower <= value <= x.upper and x.upper - x.lower < Fraction(1, 2 ** (MAX_PRECISION - 8))


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
    with pytest.raises(DomainError, match="logarithm of an interval not certainly positive"):
        PreciseReal.exact(-1).log()
    with pytest.raises(DomainError, match="logarithm of non-positive value 0"):
        hp_log(0)
    with pytest.raises(DomainError, match="empty interval"):
        PreciseReal(2, 1, 64)


def test_the_constructor_builds_only_checked_fixed_values():
    # a source= recipe used to skip every check: PreciseReal(2, 1, 0, source=...)
    # was an empty interval at 0 bits whose lower end raised a bare TypeError
    with pytest.raises(TypeError):
        PreciseReal(2, 1, 0, source=lambda bits: None)
    assert not PreciseReal(1, 2, 64).refinable


def test_a_fixed_value_at_one_bit_escalates_promptly():
    # the product starts at the fixed value's 1 bit; escalation doubles from
    # there, where 0 bits (now refused) doubled to 0 forever
    started = time.perf_counter()
    assert (PreciseReal(1, 1, 1) * hp_log(2)).floor() == 0
    assert time.perf_counter() - started < 1.0


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


@pytest.mark.parametrize(
    "lo, hi, expected",
    [
        ((21, 10), (11, 5), ((1, 10), (1, 5))),
        ((14, 5), (29, 10), ((1, 10), (1, 5))),
        ((29, 10), (16, 5), ((0, 1), (1, 5))),
        ((7, 3), (8, 3), ((0, 1), (1, 2))),
        ((-1, 2), (1, 2), ((0, 1), (1, 2))),
        ((0, 1), (1, 1), ((0, 1), (1, 2))),
        ((1, 3), (4, 3), ((0, 1), (1, 2))),
    ],
)
def test_dist_to_nearest_int_endpoints(lo, hi, expected):
    # the endpoints round outward at 64 bits, so the image is enclosed within 2**-60
    d = PreciseReal(Fraction(*lo), Fraction(*hi), 64).dist_to_nearest_int()
    low, high = (Fraction(*e) for e in expected)
    assert 0 <= low - d.lower < Fraction(1, 2**60) and 0 <= d.upper - high < Fraction(1, 2**60)


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
    # a tie of equal dyadic values is False; equal non-dyadic values round
    # outward to overlapping enclosures that nothing refines: undecided
    quarter = PreciseReal.exact(Fraction(1, 4))
    assert not quarter.is_greater(Fraction(1, 4))
    assert not quarter.is_less(Fraction(1, 4))
    third = PreciseReal.exact(Fraction(1, 3))
    for compare in (third.is_greater, third.is_less):
        with pytest.raises(UndecidedComparisonError, match="comparison undecided"):
            compare(Fraction(1, 3))


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
    # nor does a positive value below float range print as 0.0
    assert repr(PreciseReal.exact(Fraction(1, 10**5000))) == "PreciseReal([1.0e-5000, 1.0e-5000], bits=65536)"
    assert repr(PreciseReal.exact(0)) == "PreciseReal([0.0, 0.0], bits=65536)"


_endpoint = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
_interval = st.one_of(
    # non-negative, mixed-sign, containing zero as an endpoint, non-positive
    st.tuples(_endpoint.map(abs), _endpoint.map(abs)),
    st.tuples(_endpoint.map(lambda x: -abs(x) - 1), _endpoint.map(lambda x: abs(x) + 1)),
    st.tuples(st.just(Fraction(0)), _endpoint.map(abs)),
    st.tuples(_endpoint.map(lambda x: -abs(x)), st.just(Fraction(0))),
    st.tuples(_endpoint.map(lambda x: -abs(x)), _endpoint.map(lambda x: -abs(x))),
).map(sorted)


def test_hp_exp_of_a_huge_argument_is_cheap():
    # e**(10**9) has a binary exponent of about 1.44e9: the enclosure keeps it
    # apart from the 64-bit mantissa instead of building a rational that size
    started = time.perf_counter()
    big, tiny = hp_exp(10**9, 64), hp_exp(-(10**16), 64)
    assert time.perf_counter() - started < 1.0
    assert big.bits == tiny.bits == 64
    back = big.log()
    assert back.is_greater(10**9 - 1) and back.is_less(10**9 + 1)


def test_decisions_against_an_exact_value_round_the_exact_side(monkeypatch):
    def no_rational(x):
        raise AssertionError("a decision built the rational of a dyadic endpoint")

    monkeypatch.setattr(precise, "to_rational", no_rational)
    assert hp_exp(-(10**9), 64).is_less(Fraction(1, 10**100))
    # cross-multiplying by 2**(1.44e16) instead would exhaust memory
    assert hp_exp(-(10**16), 64).is_less(Fraction(1, 10**100))
    assert hp_exp(10**9, 64).is_greater(10**100)
    assert hp_exp(-(10**9), 64).is_greater(0)


_positive = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)
# integers and dyadic rationals round exactly, so an inward rounding of the
# result is not masked by the outward rounding of the operand
_rational = st.one_of(
    _endpoint,
    st.integers(-1000, 1000).map(Fraction),
    st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-(10**6), 10**6), st.integers(0, 20)),
)
_bits = st.integers(8, 256)
# y = 1 ± 1/n at a low precision: log y is near 0 and its enclosure touches it
_near_one = st.builds(lambda n, sign: 1 + Fraction(sign, n), st.integers(2, 10**4), st.sampled_from((-1, 1)))
_computed = st.one_of(
    st.builds(hp_log, _positive, _bits),
    st.builds(PreciseReal.log_ratio, _positive, _positive.filter(lambda q: q != 1), _bits),
    st.builds(PreciseReal.log_ratio, _positive, _near_one, st.integers(8, 16)),
)
# a fixed interval with rational endpoints, which every operation rounds outward
_fixed = st.builds(lambda ends, bits: PreciseReal(*ends, bits), _interval, _bits)


def _ends(x) -> tuple[Fraction, Fraction]:
    return (x.lower, x.upper) if isinstance(x, PreciseReal) else (Fraction(x), Fraction(x))


def _hull(values) -> tuple[Fraction, Fraction]:
    return min(values), max(values)


def _assert_encloses(x: PreciseReal, exact: tuple[Fraction, Fraction]):
    assert x.lower <= exact[0] and exact[1] <= x.upper, (x, exact)


# each operation with the exact image of the operands' rational intervals
_BINARY = {
    "+": (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (operator.sub, lambda x, y: (x[0] - y[1], x[1] - y[0])),
    "*": (operator.mul, lambda x, y: _hull([u * v for u in x for v in y])),
    "/": (operator.truediv, lambda x, y: _hull([u / v for u in x for v in y])),
}


@settings(max_examples=300)
@given(
    st.one_of(_computed, _fixed), st.one_of(_rational, _computed, _fixed), st.sampled_from(sorted(_BINARY)), st.booleans()
)
def test_computed_operations_enclose_the_exact_interval_result(x, y, op, swap):
    # the product of two fixed intervals encloses the hull of the four endpoint products
    a, b = (y, x) if swap else (x, y)
    divisor = _ends(b)
    assume(op != "/" or not divisor[0] <= 0 <= divisor[1])
    compute, exact = _BINARY[op]
    _assert_encloses(compute(a, b), exact(_ends(a), divisor))


def _dist_image(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # |t - round(t)| is linear between integers (where it is 0) and
    # half-integers (where it is 1/2)
    half = Fraction(1, 2)
    values = [abs(t - math.floor(t + half)) for t in (lo, hi)]
    if math.ceil(lo) <= hi:
        values.append(Fraction(0))
    if math.ceil(lo - half) <= hi - half:
        values.append(half)
    return _hull(values)


@given(st.one_of(st.builds(operator.mul, _computed, _rational), _fixed))
def test_computed_unary_operations_enclose_the_exact_image(x):
    # a fixed interval's absolute value encloses the hull of its endpoints' absolute values
    lo, hi = x.lower, x.upper
    _assert_encloses(-x, (-hi, -lo))
    _assert_encloses(abs(x), (0 if lo <= 0 <= hi else min(abs(lo), abs(hi)), max(abs(lo), abs(hi))))
    _assert_encloses(x.dist_to_nearest_int(), _dist_image(lo, hi))


def _mpf(q: Fraction, bits: int | None = None, rnd: str = "f") -> tuple:
    # q rounded in direction rnd at bits; by default exactly, for a dyadic q
    exact_bits = abs(q.numerator).bit_length() + 1
    return from_rational(q.numerator, q.denominator, bits or exact_bits, rnd)


def _mpi(x, bits: int) -> tuple:
    # a computed operand's dyadic endpoints, or a rational rounded outward at bits
    if isinstance(x, PreciseReal):
        return _mpf(x.lower), _mpf(x.upper)
    return _mpf(x, bits, "f"), _mpf(x, bits, "c")


def _rationals(interval) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(*map(int, to_rational(end))) for end in interval)


def _mpi_dist(a, bits):
    # the distance to the nearest integer from mpmath's own functions
    k = mpf_floor(mpf_add(a[0], fhalf, bits, "f"))
    shifted = mpi_sub(a, (k, k), bits)
    return (fzero, fhalf) if mpf_lt(fhalf, shifted[1]) else mpi_abs(shifted, bits)


# each row: the operation on PreciseReals and mpmath's interval function (the precision last)
_BINARY_ROWS = {
    "+": (operator.add, mpi_add),
    "-": (operator.sub, mpi_sub),
    "*": (operator.mul, mpi_mul),
    "/": (operator.truediv, mpi_div),
}
_UNARY_ROWS = {
    "neg": (operator.neg, mpi_neg),
    "abs": (abs, mpi_abs),
    "dist": (PreciseReal.dist_to_nearest_int, _mpi_dist),
    "log": (PreciseReal.log, mpi_log),
}


@settings(max_examples=300)
@given(_computed, st.one_of(_rational, _computed), st.sampled_from(sorted(_BINARY_ROWS)), st.booleans())
def test_binary_rows_are_mpmath_on_outward_rounded_operands(x, y, op, swap):
    # two computed operands, or a computed and an exact one on either side:
    # the endpoints are mpmath's at the coarser precision, bit for bit
    a, b = (y, x) if swap else (x, y)
    compute, mpi = _BINARY_ROWS[op]
    assume(op != "/" or not _ends(b)[0] <= 0 <= _ends(b)[1])
    bits = min(x.bits, y.bits) if isinstance(y, PreciseReal) else x.bits
    result = compute(a, b)
    assert (result.lower, result.upper, result.bits) == (*_rationals(mpi(_mpi(a, bits), _mpi(b, bits), bits)), bits)


@settings(max_examples=300)
@given(st.integers(-(2**400), 2**400), st.integers(-(2**400), 2**400), st.integers(1, 512) | st.just(MAX_PRECISION))
def test_integer_ends_round_outward_as_from_rational_rounds_them(m, n, bits):
    # _outward rounds an integer end with from_int, which skips from_rational's division by 1
    lo, hi = sorted((m, n))
    expected = (from_rational(lo, 1, bits, "f"), from_rational(hi, 1, bits, "c"))
    assert precise._outward((Fraction(lo), Fraction(hi)), bits) == expected


@given(_rational, _rational, st.sampled_from(sorted(_BINARY_ROWS)))
def test_binary_rows_on_exact_operands_are_mpmath_at_their_precision(q, r, op):
    # two exact operands round outward at their MAX_PRECISION bits, and the
    # result is computed there: an enclosure, not the exact rational
    assume(op != "/" or r != 0)
    compute, mpi = _BINARY_ROWS[op]
    result = compute(PreciseReal.exact(q), PreciseReal.exact(r))
    expected = _rationals(mpi(_mpi(q, MAX_PRECISION), _mpi(r, MAX_PRECISION), MAX_PRECISION))
    assert result.refinable and (result.lower, result.upper, result.bits) == (*expected, MAX_PRECISION)


@settings(max_examples=200)
@given(_computed, _rational, st.sampled_from(sorted(_UNARY_ROWS)))
def test_unary_rows_are_mpmath_on_outward_rounded_operands(x, q, op):
    compute, mpi = _UNARY_ROWS[op]
    if op == "log":
        assume(x.lower > 0 and q > 0)
    result = compute(x)
    assert (result.lower, result.upper, result.bits) == (*_rationals(mpi(_mpi(x, x.bits), x.bits)), x.bits)
    # an exact operand rounds outward at its MAX_PRECISION bits, except that
    # log of a value that cannot refine works at the default precision
    bits = DEFAULT_PRECISION if op == "log" else MAX_PRECISION
    result = compute(PreciseReal.exact(q))
    assert (result.lower, result.upper, result.bits) == (*_rationals(mpi(_mpi(q, bits), bits)), bits)


@given(st.one_of(_computed, _rational.map(PreciseReal.exact)))
def test_upper_float_rounds_the_upper_end(x):
    up = upper_float(x)
    assert Fraction(up) >= x.upper and Fraction(math.nextafter(up, -math.inf)) < x.upper


@pytest.mark.parametrize(
    "x, expected",
    [
        (Fraction(10**400), math.inf),
        (-Fraction(10**400), -sys.float_info.max),
        (Fraction(1, 10**400), 5e-324),
        (-Fraction(1, 10**400), -0.0),
        (Fraction(3, 2**1080), 5e-324),
        (Fraction(1, 3), 0.33333333333333337),
        (Fraction(-1, 3), -0.3333333333333333),
        (hp_exp(1000, 64), math.inf),
        (-hp_exp(1000, 64), -sys.float_info.max),
        (hp_exp(-1000, 64), 5e-324),
        (-hp_exp(-1000, 64), -0.0),
    ],
)
def test_upper_float_rounds_up_past_float_range(x, expected):
    # overflow gives +inf, or the largest float below a huge negative value;
    # a tiny positive value rounds up to the least subnormal, not to 0.0
    assert upper_float(x) == expected


def test_immutability():
    x = hp_log(2)
    with pytest.raises(AttributeError):
        x.lower = Fraction(0)
