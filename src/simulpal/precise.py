"""Certified real arithmetic: enclosures with on-demand precision escalation.

A :class:`PreciseReal` is an interval certified to contain one real number.
An exact value keeps rational endpoints, and arithmetic among exact values
is exact.  A computed value has a recipe to recompute it at any precision
and dyadic endpoints, raw mpmath ``mpf`` tuples, which every operation rounds
outward at the result's precision, after rounding any exact operand outward
to it.  Logarithms and exponentials come from mpmath's interval context
through the one bridge :func:`_enclosure`.  Undecided comparisons refine
the operands instead of guessing, and raise if certainty is unreachable.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Callable

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import fhalf, from_int, from_rational, mpf_add, mpf_div, mpf_mul, mpf_neg
from mpmath.libmp import mpf_sign, mpf_sub, to_float, to_int, to_rational, to_str

DEFAULT_PRECISION = 192
MAX_PRECISION = 1 << 16


class UndecidedComparisonError(ArithmeticError):
    """A comparison stayed undecided at the precision-escalation cap."""


def check_precision(bits: int) -> None:
    """Reject a working precision outside [1, MAX_PRECISION] bits."""
    if not 1 <= bits <= MAX_PRECISION:
        raise ValueError(f"precision must be in [1, {MAX_PRECISION}] bits, got {bits}")


@lru_cache(maxsize=None)
def _context(bits: int) -> MPIntervalContext:
    check_precision(bits)
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def _interval(ctx: MPIntervalContext, q: Fraction):
    # an interval at ctx's precision enclosing the rational q
    if q.denominator == 1:
        return ctx.mpf(q.numerator)
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def _enclosure(f: Callable[[MPIntervalContext], object], bits: int) -> "PreciseReal":
    """The value enclosed at every precision b by the mpmath interval
    ``f(ctx)``, where ctx is the interval context of precision b.

    This is the one bridge from mpmath: every logarithm and exponential
    passes through it, at ``bits`` now and on each refinement.
    """

    def endpoints(b: int) -> tuple:
        return f(_context(b))._mpi_

    return PreciseReal(*endpoints(bits), bits, endpoints)


def _show(x) -> str:
    # a float where one holds the value, else 15 significant digits
    if not isinstance(x, tuple):
        x = from_rational(x.numerator, x.denominator, 53, "n")
    try:
        return repr(to_float(x, strict=True))
    except OverflowError:
        return to_str(x, 15)


class _Rational:
    """Interval formulas (the methods ending in ``_``) on (lo, hi) endpoint
    pairs, over primitives that round as told ("f" down, "c" up).  Here the
    endpoints are rationals and the primitives exact; :class:`_Dyadic`
    overrides the primitives to round mpf tuples."""

    add, sub, mul, div = (
        staticmethod(lambda x, y, _rnd, f=f: f(x, y))
        for f in (operator.add, operator.sub, operator.mul, operator.truediv)
    )
    neg, floor, of, half = operator.neg, math.floor, Fraction, Fraction(1, 2)
    sign = staticmethod(lambda x: (x > 0) - (x < 0))

    def add_(self, a, b):
        return self.add(a[0], b[0], "f"), self.add(a[1], b[1], "c")

    def sub_(self, a, b):
        return self.sub(a[0], b[1], "f"), self.sub(a[1], b[0], "c")

    def neg_(self, a):
        return self.neg(a[1]), self.neg(a[0])

    def hull(self, f, a, b):
        # the least of the four f(x, y) rounded down, the greatest rounded up
        order = cmp_to_key(lambda x, y: self.sign(self.sub(x, y, "f")))
        pairs = [(x, y) for x in a for y in b]
        return min([f(*p, "f") for p in pairs], key=order), max([f(*p, "c") for p in pairs], key=order)

    def mul_(self, a, b):
        if self.sign(a[0]) >= 0 and self.sign(b[0]) >= 0:
            return self.mul(a[0], b[0], "f"), self.mul(a[1], b[1], "c")
        return self.hull(self.mul, a, b)

    def div_(self, a, b):
        if self.sign(b[0]) <= 0 <= self.sign(b[1]):
            raise ZeroDivisionError("divisor interval contains zero")
        if self.sign(a[0]) >= 0 and self.sign(b[0]) > 0:
            return self.div(a[0], b[1], "f"), self.div(a[1], b[0], "c")
        return self.hull(self.div, a, b)

    def abs_(self, a):
        lo, hi = a
        if self.sign(lo) >= 0:
            return lo, hi
        if self.sign(hi) <= 0:
            return self.neg(hi), self.neg(lo)
        return self.of(0), self.neg(lo) if self.sign(self.add(lo, hi, "f")) < 0 else hi

    def dist_(self, a):
        # shift by the integer k nearest the lower end; an interval that then
        # leaves [-1/2, 1/2] holds a half-integer, and its image is [0, 1/2]
        k = self.of(self.floor(self.add(a[0], self.half, "f")))
        lo, hi = self.sub(a[0], k, "f"), self.sub(a[1], k, "c")
        if self.sign(self.add(lo, self.half, "f")) < 0 or self.sign(self.sub(hi, self.half, "c")) > 0:
            return self.of(0), self.half
        return self.abs_((lo, hi))


class _Dyadic(_Rational):
    """The formulas on raw mpf tuples, rounding each result to ``bits``, which
    keeps its sign: the sign of a difference decides an order."""

    neg, sign, of = map(staticmethod, (mpf_neg, mpf_sign, from_int))
    floor, half = staticmethod(lambda x: int(to_int(x, "f"))), fhalf  # int(): gmpy's mpz

    def __init__(self, bits: int):
        self.bits = bits
        self.add, self.sub, self.mul, self.div = (
            lambda x, y, rnd, f=f: f(x, y, bits, rnd) for f in (mpf_add, mpf_sub, mpf_mul, mpf_div)
        )

    def endpoints(self, x: "PreciseReal") -> tuple:
        # an exact value's are rounded outward to bits
        if x._source is not None:
            return x._lo, x._hi
        outward = ((x._lo, "f"), (x._hi, "c"))
        return tuple(from_rational(q.numerator, q.denominator, self.bits, rnd) for q, rnd in outward)


_RATIONAL = _Rational()
_dyadic = lru_cache(maxsize=None)(_Dyadic)


def _view(operands: tuple["PreciseReal", ...], bits: int) -> tuple:
    # the arithmetic for operands, exact or else at bits, then their endpoints
    if any(x._source is not None for x in operands):
        ar = _dyadic(bits)
        return (ar, *map(ar.endpoints, operands))
    return (_RATIONAL, *((x._lo, x._hi) for x in operands))


def _compose(op, *operands: "PreciseReal") -> "PreciseReal":
    # op at the coarsest precision of its operands, refinable while one is
    bits = min(x.bits for x in operands)

    def endpoints(b: int) -> tuple:
        return op(*_view(tuple(x.refined(b) for x in operands), b))

    source = endpoints if any(x.refinable for x in operands) else None
    return PreciseReal(*op(*_view(operands, bits)), bits, source)


def _escalate(operands: tuple["PreciseReal", ...], decide, error: type[Exception], what: str):
    """Apply ``decide`` to finer and finer enclosures of ``operands`` until it
    returns something other than None, and return that.

    Each round recomputes every refinable operand at twice the precision of
    the finest one, capped at ``MAX_PRECISION``; once no operand can be
    refined further, ``error`` is raised with ``what`` and the last enclosures.
    """
    while True:
        verdict = decide(*operands)
        if verdict is not None:
            return verdict
        refinable_bits = [x.bits for x in operands if x.refinable]
        if not refinable_bits or min(refinable_bits) >= MAX_PRECISION:
            raise error(f"{what}: " + " vs ".join(map(repr, operands)))
        bits = min(max(refinable_bits) * 2, MAX_PRECISION)
        operands = tuple(x.refined(bits) for x in operands)


class PreciseReal:
    """An interval [lower, upper] certified to contain one real number.

    A ``source`` maps a precision to mpf tuple endpoints at that precision;
    without one the value is fixed, with rational endpoints.
    """

    __slots__ = ("_lo", "_hi", "bits", "_source")

    def __init__(self, lower, upper, bits: int, source: Callable[[int], tuple] | None = None):
        if source is None and lower > upper:  # computed endpoints come ordered
            raise ValueError(f"empty interval [{lower}, {upper}]")
        object.__setattr__(self, "_lo", lower)
        object.__setattr__(self, "_hi", upper)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_source", source)

    def __setattr__(self, name, value):
        raise AttributeError("PreciseReal is immutable; use refined() for new precision")

    # construction -----------------------------------------------------

    @classmethod
    def exact(cls, q) -> "PreciseReal":
        """A rational value, enclosed with radius zero."""
        q = Fraction(q)
        return cls(q, q, MAX_PRECISION)

    @classmethod
    def log_ratio(cls, x, y, bits: int = DEFAULT_PRECISION) -> "PreciseReal":
        """Certified enclosure of log(x)/log(y) for positive rationals, y != 1."""
        x = Fraction(x)
        y = Fraction(y)
        if x <= 0 or y <= 0 or y == 1:
            raise ValueError(f"log({x})/log({y}) needs positive x and y, and y != 1")
        return _enclosure(lambda ctx: ctx.log(_interval(ctx, x)) / ctx.log(_interval(ctx, y)), bits)

    # geometry ----------------------------------------------------------

    # rationals, built from mpf endpoints when read (int(): gmpy's mpz)
    lower = property(lambda s: s._lo if s._source is None else Fraction(*map(int, to_rational(s._lo))))
    upper = property(lambda s: s._hi if s._source is None else Fraction(*map(int, to_rational(s._hi))))

    @property
    def refinable(self) -> bool:
        return self._source is not None

    def refined(self, bits: int) -> "PreciseReal":
        """A new enclosure recomputed at ``bits`` precision (self if fixed)."""
        if self._source is None or bits <= self.bits:
            return self
        return PreciseReal(*self._source(bits), bits, self._source)

    def _signs(self) -> tuple[int, int]:
        sign = _RATIONAL.sign if self._source is None else mpf_sign
        return sign(self._lo), sign(self._hi)

    def __repr__(self):
        return f"PreciseReal([{_show(self._lo)}, {_show(self._hi)}], bits={self.bits})"

    # interval ring operations -------------------------------------------

    @staticmethod
    def _coerce(x) -> "PreciseReal":
        if isinstance(x, PreciseReal):
            return x
        return PreciseReal.exact(x)

    def __add__(self, other):
        return _compose(_Rational.add_, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _compose(_Rational.sub_, self, self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return _compose(_Rational.mul_, self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _escalate(
            (self._coerce(other),),
            lambda b: None if b._signs()[0] <= 0 <= b._signs()[1] else b,
            ZeroDivisionError,
            "divisor interval contains zero",
        )
        return _compose(_Rational.div_, self, other)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _compose(_Rational.neg_, self)

    def __abs__(self):
        return _compose(_Rational.abs_, self)

    def log(self) -> "PreciseReal":
        """Enclosure of the natural logarithm (self must be certainly positive)."""
        me = _escalate(
            (self,),
            lambda a: a if a._signs()[0] > 0 else None,
            ValueError,
            "logarithm of an interval not certainly positive",
        )

        # log is increasing, so one log of the hull [lower, upper], an exact
        # value rounded outward, has the endpoints hp_log gives each end
        def hull_log(ctx: MPIntervalContext):
            return ctx.log(ctx.make_mpf(_dyadic(ctx.prec).endpoints(me.refined(ctx.prec))))

        return _enclosure(hull_log, me.bits if me.refinable else DEFAULT_PRECISION)

    def dist_to_nearest_int(self) -> "PreciseReal":
        """Enclosure of the distance from the value to the nearest integer."""
        return _compose(_Rational.dist_, self)

    # certified decisions -------------------------------------------------

    def is_greater(self, other) -> bool:
        """Certified strict comparison self > other (ties count as False)."""

        def decided(a, b):
            ar, (alo, ahi), (blo, bhi) = _view((a, b), min(a.bits, b.bits))
            if ar.sign(ar.sub(alo, bhi, "f")) > 0:
                return True
            if ar.sign(ar.sub(ahi, blo, "f")) <= 0:
                return False
            return None

        return _escalate((self, self._coerce(other)), decided, UndecidedComparisonError, "comparison undecided")

    def is_less(self, other) -> bool:
        return self._coerce(other).is_greater(self)

    def floor(self) -> int:
        """Certified floor of the value."""

        def decided(a):
            ar, (lo, hi) = _view((a,), a.bits)
            flo = ar.floor(lo)
            return flo if flo == ar.floor(hi) else None

        return _escalate((self,), decided, UndecidedComparisonError, "floor undecided")


def hp_log(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the natural logarithm of a positive rational.

    ``hp_log(1)`` is exactly zero with radius zero.
    """
    q = Fraction(x)
    if q <= 0:
        raise ValueError(f"logarithm of non-positive value {q}")
    return _enclosure(lambda ctx: ctx.log(_interval(ctx, q)), bits)


def hp_exp(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the exponential of a rational.

    A large |x| costs no more than a small one, but reading ``lower`` or
    ``upper`` builds a rational of about 1.44·|x| bits, and so does the
    ``value`` of :func:`simulpal.bounds.laurent_lower_bound`.
    """
    q = Fraction(x)
    return _enclosure(lambda ctx: ctx.exp(_interval(ctx, q)), bits)
