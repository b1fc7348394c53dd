"""Certified real arithmetic: enclosures with on-demand precision escalation.

A :class:`PreciseReal` carries exact dyadic/rational endpoints enclosing the
true value, the working precision that produced them, and (when the value
is not exactly representable) a recipe to recompute the enclosure at higher
precision.  Ring operations on endpoints are exact; only logarithms round,
outward, via mpmath's interval context.  Comparisons whose outcome the
current enclosures do not determine refine the operands instead of
guessing, and raise if certainty is unreachable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from mpmath import mpf, nstr
from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PRECISION = 192
MAX_PRECISION = 1 << 16

_Endpoints = tuple[Fraction, Fraction]


class UndecidedComparisonError(ArithmeticError):
    """A comparison stayed undecided at the precision-escalation cap."""


_contexts: dict[int, MPIntervalContext] = {}


def check_precision(bits: int) -> None:
    """Reject a working precision outside [1, MAX_PRECISION] bits."""
    if not 1 <= bits <= MAX_PRECISION:
        raise ValueError(f"precision must be in [1, {MAX_PRECISION}] bits, got {bits}")


def _context(bits: int) -> MPIntervalContext:
    ctx = _contexts.get(bits)
    if ctx is None:
        check_precision(bits)
        ctx = MPIntervalContext()
        ctx.prec = bits
        _contexts[bits] = ctx
    return ctx


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << -exp)


def _interval_endpoints(x) -> _Endpoints:
    lo, hi = x._mpi_
    return _mpf_tuple_to_fraction(lo), _mpf_tuple_to_fraction(hi)


def _interval(ctx: MPIntervalContext, q: Fraction):
    # an interval at ctx's precision enclosing the rational q
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def _log_endpoints(q: Fraction, bits: int) -> _Endpoints:
    if q <= 0:
        raise ValueError(f"logarithm of non-positive value {q}")
    if q == 1:
        return Fraction(0), Fraction(0)
    ctx = _context(bits)
    return _interval_endpoints(ctx.log(_interval(ctx, q)))


def _show(q: Fraction) -> str:
    # a float where one holds the value, else 15 significant digits
    try:
        return repr(float(q))
    except OverflowError:
        return nstr(mpf(q.numerator) / q.denominator, 15)


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
    """An interval [lower, upper] certified to contain one real number."""

    __slots__ = ("lower", "upper", "bits", "_source")

    def __init__(
        self,
        lower: Fraction,
        upper: Fraction,
        bits: int,
        source: Callable[[int], _Endpoints] | None = None,
    ):
        if lower > upper:
            raise ValueError(f"empty interval [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
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

        def compute(b: int) -> _Endpoints:
            ctx = _context(b)
            return _interval_endpoints(ctx.log(_interval(ctx, x)) / ctx.log(_interval(ctx, y)))

        return cls(*compute(bits), bits, compute)

    # geometry ----------------------------------------------------------

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def refinable(self) -> bool:
        return self._source is not None

    def refined(self, bits: int) -> "PreciseReal":
        """A new enclosure recomputed at ``bits`` precision (self if fixed)."""
        if self._source is None or bits <= self.bits:
            return self
        return PreciseReal(*self._source(bits), bits, self._source)

    def __repr__(self):
        return f"PreciseReal([{_show(self.lower)}, {_show(self.upper)}], bits={self.bits})"

    # exact interval ring operations -------------------------------------

    @staticmethod
    def _coerce(x) -> "PreciseReal":
        if isinstance(x, PreciseReal):
            return x
        return PreciseReal.exact(x)

    def _compose(self, other, endpoints) -> "PreciseReal":
        other = self._coerce(other)
        bits = min(self.bits, other.bits)
        if self._source is None and other._source is None:
            return PreciseReal(*endpoints(self, other), bits)

        def src(b: int) -> _Endpoints:
            return endpoints(self.refined(b), other.refined(b))

        return PreciseReal(*endpoints(self, other), bits, src)

    def __add__(self, other):
        return self._compose(other, lambda a, b: (a.lower + b.lower, a.upper + b.upper))

    __radd__ = __add__

    def __sub__(self, other):
        return self._compose(other, lambda a, b: (a.lower - b.upper, a.upper - b.lower))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    @staticmethod
    def _mul_endpoints(a: "PreciseReal", b: "PreciseReal") -> _Endpoints:
        if a.lower >= 0 and b.lower >= 0:
            return a.lower * b.lower, a.upper * b.upper
        ps = (a.lower * b.lower, a.lower * b.upper, a.upper * b.lower, a.upper * b.upper)
        return min(ps), max(ps)

    def __mul__(self, other):
        return self._compose(other, self._mul_endpoints)

    __rmul__ = __mul__

    @staticmethod
    def _div_endpoints(a: "PreciseReal", b: "PreciseReal") -> _Endpoints:
        if b.lower <= 0 <= b.upper:
            raise ZeroDivisionError("divisor interval contains zero")
        ps = (a.lower / b.lower, a.lower / b.upper, a.upper / b.lower, a.upper / b.upper)
        return min(ps), max(ps)

    def __truediv__(self, other):
        other = _escalate(
            (self._coerce(other),),
            lambda b: None if b.lower <= 0 <= b.upper else b,
            ZeroDivisionError,
            "divisor interval contains zero",
        )
        return self._compose(other, self._div_endpoints)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return self._compose(0, lambda a, _b: (-a.upper, -a.lower))

    @staticmethod
    def _abs_endpoints(a: "PreciseReal", _b: "PreciseReal") -> _Endpoints:
        if a.lower >= 0:
            return a.lower, a.upper
        if a.upper <= 0:
            return -a.upper, -a.lower
        return Fraction(0), max(-a.lower, a.upper)

    def __abs__(self):
        return self._compose(0, self._abs_endpoints)

    def log(self) -> "PreciseReal":
        """Enclosure of the natural logarithm (self must be certainly positive)."""
        me = _escalate(
            (self,),
            lambda a: a if a.lower > 0 else None,
            ValueError,
            "logarithm of an interval not certainly positive",
        )

        def compute(b: int) -> _Endpoints:
            a = me.refined(b)
            return _log_endpoints(a.lower, b)[0], _log_endpoints(a.upper, b)[1]

        bits = me.bits if me._source is not None else DEFAULT_PRECISION
        return PreciseReal(*compute(bits), bits, compute)

    def dist_to_nearest_int(self) -> "PreciseReal":
        """Enclosure of the distance from the value to the nearest integer."""

        def endpoints(a: "PreciseReal", _b: "PreciseReal") -> _Endpoints:
            half = Fraction(1, 2)
            if a.upper - a.lower >= 1:
                return Fraction(0), half
            k = (a.midpoint + half).__floor__()
            lo, hi = a.lower - k, a.upper - k
            if lo < -half or hi > half:
                return Fraction(0), half
            if lo >= 0:
                return lo, hi
            if hi <= 0:
                return -hi, -lo
            return Fraction(0), max(-lo, hi)

        return self._compose(0, endpoints)

    # certified decisions -------------------------------------------------

    def is_greater(self, other) -> bool:
        """Certified strict comparison self > other (ties count as False)."""

        def decided(a, b):
            if a.lower > b.upper:
                return True
            if a.upper <= b.lower:
                return False
            return None

        return _escalate((self, self._coerce(other)), decided, UndecidedComparisonError, "comparison undecided")

    def is_less(self, other) -> bool:
        return self._coerce(other).is_greater(self)

    def floor(self) -> int:
        """Certified floor of the value."""

        def decided(a):
            flo = a.lower.__floor__()
            return flo if flo == a.upper.__floor__() else None

        return _escalate((self,), decided, UndecidedComparisonError, "floor undecided")


def hp_log(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the natural logarithm of a positive rational.

    ``hp_log(1)`` is exactly zero with radius zero.
    """
    q = Fraction(x)
    return PreciseReal(*_log_endpoints(q, bits), bits, lambda b: _log_endpoints(q, b))


def hp_exp(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the exponential of a rational."""
    q = Fraction(x)
    if q == 0:
        return PreciseReal.exact(1)

    def compute(b: int) -> _Endpoints:
        ctx = _context(b)
        return _interval_endpoints(ctx.exp(_interval(ctx, q)))

    return PreciseReal(*compute(bits), bits, compute)
