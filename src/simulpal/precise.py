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

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PRECISION = 192
MAX_PRECISION = 1 << 16

_Endpoints = tuple[Fraction, Fraction]


class UndecidedComparisonError(ArithmeticError):
    """A comparison stayed undecided at the precision-escalation cap."""


_contexts: dict[int, MPIntervalContext] = {}


def _context(bits: int) -> MPIntervalContext:
    ctx = _contexts.get(bits)
    if ctx is None:
        if not 1 <= bits <= MAX_PRECISION:
            raise ValueError(f"precision must be in [1, {MAX_PRECISION}] bits, got {bits}")
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


def _log_endpoints(q: Fraction, bits: int) -> _Endpoints:
    if q <= 0:
        raise ValueError(f"logarithm of non-positive value {q}")
    if q == 1:
        return Fraction(0), Fraction(0)
    ctx = _context(bits)
    enc = ctx.log(ctx.mpf(q.numerator) / ctx.mpf(q.denominator))
    return _interval_endpoints(enc)


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
            num = ctx.log(ctx.mpf(x.numerator) / ctx.mpf(x.denominator))
            den = ctx.log(ctx.mpf(y.numerator) / ctx.mpf(y.denominator))
            return _interval_endpoints(num / den)

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
        return f"PreciseReal([{float(self.lower)!r}, {float(self.upper)!r}], bits={self.bits})"

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
        other = self._coerce(other)
        while other.lower <= 0 <= other.upper:
            if not other.refinable or other.bits >= MAX_PRECISION:
                raise ZeroDivisionError("divisor interval contains zero")
            other = other.refined(min(other.bits * 2, MAX_PRECISION))
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
        me = self
        while me.lower <= 0:
            if not me.refinable or me.bits >= MAX_PRECISION:
                raise ValueError("logarithm of an interval not certainly positive")
            me = me.refined(min(me.bits * 2, MAX_PRECISION))

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

    def _escalate_against(self, other: "PreciseReal", decided) -> bool:
        a, b = self, other
        while True:
            verdict = decided(a, b)
            if verdict is not None:
                return verdict
            refinable_bits = [x.bits for x in (a, b) if x.refinable]
            if not refinable_bits or min(refinable_bits) >= MAX_PRECISION:
                raise UndecidedComparisonError(
                    f"comparison undecided: [{float(a.lower)}, {float(a.upper)}] "
                    f"vs [{float(b.lower)}, {float(b.upper)}]"
                )
            bits = min(max(refinable_bits) * 2, MAX_PRECISION)
            a = a.refined(bits)
            b = b.refined(bits)

    def is_greater(self, other) -> bool:
        """Certified strict comparison self > other (ties count as False)."""
        other = self._coerce(other)

        def decided(a, b):
            if a.lower > b.upper:
                return True
            if a.upper <= b.lower:
                return False
            return None

        return self._escalate_against(other, decided)

    def is_less(self, other) -> bool:
        return self._coerce(other).is_greater(self)

    def floor(self) -> int:
        """Certified floor of the value."""
        me = self
        while True:
            flo = me.lower.__floor__()
            fhi = me.upper.__floor__()
            if flo == fhi:
                return flo
            if not me.refinable or me.bits >= MAX_PRECISION:
                raise UndecidedComparisonError(
                    f"floor undecided at {me.bits} bits: [{float(me.lower)}, {float(me.upper)}]"
                )
            me = me.refined(min(me.bits * 2, MAX_PRECISION))


def hp_log(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the natural logarithm of a positive rational.

    ``hp_log(1)`` is exactly zero with radius zero.
    """
    q = Fraction(x)
    if q <= 0:
        raise ValueError(f"logarithm requires a positive argument, got {x!r}")
    if q == 1:
        return PreciseReal.exact(0)
    return PreciseReal(*_log_endpoints(q, bits), bits, lambda b: _log_endpoints(q, b))


def hp_exp(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the exponential of a rational."""
    q = Fraction(x)
    if q == 0:
        return PreciseReal.exact(1)

    def compute(b: int) -> _Endpoints:
        ctx = _context(b)
        return _interval_endpoints(ctx.exp(ctx.mpf(q.numerator) / ctx.mpf(q.denominator)))

    return PreciseReal(*compute(bits), bits, compute)
