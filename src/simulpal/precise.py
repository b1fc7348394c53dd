"""Certified real arithmetic: enclosures with on-demand precision escalation.

A :class:`PreciseReal` is an interval certified to contain one real number:
an exact value has rational endpoints, a computed one has dyadic endpoints
(raw mpmath ``mpf`` tuples) and a recipe to recompute them at any precision.
Every operation, comparisons and floor included, is a row of one table: an
exact formula on rationals, used when every operand is exact, and an mpmath
interval function (``mpi_add``, ``mpi_log``, ...) at the result's precision,
used otherwise with an exact operand rounded outward.  Log and exp have no
exact formula, so their results are always computed.  ``_apply`` alone picks
the endpoints and ``_compose`` alone builds a result and its recipe.
Undecided comparisons refine the operands instead of guessing, and raise if
certainty is unreachable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from mpmath.libmp import fhalf, from_rational, fzero, mpf_add, mpf_floor, mpf_lt, mpf_sign
from mpmath.libmp import mpi_abs, mpi_add, mpi_div, mpi_exp, mpi_gt, mpi_log, mpi_mul, mpi_neg
from mpmath.libmp import mpi_sub, to_float, to_int, to_rational, to_str

from .radix import DomainError, check_int, positive_rational

DEFAULT_PRECISION = 192
MAX_PRECISION = 1 << 16
_PRECISION_RULE = f"precision must be in [1, {MAX_PRECISION}] bits and an int"


class UndecidedComparisonError(ArithmeticError):
    """A comparison stayed undecided at the precision-escalation cap."""


def check_precision(bits: int) -> int:
    """``bits`` if it is an int in [1, MAX_PRECISION], else a DomainError."""
    return check_int(bits, _PRECISION_RULE, 1, MAX_PRECISION)


def _show(x) -> str:
    # a float where one holds the value, else 15 significant digits
    if not isinstance(x, tuple):
        x = from_rational(x.numerator, x.denominator, 53, "n")
    try:
        f = to_float(x, strict=True)
    except OverflowError:
        return to_str(x, 15)
    return repr(f) if f or x == fzero else to_str(x, 15)  # no underflow to 0.0


def _corners(f):
    # the interval spanned by f over the four pairs of endpoints
    def op(a, b):
        values = [f(x, y) for x in a for y in b]
        return min(values), max(values)

    return op


def _exact_abs(a):
    return max(0, a[0], -a[1]), max(-a[0], a[1])


# The distance to the nearest integer shifts by an integer k near the lower
# end, which leaves the lower end at least -1/2; an interval whose upper end
# then passes 1/2 holds a half-integer, and its image is [0, 1/2].
def _exact_dist(a):
    k = math.floor(a[0] + Fraction(1, 2))
    lo, hi = a[0] - k, a[1] - k
    return (0, Fraction(1, 2)) if hi > Fraction(1, 2) else _exact_abs((lo, hi))


def _dyadic_dist(a, bits: int):
    k = mpf_floor(mpf_add(a[0], fhalf, bits, "f"))
    shifted = mpi_sub(a, (k, k), bits)
    return (fzero, fhalf) if mpf_lt(fhalf, shifted[1]) else mpi_abs(shifted, bits)


def _common_floor(floor):
    # the floor both endpoints share, else None (undecided); a precision passed is ignored
    return lambda a, *bits: floor(a[0]) if floor(a[0]) == floor(a[1]) else None


# each operation as its exact formula on rationals, or None where it has none,
# and as an mpmath interval function on mpf tuples, which takes the precision last
_ADD = (lambda a, b: (a[0] + b[0], a[1] + b[1]), mpi_add)
_SUB = (lambda a, b: (a[0] - b[1], a[1] - b[0]), mpi_sub)
_MUL = (_corners(lambda x, y: x * y), mpi_mul)
_DIV = (_corners(lambda x, y: x / y), mpi_div)
_NEG = (lambda a: (-a[1], -a[0]), mpi_neg)
_ABS = (_exact_abs, mpi_abs)
_DIST = (_exact_dist, _dyadic_dist)
_LOG = (None, mpi_log)
_EXP = (None, mpi_exp)
# decisions: True, False, or None while the endpoints overlap
_GT = (lambda a, b: True if a[0] > b[1] else False if a[1] <= b[0] else None, lambda a, b, bits: mpi_gt(a, b))
_FLOOR = (_common_floor(math.floor), _common_floor(lambda q: int(to_int(q, "f"))))  # int(): gmpy's mpz


def _apply(op, operands: tuple["PreciseReal", ...], bits: int):
    # op's exact formula on the rational endpoints if it has one and every
    # operand is exact, else its mpmath function on mpf endpoints at bits
    exact, dyadic = op
    if exact is not None and all(x._source is None for x in operands):
        return exact(*[(x._lo, x._hi) for x in operands])
    return dyadic(*[x._dyadic(bits) for x in operands], bits)


def _compose(op, *operands: "PreciseReal", bits: int | None = None) -> "PreciseReal":
    # op at bits, by default the coarsest precision of its operands; the result
    # refines while an operand does, and always where op has no exact formula
    bits = min(x.bits for x in operands) if bits is None else check_precision(bits)

    def endpoints(b: int) -> tuple:
        return _apply(op, tuple(x.refined(b) for x in operands), b)

    source = endpoints if op[0] is None or any(x.refinable for x in operands) else None
    return PreciseReal(*_apply(op, operands, bits), bits, source)


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
        if source is None:  # fixed endpoints are rationals; computed ones come ordered, at a checked precision
            if bits is not MAX_PRECISION:  # the constant that exact(), a hot path, passes needs no check
                check_precision(bits)
            try:
                lower, upper = Fraction(lower), Fraction(upper)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise DomainError(f"interval endpoints must be rationals, got [{lower!r}, {upper!r}]") from exc
            if lower > upper:
                raise DomainError(f"empty interval [{lower}, {upper}]")
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
        return cls(q, q, MAX_PRECISION)

    @classmethod
    def log_ratio(cls, x, y, bits: int = DEFAULT_PRECISION) -> "PreciseReal":
        """Certified enclosure of log(x)/log(y) for positive rationals, y != 1."""
        what = f"log({x})/log({y}) needs positive x and y, and y != 1"
        if positive_rational(y, what) == 1:
            raise DomainError(what)
        return hp_log(positive_rational(x, what), bits) / hp_log(y, bits)

    # geometry ----------------------------------------------------------

    # rationals, built from mpf endpoints when read (int(): gmpy's mpz)
    lower = property(lambda s: s._lo if s._source is None else Fraction(*map(int, to_rational(s._lo))))
    upper = property(lambda s: s._hi if s._source is None else Fraction(*map(int, to_rational(s._hi))))

    @property
    def refinable(self) -> bool:
        return self._source is not None

    def refined(self, bits: int) -> "PreciseReal":
        """A new enclosure recomputed at ``bits`` precision (self if fixed or
        already as fine); ``bits`` is checked either way."""
        if check_precision(bits) <= self.bits or self._source is None:
            return self
        return PreciseReal(*self._source(bits), bits, self._source)

    def _dyadic(self, bits: int) -> tuple:
        # mpf endpoints at bits: an exact value's are rounded outward
        if self._source is not None:
            return self._lo, self._hi
        lo, hi = self._lo, self._hi
        down = from_rational(lo.numerator, lo.denominator, bits, "f")
        return down, from_rational(hi.numerator, hi.denominator, bits, "c")

    def _signs(self) -> tuple[int, int]:
        sign = mpf_sign if self._source else (lambda q: (q > 0) - (q < 0))
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
        return _compose(_ADD, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _compose(_SUB, self, self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return _compose(_MUL, self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _escalate(
            (self._coerce(other),),
            lambda b: None if b._signs()[0] <= 0 <= b._signs()[1] else b,
            ZeroDivisionError,
            "divisor interval contains zero",
        )
        return _compose(_DIV, self, other)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _compose(_NEG, self)

    def __abs__(self):
        return _compose(_ABS, self)

    def log(self) -> "PreciseReal":
        """Enclosure of the natural logarithm (self must be certainly positive)."""
        me = _escalate(
            (self,),
            lambda a: a if a._signs()[0] > 0 else None,
            DomainError,
            "logarithm of an interval not certainly positive",
        )
        return _compose(_LOG, me, bits=me.bits if me.refinable else DEFAULT_PRECISION)

    def dist_to_nearest_int(self) -> "PreciseReal":
        """Enclosure of the distance from the value to the nearest integer."""
        return _compose(_DIST, self)

    # certified decisions -------------------------------------------------

    def is_greater(self, other) -> bool:
        """Certified strict comparison self > other (ties count as False)."""
        decide = lambda a, b: _apply(_GT, (a, b), min(a.bits, b.bits))
        return _escalate((self, self._coerce(other)), decide, UndecidedComparisonError, "comparison undecided")

    def is_less(self, other) -> bool:
        return self._coerce(other).is_greater(self)

    def floor(self) -> int:
        """Certified floor of the value."""
        return _escalate((self,), lambda a: _apply(_FLOOR, (a,), a.bits), UndecidedComparisonError, "floor undecided")


def hp_log(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the natural logarithm of a positive rational.

    ``hp_log(1)`` is exactly zero with radius zero.
    """
    q = positive_rational(x, f"logarithm of non-positive value {x}")
    return _compose(_LOG, PreciseReal.exact(q), bits=bits)


def hp_exp(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the exponential of a rational: mpmath's
    ``mpi_exp`` of the rational rounded outward.

    A large |x| costs no more than a small one, but reading ``lower`` or
    ``upper`` builds a rational of about 1.44·|x| bits.
    """
    return _compose(_EXP, PreciseReal.exact(x), bits=bits)
