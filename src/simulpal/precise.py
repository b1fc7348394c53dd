"""Certified real arithmetic: enclosures with on-demand precision escalation.

A :class:`PreciseReal` is an interval certified to contain one real number:
an exact value has rational endpoints, a computed one has dyadic endpoints
(raw mpmath ``mpf`` tuples) and a recipe to recompute them at any precision.
Each operation, comparisons and floor included, is one mpmath interval
function (``mpi_add``, ``mpi_log``, ...) at the result's precision; rationals
are only operands, which ``_apply`` rounds outward to it.  So every result is
computed, from exact operands too, and ``_compose`` gives it a recipe and
skips the constructor's checks.  ``upper_float`` rounds an upper end
straight from its dyadic form, with no rational built.  Undecided
comparisons refine the operands instead of guessing, and raise if certainty
is unreachable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

from mpmath.libmp import fhalf, from_float, from_int, from_rational, fzero, mpf_add, mpf_floor, mpf_lt, mpf_sign
from mpmath.libmp import mpi_abs, mpi_add, mpi_div, mpi_exp, mpi_gt, mpi_log, mpi_mul, mpi_neg
from mpmath.libmp import mpi_sub, to_float, to_int, to_rational, to_str

from .radix import DomainError, check_int, positive_rational, shown

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


# The distance to the nearest integer shifts by an integer k near the lower
# end, which leaves the lower end at least -1/2; an interval whose upper end
# then passes 1/2 holds a half-integer, and its image is [0, 1/2].
def _dyadic_dist(a, bits: int):
    k = mpf_floor(mpf_add(a[0], fhalf, bits, "f"))
    shifted = mpi_sub(a, (k, k), bits)
    return (fzero, fhalf) if mpf_lt(fhalf, shifted[1]) else mpi_abs(shifted, bits)


# decisions: True, False, or None while the endpoints overlap; the precision is unused
_gt = lambda a, b, bits: mpi_gt(a, b)


def _floor(a, bits: int):
    lo, hi = (int(to_int(end, "f")) for end in a)  # int(): gmpy's mpz
    return lo if lo == hi else None


_BITS = attrgetter("bits")


def _round(q: Fraction, bits: int, rnd: str) -> tuple:
    # q correctly rounded to bits in direction rnd; an integer needs no division by 1
    n, d = q.numerator, q.denominator
    return from_int(n, bits, rnd) if d == 1 else from_rational(n, d, bits, rnd)


def _outward(ends: tuple[Fraction, Fraction], bits: int) -> tuple:
    return _round(ends[0], bits, "f"), _round(ends[1], bits, "c")


def _apply(op, operands: tuple["PreciseReal", ...], bits: int):
    # op, an mpmath interval function that takes the precision last, on the
    # mpf endpoints at bits, with an exact operand's endpoints rounded outward
    return op(*[x._ends if x._source else _outward(x._ends, bits) for x in operands], bits)


def _compose(op, *operands: "PreciseReal", bits: int | None = None) -> "PreciseReal":
    # op at bits, a checked precision, by default the coarsest of its operands';
    # the result refines as its operands do, and toward a fixed operand's value
    bits = bits or min(map(_BITS, operands))

    def endpoints(b: int) -> tuple:
        return _apply(op, tuple([x.refined(b) for x in operands]), b)

    return _make(_apply(op, operands, bits), bits, endpoints)


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


def _fractions(lower, upper) -> tuple[Fraction, Fraction]:
    try:
        return Fraction(lower), Fraction(upper)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"interval endpoints must be rationals, got [{lower!r}, {upper!r}]") from exc


class PreciseReal:
    """An interval [lower, upper] certified to contain one real number.

    The constructor takes the rational endpoints of a fixed value.  Computed
    values come only from operations, ``hp_log`` and ``hp_exp``, and keep a
    ``_source`` that recomputes their mpf tuple endpoints at any precision.
    """

    __slots__ = ("_ends", "bits", "_source")

    def __init__(self, lower, upper, bits: int):
        check_precision(bits)
        ends = _fractions(lower, upper)
        if ends[0] > ends[1]:
            raise DomainError(f"empty interval [{shown(lower)}, {shown(upper)}]")
        _set_ends(self, ends)
        _set_bits(self, bits)
        _set_source(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("PreciseReal is immutable; use refined() for new precision")

    # construction -----------------------------------------------------

    @classmethod
    def exact(cls, q) -> "PreciseReal":
        """A rational value, enclosed with radius zero."""
        q = q if type(q) is Fraction else _fractions(q, q)[0]
        return _make((q, q), MAX_PRECISION, None)

    @classmethod
    def log_ratio(cls, x, y, bits: int = DEFAULT_PRECISION) -> "PreciseReal":
        """Certified enclosure of log(x)/log(y) for positive rationals, y != 1."""
        what = "log({})/log({}) needs positive x and y, and y != 1"
        if positive_rational(y, what, x, y) == 1:
            raise DomainError(what.format(x, y))
        return hp_log(positive_rational(x, what, x, y), bits) / hp_log(y, bits)

    # geometry ----------------------------------------------------------

    # rationals, built from mpf endpoints when read (int(): gmpy's mpz)
    lower = property(lambda s: s._ends[0] if s._source is None else Fraction(*map(int, to_rational(s._ends[0]))))
    upper = property(lambda s: s._ends[1] if s._source is None else Fraction(*map(int, to_rational(s._ends[1]))))

    @property
    def refinable(self) -> bool:
        return self._source is not None

    def refined(self, bits: int) -> "PreciseReal":
        """A new enclosure recomputed at ``bits`` precision (self if fixed or
        already as fine); ``bits`` is checked either way."""
        if check_precision(bits) <= self.bits or self._source is None:
            return self
        return _make(self._source(bits), bits, self._source)

    def _signs(self) -> tuple[int, int]:
        sign = mpf_sign if self._source else (lambda q: (q > 0) - (q < 0))
        return sign(self._ends[0]), sign(self._ends[1])

    def __repr__(self):
        return f"PreciseReal([{_show(self._ends[0])}, {_show(self._ends[1])}], bits={self.bits})"

    # interval ring operations -------------------------------------------

    @staticmethod
    def _coerce(x) -> "PreciseReal":
        return x if isinstance(x, PreciseReal) else PreciseReal.exact(x)

    def __add__(self, other):
        return _compose(mpi_add, self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _compose(mpi_sub, self, self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return _compose(mpi_mul, self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        decide = lambda b: None if b._signs()[0] <= 0 <= b._signs()[1] else b
        other = _escalate((self._coerce(other),), decide, ZeroDivisionError, "divisor interval contains zero")
        return _compose(mpi_div, self, other)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _compose(mpi_neg, self)

    def __abs__(self):
        return _compose(mpi_abs, self)

    def log(self) -> "PreciseReal":
        """Enclosure of the natural logarithm (self must be certainly positive)."""
        decide = lambda a: a if a._signs()[0] > 0 else None
        me = _escalate((self,), decide, DomainError, "logarithm of an interval not certainly positive")
        return _compose(mpi_log, me, bits=me.bits if me.refinable else DEFAULT_PRECISION)

    def dist_to_nearest_int(self) -> "PreciseReal":
        """Enclosure of the distance from the value to the nearest integer."""
        return _compose(_dyadic_dist, self)

    # certified decisions -------------------------------------------------

    def is_greater(self, other) -> bool:
        """Certified strict comparison self > other.  A tie is False between
        equal dyadic points (1/4 and 1/4); equal exact values that are not
        dyadic (1/3 and 1/3) round outward to overlapping enclosures, which
        raises UndecidedComparisonError."""
        decide = lambda a, b: _apply(_gt, (a, b), min(a.bits, b.bits))
        return _escalate((self, self._coerce(other)), decide, UndecidedComparisonError, "comparison undecided")

    def is_less(self, other) -> bool:
        return self._coerce(other).is_greater(self)

    def floor(self) -> int:
        """Certified floor of the value."""
        return _escalate((self,), lambda a: _apply(_floor, (a,), a.bits), UndecidedComparisonError, "floor undecided")


_set_ends, _set_bits, _set_source = (getattr(PreciseReal, name).__set__ for name in PreciseReal.__slots__)


def _make(ends: tuple, bits: int, source) -> PreciseReal:
    # a result with ordered endpoints at a checked precision, built without __init__'s checks
    x = object.__new__(PreciseReal)
    _set_ends(x, ends)
    _set_bits(x, bits)
    _set_source(x, source)
    return x


def upper_float(x) -> float:
    """The least float at or above the upper end of ``x``, a PreciseReal or a
    rational: an upper bound of the value, +inf past float range."""
    hi = PreciseReal._coerce(x)._ends[1]
    if not isinstance(hi, tuple):
        hi = from_rational(hi.numerator, hi.denominator, 53, "c")
    f = to_float(hi, rnd="c")  # exact unless it over- or underflows, where it may fall below hi
    return math.nextafter(f, math.inf) if mpf_lt(from_float(f), hi) else f


def hp_log(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the natural logarithm of a positive rational.

    ``hp_log(1)`` is exactly zero with radius zero.
    """
    q = positive_rational(x, "logarithm of non-positive value {}", x)
    return _compose(mpi_log, PreciseReal.exact(q), bits=check_precision(bits))


def hp_exp(x, bits: int = DEFAULT_PRECISION) -> PreciseReal:
    """Certified enclosure of the exponential of a rational: mpmath's
    ``mpi_exp`` of the rational rounded outward.

    A large |x| costs no more than a small one, but reading ``lower`` or
    ``upper`` builds a rational of about 1.44·|x| bits.
    """
    return _compose(mpi_exp, PreciseReal.exact(x), bits=check_precision(bits))
