"""Exact digit reversal, digit counts, the early-exit palindrome test and
the split of a range of integers by digit count.

All digit work is done in exact integer arithmetic (repeated division and
comparison against powers of the base); floating logarithms are never used,
so there are no boundary errors at exact powers of the base.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

MIN_BASE = 2
MAX_BASE = 2**32 - 1
_BASE_RULE = f"base must be an integer in [{MIN_BASE}, {MAX_BASE}]"


class DomainError(ValueError):
    """Bad input: an argument outside an operation's domain or preconditions."""


class _Shown(str):
    __repr__ = str.__str__  # the same text under {} and {!r}


def shown(x):
    """``x`` as an error message formats it, except that an int of more than 50 digits,
    alone or in a Fraction, becomes its digit count: ``str`` refuses an int past 4 300.

    >>> shown(-123), f"got {shown(-10**5000)!r}", f"{shown(Fraction(10**60, 3))}"
    (-123, 'got a negative integer of 5001 digits', 'the ratio of an integer of 61 digits to 3')
    """
    if isinstance(x, Fraction):
        n, d = shown(x.numerator), shown(x.denominator)
        return x if n is x.numerator and d is x.denominator else _Shown(f"the ratio of {n} to {d}")
    if not isinstance(x, int) or -(10**50) < x < 10**50:
        return x
    d = (abs(x).bit_length() - 1) * 3 // 10  # 10**d <= |x|, as 10**0.3 < 2
    return _Shown(f"{'a negative' if x < 0 else 'an'} integer of {d + _digit_count(abs(x) // 10**d, 10)} digits")


def check_int(x, what: str, least: int | None = 1, most: int | None = None) -> int:
    """``x`` if it is an ``int`` (not a bool) in [least, most], else a
    :class:`DomainError` with ``what`` and ``x``; a None limit is no limit."""
    if type(x) is not int or (least is not None and x < least) or (most is not None and x > most):
        raise DomainError(f"{what}, got {shown(x)!r}")
    return x


def positive_rational(x, what: str, *args) -> Fraction:
    """``Fraction(x)`` if ``x`` is a positive rational (not NaN, an infinity
    or a string), else a :class:`DomainError` with the message
    ``what.format(*args)``, built only then, each argument :func:`shown`."""
    try:
        q = Fraction(x)
        if q > 0 and not isinstance(x, str):  # Fraction parses a numeric string
            return q
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise DomainError(what.format(*map(shown, args)))


def check_base(g: int) -> int:
    return check_int(g, _BASE_RULE, MIN_BASE, MAX_BASE)


def reverse_in_base(a: int, g: int) -> int:
    """Digit-reversed companion of ``a >= 1`` in base ``g``.

    The result has the same number of digits as ``a`` unless ``a`` has
    trailing zeros in base ``g``, which become leading zeros and vanish;
    hence the operation is an involution exactly when ``g`` does not
    divide ``a``.  Always ``reverse_in_base(a, g) < a * g``.

    >>> reverse_in_base(123, 10)
    321
    >>> reverse_in_base(6, 2)
    3
    >>> reverse_in_base(120, 10)
    21
    """
    check_base(g)
    return _reverse(check_int(a, "digit reversal is defined for positive integers only"), g)


def _reverse(a: int, g: int) -> int:
    # reverse_in_base without the argument checks, for a >= 0.  Base 2
    # reverses the binary string, as _mirror_test does.
    if g == 2:
        return int(bin(a)[:1:-1], 2)
    r = 0
    while a:
        a, d = divmod(a, g)
        r = r * g + d
    return r


def _mirror_test(n: int, h: int, k: int, p: int) -> bool:
    # Reads n < h**(k + 1) as a block of exactly k + 1 base-h digits, leading
    # zeros included (the search tests a number's middle digits so), with
    # p == h**k.  The i-th highest digit comes from dividing a running upper
    # remainder by p (the power is divided down, never re-exponentiated), the
    # i-th lowest from reducing a running lower remainder mod h.  Base 2
    # compares the binary string with its reversal instead, which is cheaper
    # than any loop over the bits; a 1 set above the k + 1 bits keeps their
    # leading zeros.
    if h == 2:
        s = bin(2 * p + n)
        return s[3:] == s[:2:-1]
    top = n
    bot = n
    i = 0
    while i < k - i:
        d_top = top // p
        bot, d_bot = divmod(bot, h)
        if d_top != d_bot:
            return False
        top -= d_top * p
        p //= h
        i += 1
    return True


def is_palindrome(n: int, g: int) -> bool:
    """True iff ``n >= 1`` equals its digit-reversed companion in base ``g``.

    Walks the digit string from both ends at once and stops at the first
    mismatch.

    >>> is_palindrome(585, 2)
    True
    >>> is_palindrome(717, 10)
    True
    >>> is_palindrome(10, 10)
    False
    """
    check_int(n, "palindrome test is defined for positive integers only")
    k = _digit_count(n, check_base(g)) - 1
    return _mirror_test(n, g, k, g**k)


def digit_count(n: int, g: int) -> int:
    """Number of base-``g`` digits of ``n >= 1``, by exact power comparison.

    >>> digit_count(1023, 2), digit_count(1024, 2)
    (10, 11)
    >>> digit_count(585585, 10)
    6
    """
    check_base(g)
    return _digit_count(check_int(n, "digit count is defined for positive integers only"), g)


def _digit_count(n: int, g: int) -> int:
    # digit_count without the argument checks
    if g == 2:
        return n.bit_length()
    k = 1
    p = g
    while p <= n:
        p *= g
        k += 1
    return k


def length_ranges(g: int, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """The integers of [lo, hi] split by their number of base-``g`` digits.

    Yields ``(d, first, last)`` per digit length ``d``, ascending, where
    [first, last] are the integers of [lo, hi] with ``d`` digits; nothing
    when ``lo > hi``.  Requires ``lo >= 1`` and an integer ``hi``.

    >>> list(length_ranges(10, 95, 1234))
    [(2, 95, 99), (3, 100, 999), (4, 1000, 1234)]
    """
    d = digit_count(lo, g)
    check_int(hi, "upper end must be an integer", None)
    end = g**d
    while lo <= hi:
        yield d, lo, min(end - 1, hi)
        lo = end
        end *= g
        d += 1
