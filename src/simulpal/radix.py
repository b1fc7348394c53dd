"""Arbitrary-precision digit expansion, digit reversal and palindrome tests.

All digit work is done in exact integer arithmetic (repeated division and
comparison against powers of the base); floating logarithms are never used,
so there are no boundary errors at exact powers of the base.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_BASE = 2
MAX_BASE = 2**32 - 1


class InvalidBaseError(ValueError):
    """Base outside the supported range [2, 2**32 - 1]."""


class InvalidDigitError(ValueError):
    """A digit is negative or not less than the base."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


def check_base(g: int) -> None:
    if not isinstance(g, int) or g < MIN_BASE or g > MAX_BASE:
        raise InvalidBaseError(f"base must be an integer in [{MIN_BASE}, {MAX_BASE}], got {g!r}")


@dataclass(frozen=True)
class DigitString:
    """Positional expansion of a non-negative integer.

    ``digits`` is least-significant first; the most-significant digit (the
    last element) is nonzero except for the value 0, which is ``(0,)``.
    External renderings (see :meth:`render`) are most-significant first.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        check_base(self.base)
        if not self.digits:
            raise InvalidDigitError("digit string must be nonempty")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise InvalidDigitError(f"digit {d} out of range for base {self.base}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise InvalidDigitError("most-significant digit must be nonzero")

    def __len__(self) -> int:
        return len(self.digits)

    def render(self, sep: str = ".") -> str:
        """Most-significant-first rendering; digits joined by ``sep`` for bases > 10."""
        msf = self.digits[::-1]
        if self.base <= 10:
            return "".join(str(d) for d in msf)
        return sep.join(str(d) for d in msf)


def digits(n: int, g: int) -> DigitString:
    """Expand ``n >= 0`` in base ``g``, least-significant digit first.

    >>> digits(585, 2).digits
    (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    >>> digits(0, 2).digits
    (0,)
    >>> digits(10, 10).digits
    (0, 1)
    """
    check_base(g)
    if n < 0:
        raise DomainError(f"cannot expand negative integer {n}")
    if n == 0:
        return DigitString(g, (0,))
    ds = []
    while n:
        n, d = divmod(n, g)
        ds.append(d)
    return DigitString(g, tuple(ds))


def value(d: DigitString) -> int:
    """Evaluate a digit string back to the integer it represents.

    >>> value(DigitString(10, (0, 1)))
    10
    >>> value(DigitString(2, (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)))
    585
    """
    n = 0
    for dig in reversed(d.digits):
        n = n * d.base + dig
    return n


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
    if a < 1:
        raise DomainError("digit reversal is defined for positive integers only")
    return _reverse(a, g)


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
    # n has k + 1 base-h digits and p == h**k.  The i-th highest digit comes
    # from dividing a running upper remainder by p (the power is divided
    # down, never re-exponentiated), the i-th lowest from reducing a running
    # lower remainder mod h.  Base 2 compares the binary string with its
    # reversal instead, which is cheaper than any loop over the bits.
    if h == 2:
        s = bin(n)
        return s[2:] == s[:1:-1]
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
    if n < 1:
        raise DomainError("palindrome test is defined for positive integers only")
    k = digit_count(n, g) - 1
    return _mirror_test(n, g, k, g**k)


# the name under which the search and the certification scan call the test
is_palindrome_early_exit = is_palindrome


def digit_count(n: int, g: int) -> int:
    """Number of base-``g`` digits of ``n >= 1``, by exact power comparison.

    >>> digit_count(1023, 2), digit_count(1024, 2)
    (10, 11)
    >>> digit_count(585585, 10)
    6
    """
    check_base(g)
    if n < 1:
        raise DomainError("digit count is defined for positive integers only")
    if g == 2:
        return n.bit_length()
    k = 1
    p = g
    while p <= n:
        p *= g
        k += 1
    return k
