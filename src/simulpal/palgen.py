"""Enumeration and exact counts of palindromes in a given base.

Palindromes are generated from their half-values by mirroring, never by
scanning all integers, so enumeration over a range costs time proportional
to the number of palindromes produced.  The module also builds the
structured family N = a*g**n + rev(a): a base-g palindrome consisting of
the digits of ``a``, a run of zeros, and the reversed digits of ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .radix import DomainError, _digit_count, _reverse, check_base, check_int, length_ranges, shown


def _mirror(half: int, g: int, half_len: int, odd: bool) -> int:
    # the palindrome whose top half_len digits are half (half >= 1; for odd
    # length its last digit is the middle one), without argument checks
    return (half // g if odd else half) * g**half_len + _reverse(half, g)


def _halves(g: int, d: int, first: int, last: int) -> range:
    # the halves whose palindromes lie in [first, last], both d-digit: a
    # d-digit palindrome's top (d + 1) // 2 digits are its half, so each end
    # takes the half of its own top digits, moved one inward when that
    # half's palindrome falls outside
    p = g ** (d // 2)
    t, odd = (d + 1) // 2, d % 2 == 1
    start, stop = first // p, last // p
    if _mirror(start, g, t, odd) < first:
        start += 1
    if _mirror(stop, g, t, odd) > last:
        stop -= 1
    return range(start, stop + 1)


def count_palindromes_upto(g: int, bound: int) -> int:
    """Exact count of base-``g`` palindromes in [1, bound]."""
    return sum(len(_halves(g, d, first, last)) for d, first, last in length_ranges(g, 1, bound))


def iter_palindromes(g: int, lo: int, hi: int) -> Iterator[int]:
    """Yield the base-``g`` palindromes in [lo, hi], strictly ascending.

    Generated by digit length, then by half-value, so the stream is
    ascending without sorting and each palindrome appears exactly once.
    Requires integers ``1 <= lo <= hi``.
    """
    check_int(lo, "lower end must be a positive integer")
    check_int(hi, f"upper end must be an integer >= {lo}", lo)
    for d, first, last in length_ranges(g, lo, hi):
        for half in _halves(g, d, first, last):
            yield _mirror(half, g, (d + 1) // 2, d % 2 == 1)


@dataclass(frozen=True)
class FamilyInstance:
    """The structured palindrome N = a*g**n + rev(a) with derived quantities.

    ``m`` is the length of the middle zero run, ``alpha`` the exact ratio
    a / rev(rev(a, g), h), ``k`` the base-h shift exponent of the known
    leading block, and ``m_tilde`` the number of base-h digits of N that
    are pinned down beyond that block.
    """

    a: int
    g: int
    h: int
    n: int
    N: int
    n_a: int
    m: int
    alpha: Fraction
    k: int
    m_tilde: int


def family_instance(a: int, g: int, h: int, n: int) -> FamilyInstance:
    """Build N = a*g**n + rev(a) and its derived quantities, all exactly.

    Requires ``n >= digit_count(a, g)`` so the digits of ``a`` and of its
    reversal do not overlap, and ``g`` not dividing ``a`` so that N really
    is a base-g palindrome.
    """
    check_base(g)
    check_base(h)
    check_int(a, "family prefix must be a positive integer")
    check_int(n, "shift exponent must be a positive integer")
    if a % g == 0:
        raise DomainError(f"{g} divides {shown(a)}: the family value would not be a base-{g} palindrome")
    n_a = _digit_count(a, g)
    if n < n_a:
        raise DomainError(f"shift {n} overlaps the {n_a} digits of the prefix")
    rev_a = _reverse(a, g)
    N = a * g**n + rev_a
    rr = _reverse(rev_a, h)
    alpha = Fraction(a, rr)
    # k = floor(log_h(N / rr)), by exact integer comparison; never above the digit-count
    # difference, since N < h**digits(N) and rr >= h**(digits(rr) - 1) give N / rr < h**(k + 1)
    k = _digit_count(N, h) - _digit_count(rr, h)
    if rr * h**k > N:
        k -= 1
    m = n - n_a
    m_tilde = m + n_a - _digit_count(rr, h)
    return FamilyInstance(a=a, g=g, h=h, n=n, N=N, n_a=n_a, m=m, alpha=alpha, k=k, m_tilde=m_tilde)

