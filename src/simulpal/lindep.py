"""Multiplicative dependence of rationals: exponent vectors and witnesses.

A positive rational ``alpha`` is multiplicatively dependent on two bases
``g`` and ``h`` when alpha**r = g**s * h**t for integers (r, s, t), r != 0.
This module decides dependence, produces the witness with minimal r > 0,
and verifies the identity in exact rational arithmetic before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from sympy import factorint

from .radix import DomainError, check_int, positive_rational, shown

_INDEPENDENCE_RULE = "multiplicative independence is considered for integers >= 2"


def prime_exponent_vector(x, primes: list[int]) -> list[int]:
    """p-adic valuations of a positive rational at each listed prime.

    Denominator factors count negatively; prime factors of ``x`` outside
    ``primes`` are ignored.

    >>> prime_exponent_vector(12, [2, 3])
    [2, 1]
    >>> prime_exponent_vector(Fraction(4, 7), [2, 7])
    [2, -1]
    """
    return _prime_exponents(positive_rational(x, "expected a positive rational, got {!r}", x), primes)[0]


def _prime_exponents(q: Fraction | int, primes: list[int] | tuple[int, ...]) -> tuple[list[int], int]:
    # prime_exponent_vector without the argument check, for a positive q, and what is left of num * den after it
    vec = []
    num, den = q.numerator, q.denominator
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        vec.append(e)
    return vec, num * den


def multiplicatively_independent(g: int, h: int) -> bool:
    """True iff g**x = h**y has no solution in positive integers x, y.

    Decided exactly by division, with no factoring: g and h are dependent
    iff both are powers of one integer b.  For g > h that holds iff h | g
    and g/h, h are dependent in turn, and it ends at g = h.

    >>> multiplicatively_independent(10, 2)
    True
    >>> multiplicatively_independent(8, 2)
    False
    >>> multiplicatively_independent(6, 12)
    True
    """
    return _independent(check_int(g, _INDEPENDENCE_RULE, 2), check_int(h, _INDEPENDENCE_RULE, 2))


def _independent(x, y) -> bool:
    # multiplicatively_independent without the argument checks, for positive rationals x, y != 1, each read
    # as (n, d), the numerator and denominator of whichever of it and its inverse is above 1.  They are
    # dependent iff both are powers of one rational c > 1, and then the larger numerator is the larger power
    # (c's numerator is at least 2), so the same descent decides them on numerators and denominators at once
    n, d, m, e = x.numerator, x.denominator, y.numerator, y.denominator
    if n < d:
        n, d = d, n
    if m < e:
        m, e = e, m
    while n != m or d != e:
        if n < m:
            n, d, m, e = m, e, n, d
        if n % m or d % e:
            return True
        n //= m
        d //= e
    return False


def _require_independent(g: int, h: int) -> None:
    # the standing hypothesis on two bases already checked as integers >= 2
    if not _independent(g, h):
        raise DomainError(f"bases {shown(g)} and {shown(h)} are multiplicatively dependent")


@dataclass(frozen=True)
class DependenceWitness:
    """Integers with alpha**r = g**s * h**t, gcd(r, |s|, |t|) = 1 and r > 0.

    ``degenerate`` marks the alpha = 1 case, which is recorded as
    (1, 0, 0) and routed by callers straight to the two-logarithm branch.
    """

    r: int
    s: int
    t: int
    degenerate: bool = False

    def holds_for(self, alpha: Fraction, g: int, h: int) -> bool:
        return Fraction(alpha) ** self.r == Fraction(g) ** self.s * Fraction(h) ** self.t


@lru_cache
def _base_columns(g: int, h: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, int]]:
    # the sorted primes of g*h, the exponent columns of g and h over them, and the first
    # two primes where the columns are independent, which independent bases have
    primes = tuple(sorted(factorint(g * h)))
    e_g, e_h = (tuple(_prime_exponents(base, primes)[0]) for base in (g, h))
    pair = next((i, j) for i, j in combinations(range(len(primes)), 2) if e_g[j] * e_h[i] != e_g[i] * e_h[j])
    return primes, e_g, e_h, pair


def dependence_witness(alpha, g: int, h: int) -> DependenceWitness | None:
    """Minimal witness of multiplicative dependence of alpha on g and h, or None.

    Requires g, h multiplicatively independent.  Two primes of g*h whose
    (g, h)-exponent columns are linearly independent pin down the only
    possible exponent direction; the resulting candidate is normalised by
    gcd and sign and then verified exactly on all primes, so a returned
    witness is unconditionally correct.

    >>> w = dependence_witness(5, 10, 2)
    >>> (w.r, w.s, w.t)
    (1, 1, -1)
    >>> dependence_witness(Fraction(4, 7), 10, 2) is None
    True
    """
    a = positive_rational(alpha, "expected a positive rational, got {!r}", alpha)
    _require_independent(check_int(g, _INDEPENDENCE_RULE, 2), check_int(h, _INDEPENDENCE_RULE, 2))
    if a == 1:
        return DependenceWitness(1, 0, 0, degenerate=True)

    primes, e_g, e_h, (i, j) = _base_columns(g, h)
    e_a, rest = _prime_exponents(a, primes)
    if rest != 1:  # a prime of alpha outside g*h: no power of alpha is g**s * h**t
        return None

    r = e_g[j] * e_h[i] - e_g[i] * e_h[j]
    s = e_h[i] * e_a[j] - e_h[j] * e_a[i]
    t = e_g[j] * e_a[i] - e_g[i] * e_a[j]
    # r != 0 by the choice of i and j; dividing by d makes r > 0 and the gcd 1
    d = gcd(r, s, t) if r > 0 else -gcd(r, s, t)
    witness = DependenceWitness(r // d, s // d, t // d)
    return witness if witness.holds_for(a, g, h) else None

