"""Multiplicative dependence of rationals: exponent vectors and witnesses.

A positive rational ``alpha`` is multiplicatively dependent on two bases
``g`` and ``h`` when alpha**r = g**s * h**t for integers (r, s, t), r != 0.
This module decides dependence, produces the witness with minimal r > 0,
and verifies the identity in exact rational arithmetic before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from sympy import factorint

from .radix import DomainError


class PreconditionError(ValueError):
    """Caller violated a documented precondition."""


def _as_fraction(x) -> Fraction:
    q = Fraction(x)
    if q <= 0:
        raise DomainError(f"expected a positive rational, got {x!r}")
    return q


def prime_exponent_vector(x, primes: list[int]) -> list[int]:
    """p-adic valuations of a positive rational at each listed prime.

    Denominator factors count negatively; prime factors of ``x`` outside
    ``primes`` are ignored.

    >>> prime_exponent_vector(12, [2, 3])
    [2, 1]
    >>> prime_exponent_vector(Fraction(4, 7), [2, 7])
    [2, -1]
    """
    q = _as_fraction(x)
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
    return vec


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
    if g < 2 or h < 2:
        raise DomainError("multiplicative independence is considered for integers >= 2")
    while g != h:
        if g < h:
            g, h = h, g
        if g % h:
            return True
        g //= h
    return False


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
    a = _as_fraction(alpha)
    if not multiplicatively_independent(g, h):
        raise PreconditionError(f"bases {g} and {h} are multiplicatively dependent")
    if a == 1:
        return DependenceWitness(1, 0, 0, degenerate=True)

    primes = sorted(factorint(g * h))
    e_g = prime_exponent_vector(g, primes)
    e_h = prime_exponent_vector(h, primes)
    pivot = None
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            if e_g[j] * e_h[i] - e_g[i] * e_h[j] != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    assert pivot is not None, "independent bases must admit an unimodular prime pair"
    i, j = pivot
    e_a = prime_exponent_vector(a, primes)

    r = e_g[j] * e_h[i] - e_g[i] * e_h[j]
    s = e_h[i] * e_a[j] - e_h[j] * e_a[i]
    t = e_g[j] * e_a[i] - e_g[i] * e_a[j]
    d = gcd(abs(r), abs(s), abs(t))
    r, s, t = r // d, s // d, t // d
    if r < 0:
        r, s, t = -r, -s, -t
    witness = DependenceWitness(r, s, t)
    if r == 0 or not witness.holds_for(a, g, h):
        return None
    return witness

