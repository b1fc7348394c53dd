import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, factorint

from simulpal import lindep
from simulpal.lindep import (
    dependence_witness,
    multiplicatively_independent,
    prime_exponent_vector,
)
from simulpal.radix import DomainError, reverse_in_base


def test_prime_exponent_vector_examples():
    assert prime_exponent_vector(12, [2, 3]) == [2, 1]
    assert prime_exponent_vector(Fraction(4, 7), [2, 7]) == [2, -1]
    assert prime_exponent_vector(5, [2, 5]) == [0, 1]


def test_prime_exponent_vector_modes():
    # unlisted primes are ignored
    assert prime_exponent_vector(15, [3]) == [1]
    with pytest.raises(DomainError):
        prime_exponent_vector(Fraction(-2), [2])


def test_multiplicative_independence_examples():
    assert multiplicatively_independent(10, 2)
    assert not multiplicatively_independent(8, 2)
    assert multiplicatively_independent(6, 12)


@pytest.mark.parametrize("g", [2, 3, 5, 10])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_powers_are_dependent(g, k):
    assert not multiplicatively_independent(g, g**k)
    assert not multiplicatively_independent(g**k, g)


def _dependent_by_factoring(g, h):
    # dependent iff both bases have the same primes with proportional exponents
    fg, fh = factorint(g), factorint(h)
    if set(fg) != set(fh):
        return False
    p0 = min(fg)
    return all(fg[p] * fh[p0] == fh[p] * fg[p0] for p in fg)


def test_independence_matches_factor_oracle():
    for g in range(2, 201):
        for h in range(2, 201):
            assert multiplicatively_independent(g, h) != _dependent_by_factoring(g, h), (g, h)


@pytest.mark.parametrize(
    "g, h",
    [
        (6**40, 36**7 * 6),
        (6**40, 36**7 * 3),
        (2**61 - 1, (2**61 - 1) ** 3),
        ((2**61 - 1) ** 2 * 2, (2**61 - 1) ** 3),
        (12**30, 18**20),
        (2**64, 4**31),
        (10**18 + 9, 10**18 + 9),
    ],
)
def test_independence_matches_factor_oracle_on_large_bases(g, h):
    assert multiplicatively_independent(g, h) != _dependent_by_factoring(g, h)
    assert multiplicatively_independent(h, g) == multiplicatively_independent(g, h)


def _exponents(q: Fraction) -> dict[int, int]:
    out = dict(factorint(q.numerator))
    out.update({p: -e for p, e in factorint(q.denominator).items()})
    return out


def test_rational_independence_matches_factor_oracle():
    # the one descent decides rationals too: two rationals other than 1 are dependent iff their exponent
    # vectors over the primes are proportional
    assert [lindep._independent(Fraction(x), Fraction(y)) for x, y in [
        ("1/2", "1/4"), ("2/3", "4/9"), ("9/4", "27/8"), ("6/5", "5/6"), ("74/61", "2"), ("3", "2"), ("4/3", "8/3"),
    ]] == [False, False, False, False, True, True, True]
    values = sorted({Fraction(n, d) for n in range(1, 25) for d in range(1, 25)} - {1})
    vectors = {x: _exponents(x) for x in values}
    for x in values:
        for y in values:
            u, v = vectors[x], vectors[y]
            dependent = all(u.get(p, 0) * v.get(q, 0) == u.get(q, 0) * v.get(p, 0) for p in u | v for q in u | v)
            assert lindep._independent(x, y) != dependent, (x, y)


def test_dependence_witness_examples():
    w = dependence_witness(5, 10, 2)
    assert (w.r, w.s, w.t) == (1, 1, -1) and not w.degenerate
    assert dependence_witness(Fraction(4, 7), 10, 2) is None
    w1 = dependence_witness(1, 10, 2)
    assert (w1.r, w1.s, w1.t) == (1, 0, 0) and w1.degenerate


def test_dependence_witness_checks_its_ratio_once(monkeypatch):
    # the witness checks alpha, g and h at entry and takes the exponent
    # vectors unchecked; each of the three vectors re-checked its argument
    calls = [0]
    positive_rational = lindep.positive_rational

    def counted(*args):
        calls[0] += 1
        return positive_rational(*args)

    monkeypatch.setattr(lindep, "positive_rational", counted)
    for alpha in (5, Fraction(4, 7), 1, Fraction(25, 3)):
        calls[0] = 0
        dependence_witness(alpha, 10, 2)
        assert calls[0] == 1, alpha


def test_dependence_witness_precondition():
    with pytest.raises(DomainError, match="bases 8 and 2 are multiplicatively dependent"):
        dependence_witness(Fraction(3, 2), 8, 2)


def test_witness_identity_and_minimality():
    cases = [
        (Fraction(25), 10, 2),      # 25 = 10^2 2^-2
        (Fraction(1, 5), 10, 2),    # 1/5 = 2 / 10
        (Fraction(2, 5), 10, 2),    # 2/5 = 4/10
        (Fraction(32, 5), 10, 2),
        (Fraction(9, 2), 6, 2),     # support {2,3}
        (Fraction(8, 3), 6, 2),
    ]
    for alpha, g, h in cases:
        w = dependence_witness(alpha, g, h)
        assert w is not None
        assert w.holds_for(alpha, g, h)
        assert w.r > 0
        # gcd-normalised witnesses have the minimal positive r
        for r_smaller in range(1, w.r):
            assert all(
                Fraction(alpha) ** r_smaller != Fraction(g) ** s * Fraction(h) ** t
                for s in range(-8, 9)
                for t in range(-8, 9)
            )


def test_witness_with_r_above_one():
    # 6**3 = 18 * 12, but neither 6 nor 36 lies in the group generated by 18 and 12
    w = dependence_witness(6, 18, 12)
    assert (w.r, w.s, w.t) == (3, 1, 1)
    assert w.holds_for(Fraction(6), 18, 12)
    # 2**2 = 24 / 6: the exponent lattice of (24, 6) has index two
    w = dependence_witness(2, 24, 6)
    assert (w.r, w.s, w.t) == (2, 1, -1)
    assert w.holds_for(Fraction(2), 24, 6)
    w = dependence_witness(Fraction(4, 25), 10, 2)
    assert w.holds_for(Fraction(4, 25), 10, 2)


def test_random_family_ratios_bases_10_2():
    rng = random.Random(97)
    # dependent ratios are rare among random prefixes; the deterministic
    # low range supplies them (binary palindromes like 5, 9, 585 give alpha = 1)
    samples = list(range(1, 100)) + [rng.randrange(1, 10**6) for _ in range(400)]
    seen_dependent = 0
    for a in samples:
        rr = reverse_in_base(reverse_in_base(a, 10), 2) if a % 10 else None
        if rr is None:
            continue
        alpha = Fraction(a, rr)
        w = dependence_witness(alpha, 10, 2)
        support = set()
        for part in (alpha.numerator, alpha.denominator):
            for p in (2, 3, 5, 7):
                while part % p == 0:
                    part //= p
                    support.add(p)
            if part > 1:
                support.add(part)
        dependent_expected = support <= {2, 5}
        assert (w is not None) == dependent_expected
        if w is not None:
            seen_dependent += 1
            assert w.holds_for(alpha, 10, 2)
    assert seen_dependent > 0


def _witness_by_factoring(alpha, g, h):
    # the witness (r, s, t) from sympy's factors: None if alpha has a prime
    # outside g*h, else the unique rational (x, y) with e_alpha = x e_g + y e_h
    # over the primes of g*h, or None if there is none, scaled by the least r
    # that makes both integers
    primes = sorted(factorint(g * h))
    f_num, f_den = factorint(alpha.numerator), factorint(alpha.denominator)
    if not set(f_num) | set(f_den) <= set(primes):
        return None
    columns = Matrix([[factorint(g).get(p, 0), factorint(h).get(p, 0)] for p in primes])
    e_a = Matrix([f_num.get(p, 0) - f_den.get(p, 0) for p in primes])
    try:
        solution, free = columns.gauss_jordan_solve(e_a)
    except ValueError:
        return None
    x, y = (Fraction(int(c.p), int(c.q)) for c in solution)
    r = lcm(x.denominator, y.denominator)
    return r, int(r * x), int(r * y)


_WITNESS_BASES = [(10, 2), (12, 18), (6, 10), (72, 108)]


@st.composite
def _ratio_over_bases(draw):
    # a product of the primes of g*h to signed exponents, sometimes times a
    # prime of neither base to a nonzero one
    g, h = draw(st.sampled_from(_WITNESS_BASES))
    alpha = Fraction(1)
    for p in sorted(factorint(g * h)):
        alpha *= Fraction(p) ** draw(st.integers(-12, 12))
    if draw(st.booleans()):
        foreign = draw(st.sampled_from([7, 11, 13, 101]))
        alpha *= Fraction(foreign) ** draw(st.sampled_from([-2, -1, 1, 3]))
    return alpha, g, h


@settings(max_examples=150, deadline=None)
@given(_ratio_over_bases())
def test_dependence_witness_matches_factor_oracle(case):
    alpha, g, h = case
    w = dependence_witness(alpha, g, h)
    assert (None if w is None else (w.r, w.s, w.t)) == _witness_by_factoring(alpha, g, h)
    assert w is None or (w.holds_for(alpha, g, h) and w.degenerate == (alpha == 1))
