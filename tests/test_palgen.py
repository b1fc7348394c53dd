import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulpal import palgen, radix
from simulpal.palgen import (
    _halves,
    count_palindromes_upto,
    family_instance,
    iter_palindromes,
)
from simulpal.radix import DomainError, digit_count, is_palindrome, reverse_in_base

from conftest import oracle_is_palindrome


def _mirror(a: int, odd: bool) -> int:
    return palgen._mirror(a, 10, digit_count(a, 10), odd)


def test_mirror_constructions():
    assert _mirror(12, odd=False) == 1221
    assert _mirror(1, odd=False) == 11
    assert _mirror(585, odd=False) == 585585
    assert _mirror(12, odd=True) == 121
    assert _mirror(123, odd=True) == 12321
    assert _mirror(31, odd=True) == 313


def test_even_mirror_accepts_trailing_zeros():
    # the leading digit of a becomes both ends, so divisibility by g is fine
    assert _mirror(120, odd=False) == 120021
    assert is_palindrome(120021, 10)
    assert _mirror(120, odd=True) == 12021
    assert is_palindrome(12021, 10)


def test_zero_padded_matches_even_mirror():
    # with no zero run, a*g**n_a + rev(a) is the even mirror of a
    for a in (1, 7, 12, 585, 9999):
        n_a = digit_count(a, 10)
        N = a * 10**n_a + reverse_in_base(a, 10)
        assert N == family_instance(a, 10, 2, n_a).N == _mirror(a, odd=False)
        assert digit_count(N, 10) == 2 * n_a


@pytest.mark.parametrize("g", [2, 3, 10])
def test_iter_palindromes_equals_brute_filter(g):
    brute = [n for n in range(1, 10**4 + 1) if oracle_is_palindrome(n, g)]
    assert list(iter_palindromes(g, 1, 10**4)) == brute


def test_iter_palindromes_examples():
    assert sum(1 for _ in iter_palindromes(10, 1, 1000)) == 108
    assert list(iter_palindromes(2, 1, 10)) == [1, 3, 5, 7, 9]
    assert list(iter_palindromes(10, 100, 100)) == []


@settings(max_examples=200, deadline=None)
@given(g=st.integers(2, 40), lo=st.integers(1, 3 * 10**4), hi=st.integers(1, 3 * 10**4))
def test_enumeration_and_count_match_oracle_on_any_window(g, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    brute = [n for n in range(lo, hi + 1) if oracle_is_palindrome(n, g)]
    assert list(iter_palindromes(g, lo, hi)) == brute
    assert count_palindromes_upto(g, hi) - count_palindromes_upto(g, lo - 1) == len(brute)


def test_iter_palindromes_window():
    assert list(iter_palindromes(10, 90, 130)) == [99, 101, 111, 121]
    with pytest.raises(DomainError):
        list(iter_palindromes(10, 5, 4))


def test_listing_checks_its_arguments_once_not_per_palindrome(monkeypatch):
    # iter_palindromes checks g, lo and hi at entry and mirrors each half
    # unchecked, so listing 1 998 palindromes costs what listing 18 does
    calls = [0]
    check_int = radix.check_int

    def counted(*args, **kwargs):
        calls[0] += 1
        return check_int(*args, **kwargs)

    monkeypatch.setattr(radix, "check_int", counted)
    monkeypatch.setattr(palgen, "check_int", counted)
    counts = []
    for hi, listed in ((10**2, 18), (10**6, 1998)):
        calls[0] = 0
        assert len(list(iter_palindromes(10, 1, hi))) == listed
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("g", [2, 3, 10])
def test_length_counts_against_brute_force(g):
    # keep the brute scan range feasible per base
    max_d = {2: 10, 3: 8, 10: 6}[g]
    for d in range(1, max_d + 1):
        brute = sum(
            1 for n in range(g ** (d - 1), g**d) if oracle_is_palindrome(n, g)
        )
        expected = (g - 1) * g ** ((d + 1) // 2 - 1) if d > 1 else g - 1
        counted = count_palindromes_upto(g, g**d - 1) - count_palindromes_upto(g, g ** (d - 1) - 1)
        assert counted == brute == expected


@pytest.mark.parametrize("g", [2, 3, 5, 7, 10, 16, 23, 36])
def test_least_half_reaching_is_the_brute_force_minimum(g):
    # the halves of [first, last] start at the least half whose palindrome
    # reaches first and stop at the greatest one not beyond last; ends at,
    # next to and between each length's palindromes
    rng = random.Random(g)
    d = 1
    while (g ** ((d + 1) // 2)) <= 3000:
        t, odd = (d + 1) // 2, d % 2 == 1
        halves = range(g ** (t - 1), g**t)
        values = [palgen._mirror(half, g, t, odd) for half in halves]
        ends = {values[0], values[-1], *(v + e for v in values[:3] + values[-3:] for e in (-1, 1))}
        ends |= {rng.randrange(g ** (d - 1), g**d) for _ in range(300)}
        ends = sorted(e for e in ends if g ** (d - 1) <= e < g**d)
        for first in ends:
            last = rng.choice([e for e in ends if e >= first])
            expected = [half for half, v in zip(halves, values) if first <= v <= last]
            assert list(_halves(g, d, first, last)) == expected, (g, d, first, last)
        d += 1


@pytest.mark.parametrize("g", [2, 3, 10, 16])
def test_count_upto_against_brute_force(g):
    brute = sum(1 for n in range(1, 20001) if oracle_is_palindrome(n, g))
    assert count_palindromes_upto(g, 20000) == brute
    assert count_palindromes_upto(g, 0) == 0


def test_family_instance_examples():
    fi = family_instance(9, 10, 2, 3)
    assert fi.N == 9009 and fi.m == 2
    fi = family_instance(74, 10, 2, 2)
    assert fi.N == 7447 and fi.m == 0
    fi = family_instance(585, 10, 2, 3)
    assert fi.N == 585585 and fi.m == 0
    assert fi.alpha == Fraction(585, reverse_in_base(585, 2))


def test_family_instance_errors():
    with pytest.raises(DomainError, match="shift 2 overlaps the 3 digits of the prefix"):
        family_instance(585, 10, 2, 2)
    with pytest.raises(DomainError, match="10 divides 20: the family value would not be a base-10 palindrome"):
        family_instance(20, 10, 2, 3)


def test_family_instance_derived_quantities():
    for g, h in [(10, 2), (2, 10), (10, 3), (3, 7), (16, 10), (2, 3)]:
        rng = random.Random(g * 100 + h)
        for a in [1, 74, g + 1, g**3 - 1] + [rng.randrange(1, 10**6) for _ in range(30)]:
            if a % g == 0:
                continue
            n_a = digit_count(a, g)
            for n in (n_a, n_a + 1, n_a + 5, 3 * n_a + 7):
                fi = family_instance(a, g, h, n)
                rr = reverse_in_base(reverse_in_base(a, g), h)
                assert fi.alpha == Fraction(a, rr)
                assert 0 < fi.alpha.numerator <= a and 0 < fi.alpha.denominator <= rr
                # k is the exact floor of log_h(N / rr)
                assert rr * h**fi.k <= fi.N < rr * h ** (fi.k + 1)
                assert fi.m_tilde == fi.m + fi.n_a - digit_count(rr, h)


def test_family_values_are_palindromes_in_g():
    rng = random.Random(20250810)
    checked = 0
    while checked < 200:
        g = rng.choice([2, 3, 5, 10, 16, 30])
        a = rng.randrange(1, 10**5)
        if a % g == 0:
            continue
        n_a = digit_count(a, g)
        n = n_a + rng.randrange(0, 8)
        h = 2 if g != 2 else 3
        fi = family_instance(a, g, h, n)
        assert is_palindrome(fi.N, g)
        checked += 1
