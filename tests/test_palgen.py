import random
from fractions import Fraction

import pytest

from simulpal.palgen import (
    FamilyError,
    count_palindromes_upto,
    family_instance,
    iter_palindromes,
    make_even_palindrome,
    make_odd_palindrome,
    zero_padded_palindrome,
)
from simulpal.radix import DomainError, digit_count, is_palindrome, reverse_in_base

from conftest import oracle_is_palindrome


def test_mirror_constructions():
    assert make_even_palindrome(12, 10) == 1221
    assert make_even_palindrome(1, 10) == 11
    assert make_even_palindrome(585, 10) == 585585
    assert make_odd_palindrome(12, 10) == 121
    assert make_odd_palindrome(123, 10) == 12321
    assert make_odd_palindrome(31, 10) == 313
    with pytest.raises(DomainError):
        make_even_palindrome(0, 10)


def test_even_mirror_accepts_trailing_zeros():
    # the leading digit of a becomes both ends, so divisibility by g is fine
    assert make_even_palindrome(120, 10) == 120021
    assert is_palindrome(120021, 10)
    assert make_odd_palindrome(120, 10) == 12021


def test_zero_padded_palindrome():
    assert zero_padded_palindrome(12, 10, 3, "even") == 1200000021
    assert zero_padded_palindrome(1, 10, 0, "even") == 11
    assert zero_padded_palindrome(1, 2, 2, "even") == 33
    assert zero_padded_palindrome(12, 10, 3, "odd") == 1200021
    with pytest.raises(FamilyError):
        zero_padded_palindrome(120, 10, 2, "even")
    with pytest.raises(DomainError):
        zero_padded_palindrome(12, 10, 2, "both")


def test_zero_padded_matches_even_mirror():
    for a in (1, 7, 12, 585, 9999):
        assert zero_padded_palindrome(a, 10, 0, "even") == make_even_palindrome(a, 10)
        assert digit_count(make_even_palindrome(a, 10), 10) == 2 * digit_count(a, 10)


@pytest.mark.parametrize("g", [2, 3, 10])
def test_iter_palindromes_equals_brute_filter(g):
    brute = [n for n in range(1, 10**4 + 1) if oracle_is_palindrome(n, g)]
    assert list(iter_palindromes(g, 1, 10**4)) == brute


def test_iter_palindromes_examples():
    assert sum(1 for _ in iter_palindromes(10, 1, 1000)) == 108
    assert list(iter_palindromes(2, 1, 10)) == [1, 3, 5, 7, 9]
    assert list(iter_palindromes(10, 100, 100)) == []


def test_iter_palindromes_window():
    assert list(iter_palindromes(10, 90, 130)) == [99, 101, 111, 121]
    with pytest.raises(DomainError):
        list(iter_palindromes(10, 5, 4))


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
    with pytest.raises(FamilyError):
        family_instance(585, 10, 2, 2)  # digits would overlap
    with pytest.raises(FamilyError):
        family_instance(20, 10, 2, 3)  # 10 | 20


def test_family_instance_derived_quantities():
    fi = family_instance(74, 10, 2, 5)
    rr = reverse_in_base(reverse_in_base(74, 10), 2)
    assert fi.alpha == Fraction(74, rr)
    # k is the exact floor of log2(N / rr)
    assert rr * 2**fi.k <= fi.N < rr * 2 ** (fi.k + 1)
    assert fi.m_tilde == fi.m + fi.n_a - digit_count(rr, 2)
    assert 0 < fi.alpha.numerator < 74 * 10 * 2
    assert 0 < fi.alpha.denominator < 74 * 10 * 2


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
