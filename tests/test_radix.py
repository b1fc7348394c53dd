from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from simulpal.bounds import shift_exponent_bound, tail_fit_threshold
from simulpal.palgen import count_palindromes_upto, family_instance, iter_palindromes
from simulpal.radix import (
    DomainError,
    _mirror_test,
    check_int,
    digit_count,
    is_palindrome,
    length_ranges,
    reverse_in_base,
    shown,
)
from simulpal.reduction import verify_family

from conftest import oracle_digits, oracle_reverse


def test_base_range_is_checked():
    for f in (reverse_in_base, digit_count, is_palindrome):
        with pytest.raises(DomainError, match=r"base must be an integer in \[2, 4294967295\], got 1"):
            f(5, 1)
        with pytest.raises(DomainError, match=r"base must be an integer in \[2, 4294967295\], got 4294967296"):
            f(5, 2**32)
    # the largest base is accepted: 5 is a one-digit palindrome there
    assert reverse_in_base(5, 2**32 - 1) == 5
    assert digit_count(5, 2**32 - 1) == 1
    assert is_palindrome(5, 2**32 - 1)
    with pytest.raises(DomainError):
        digit_count(0, 10)


@pytest.mark.parametrize("n", [12.5, 99.5, 5.0, True, "5"])
def test_non_integer_input_is_rejected(n):
    # digit arithmetic on a float returns a float (12.5 would reverse to 26.0
    # in base 10), and base 2's string test cannot read one at all
    for base in (2, 10):
        with pytest.raises(DomainError, match="digit reversal is defined for positive integers only"):
            reverse_in_base(n, base)
        with pytest.raises(DomainError, match="digit count is defined for positive integers only"):
            digit_count(n, base)
        with pytest.raises(DomainError, match="palindrome test is defined for positive integers only"):
            is_palindrome(n, base)
    # a prefix or a shift of the family a*g**n + rev(a) follows the same rule:
    # 5.0 and True gave bounds, and family_instance answered with digit_count's message
    for f in (shift_exponent_bound, tail_fit_threshold, verify_family):
        with pytest.raises(DomainError, match=f"prefix a must be a positive integer, got {n!r}"):
            f(n, 10, 2)
    with pytest.raises(DomainError, match=f"family prefix must be a positive integer, got {n!r}"):
        family_instance(n, 10, 2, 3)
    with pytest.raises(DomainError, match=f"shift exponent must be a positive integer, got {n!r}"):
        family_instance(74, 10, 2, n)
    # an upper end: True counted 1, and 2.5 came back as a range end
    with pytest.raises(DomainError, match=f"upper end must be an integer, got {n!r}"):
        count_palindromes_upto(10, n)
    with pytest.raises(DomainError, match=f"upper end must be an integer, got {n!r}"):
        list(length_ranges(10, 1, n))
    with pytest.raises(DomainError, match=f"upper end must be an integer >= 1, got {n!r}"):
        list(iter_palindromes(10, 1, n))


def test_messages_name_an_integer_past_50_digits_by_its_digit_count():
    # up to 50 digits a message shows the value as before; past that, str()
    # would refuse it beyond 4 300 digits, and the digits would not help
    with pytest.raises(DomainError, match=f"got {-(10**50 - 1)}$"):
        check_int(-(10**50 - 1), "x")
    with pytest.raises(DomainError, match="got a negative integer of 51 digits$"):
        check_int(-(10**50), "x")
    for digits in (51, 52, 299, 4300, 4301, 5001, 20000):
        assert shown(10 ** (digits - 1)) == shown(10**digits - 1) == f"an integer of {digits} digits"
        assert f"{shown(-(10**digits) + 1)!r}" == f"a negative integer of {digits} digits"
    for x in (0, True, 2.5, "5", Fraction(10**50 - 1, 3), Fraction(-3, 10**50 - 1)):
        assert shown(x) is x
    # a rational shows a numerator or denominator of more than 50 digits the same way
    assert shown(Fraction(10**60, 3)) == "the ratio of an integer of 61 digits to 3"
    assert f"{shown(Fraction(-3, 10**5000 + 1))!r}" == "the ratio of -3 to an integer of 5001 digits"


@given(st.integers(min_value=10**50, max_value=10**400))
def test_shown_digit_count_matches_str(x):
    assert shown(x) == f"an integer of {len(str(x))} digits"


def test_reverse_examples():
    assert reverse_in_base(123, 10) == 321
    assert reverse_in_base(6, 2) == 3
    # trailing zeros vanish: reversal is not an involution there
    assert reverse_in_base(120, 10) == 21
    with pytest.raises(DomainError):
        reverse_in_base(0, 10)


def test_is_palindrome_examples():
    assert is_palindrome(585, 2)
    assert is_palindrome(717, 10)
    assert not is_palindrome(10, 10)
    with pytest.raises(DomainError):
        is_palindrome(0, 10)


def test_digit_count_power_boundaries():
    assert digit_count(1023, 2) == 10
    assert digit_count(1024, 2) == 11
    assert digit_count(585585, 10) == 6
    for g in (2, 3, 10, 16):
        for k in (1, 2, 5):
            assert digit_count(g**k, g) == k + 1
            assert digit_count(g**k - 1, g) == k


@given(st.integers(1, 10**12), st.integers(2, 36))
def test_round_trip(n, g):
    # the digit list evaluates back to n, read backwards to rev(n), and
    # digit_count is its length
    ds = oracle_digits(n, g)
    assert sum(d * g**i for i, d in enumerate(ds)) == n
    assert sum(d * g**i for i, d in enumerate(reversed(ds))) == reverse_in_base(n, g)
    assert digit_count(n, g) == len(ds)


@given(st.integers(1, 10**12), st.integers(2, 36))
def test_reverse_matches_oracle_and_bound(a, g):
    r = reverse_in_base(a, g)
    assert r == oracle_reverse(a, g)
    assert r < a * g


@given(st.integers(1, 10**9), st.sampled_from([2, 3, 10, 16]))
def test_reverse_involution_without_trailing_zeros(a, g):
    if a % g != 0:
        assert reverse_in_base(reverse_in_base(a, g), g) == a


@given(st.integers(1, 10**9), st.integers(2, 36))
def test_palindrome_iff_digitstring_symmetric(n, g):
    ds = oracle_digits(n, g)
    assert is_palindrome(n, g) == (ds == ds[::-1])
    assert digit_count(n, g) == len(ds)


@given(h=st.integers(2, 36), w=st.integers(1, 7), data=st.data())
def test_mirror_test_reads_a_zero_padded_block(h, w, data):
    # the search tests the w middle digits of a number as one block, which
    # may start with zeros, in either base; half the draws mirror their digits
    digits = data.draw(st.lists(st.integers(0, h - 1), min_size=w, max_size=w), label="digits")
    if data.draw(st.booleans(), label="mirror"):
        digits[w // 2 :] = digits[: (w + 1) // 2][::-1]
    block = sum(x * h**i for i, x in enumerate(digits))
    padded = oracle_digits(block, h)
    padded += [0] * (w - len(padded))
    assert _mirror_test(block, h, w - 1, h ** (w - 1)) == (padded == padded[::-1])


@given(g=st.integers(2, 40), lo=st.integers(1, 10**5), width=st.integers(-3, 10**5))
def test_length_ranges_split_the_window_by_digit_count(g, lo, width):
    # ascending (d, first, last) covering [lo, hi] exactly, each integer in the
    # range of its own oracle digit count; nothing for an empty window
    hi = lo + width
    ranges = list(length_ranges(g, lo, hi))
    if hi < lo:
        assert ranges == []
        return
    assert ranges[0][1] == lo and ranges[-1][2] == hi
    for (d, first, last), following in zip(ranges, ranges[1:] + [None]):
        assert first <= last
        assert len(oracle_digits(first, g)) == len(oracle_digits(last, g)) == d
        if following is not None:
            assert following[0] == d + 1 and following[1] == last + 1
