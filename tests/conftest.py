"""Shared fixtures and independent oracles.

The oracle functions deliberately reimplement digit logic with plain
loops (and Python's own binary rendering for base 2) so they share no
code path with the library they check.
"""

from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def oracle_reverse(n: int, b: int) -> int:
    r = 0
    while n:
        n, d = divmod(n, b)
        r = r * b + d
    return r


def oracle_is_palindrome(n: int, b: int) -> bool:
    if b == 2:
        s = bin(n)[2:]
        return s == s[::-1]
    return n == oracle_reverse(n, b)


def oracle_digits(n: int, b: int) -> list[int]:
    if n == 0:
        return [0]
    out = []
    while n:
        n, d = divmod(n, b)
        out.append(d)
    return out


def oracle_simultaneous(bound: int, g: int, h: int) -> list[int]:
    """Full scan of [1, bound] testing both bases."""
    return [n for n in range(1, bound + 1) if oracle_is_palindrome(n, g) and oracle_is_palindrome(n, h)]


# (10, 2, 10**5) as the v1 format wrote it when the run was done
V1_CHECKPOINT = {
    "version": "simulpal-checkpoint-v1",
    "g": 10,
    "h": 2,
    "bound": 10**5,
    "enumeration_base": 10,
    "cursor": {"digit_length": 5, "parity": "odd", "half_value": 999},
    "complete": True,
    "found": [1, 3, 5, 7, 9, 33, 99, 313, 585, 717, 7447, 9009, 15351, 32223, 39993, 53235, 53835, 73737],
}


@pytest.fixture(scope="session")
def known_list_10_2() -> list[int]:
    """The 62 simultaneous palindromes below 1e18 for bases 10 and 2."""
    text = (DATA / "simul_pal_10_2_1e18.txt").read_text()
    return [int(line) for line in text.split()]
