"""Explicit bounds certifying when a structured palindrome cannot exist.

Everything here evaluates closed-form expressions: Matveev's lower bound
for linear forms in n logarithms, the two-logarithm lower bound of
Laurent, Mignotte and Nesterenko, the competing terms of the threshold on
the middle zero run of a structured palindrome beyond which it cannot be a
palindrome in the second base and of the resulting unconditional bound on
the shift exponent, and majorants for the implicit equations
n = A*(log n)**p + B those bounds produce.  Evaluation uses interval
arithmetic with outward rounding, so a reported threshold is always an
upper bound of the exact expression.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lindep
from .precise import PreciseReal, hp_exp, hp_log, upper_float
from .radix import DomainError, check_base, check_int, positive_rational, shown

# evaluation precision for closed-form bound expressions
_EVAL_BITS = 128
_MAX_PREFIX_BITS = 2**50  # the largest prefix, in bits, of shift_exponent_bound's lemma

# assembled constants of the underlying transcendence estimates, exact
THREE_LOG_COEFF = Fraction(2_022 * 10**7)  # 2.022e10, with the three-log bound
TWO_LOG_COEFF = Fraction(142)  # with the two-log bound
SHIFT_THREE_LOG_COEFF = Fraction(511 * 10**10)  # 5.11e12, solved form of the above
SHIFT_TWO_LOG_COEFF = Fraction(191 * 10**5)  # 1.91e7, solved form of the above


def _height_and_abs_log(q: Fraction) -> tuple[Fraction, Fraction]:
    # upper ends of the enclosures of log max(|p|, q) and of |log q|
    height = hp_log(max(abs(q.numerator), q.denominator), _EVAL_BITS)
    return height.upper, abs(hp_log(q, _EVAL_BITS)).upper


_PREFIX_RULE = "prefix a must be a positive integer"


def require_family_bases(a: int, g: int, h: int) -> None:
    """Validate the standing hypotheses: 2 <= h < g, h | g, g and h
    multiplicatively independent, and a positive."""
    check_base(g)
    check_base(h)
    check_int(a, _PREFIX_RULE)
    if not 2 <= h < g:
        raise DomainError(f"need 2 <= h < g, got h={h}, g={g}")
    if g % h != 0:
        raise DomainError(f"need h | g, got h={h}, g={g}")
    lindep._require_independent(g, h)


# --------------------------------------------------------------------------
# Matveev's bound for linear forms in n logarithms (rational case, D = 1)
# --------------------------------------------------------------------------


def _check_height(given, least: Fraction, what: str) -> None:
    # a height given in place of a computed one: a positive rational at least the upper end ``least``
    if positive_rational(given, what + " must be a positive rational, got {!r}", given) < least:
        raise DomainError(f"{what} must be at least {upper_float(least)!r}, got {shown(given)!r}")


@dataclass(frozen=True)
class MatveevInstance:
    """Data of a linear form b_1 log a_1 + ... + b_n log a_n over rationals.

    ``A`` entries must dominate max(D*height(alpha_i), |log alpha_i|), at
    least its upper end; when omitted they are computed (rounded outward).
    ``kappa`` is 1 for a real field, 2 otherwise.
    """

    alphas: tuple
    b_coeffs: tuple[int, ...]
    D: int = 1
    kappa: int = 1
    A: tuple[float, ...] | None = None

    def __post_init__(self):
        sequences = {"alphas": self.alphas, "b_coeffs": self.b_coeffs, "A": () if self.A is None else self.A}
        for name, value in sequences.items():
            if not isinstance(value, (tuple, list)):
                raise DomainError(f"{name} must be a tuple or a list, got {shown(value)!r}")
        if len(self.alphas) != len(self.b_coeffs):
            raise DomainError("need one integer coefficient per logarithm")
        if len(self.alphas) < 2:
            raise DomainError("a linear form needs at least two logarithms")
        for b in self.b_coeffs:
            check_int(b, "the coefficients must be integers", None)
        if self.b_coeffs[-1] == 0:
            raise DomainError("the last coefficient must be nonzero")
        check_int(self.D, "the degree D must be a positive integer")
        check_int(self.kappa, "kappa must be 1 or 2", 1, 2)
        for x in self.alphas:
            what = "logarithm arguments must be positive and != 1, got {}"
            if positive_rational(x, what, x) == 1:
                raise DomainError(what.format(x))
        if self.A is not None:
            if len(self.A) != len(self.alphas):
                raise DomainError("need one height bound per logarithm")
            for given, x in zip(self.A, self.alphas):
                _check_height(given, _matveev_height(x, self.D), "each height bound A")


@dataclass(frozen=True)
class MatveevEvaluation:
    """Assembled quantities of the lower bound -C(n)*C0*W0*D**2*Omega."""

    C_n: float
    C0: float
    W0: float
    Omega: float
    B_bound: float
    A: tuple[float, ...]
    value: float


def _matveev_height(x, D: int) -> Fraction:
    height, logabs = _height_and_abs_log(Fraction(x))
    return max(D * height, logabs)


def _height_bounds(inst: MatveevInstance) -> tuple[float, ...]:
    if inst.A is not None:
        return tuple(float(a) for a in inst.A)
    return tuple(upper_float(_matveev_height(x, inst.D)) for x in inst.alphas)


def _pow(x: PreciseReal, k: int) -> PreciseReal:
    # k >= 1 at every call
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _matveev_cn(n: int, kappa: int) -> PreciseReal:
    # C(n,k) = 16/(n! k) e^n (2n+1+2k) (n+2) (4(n+1))^(n+1) (e n / 2)^k
    e = hp_exp(1, _EVAL_BITS)
    return (
        Fraction(16, math.factorial(n) * kappa)
        * _pow(e, n)
        * (2 * n + 1 + 2 * kappa)
        * (n + 2)
        * Fraction((4 * (n + 1)) ** (n + 1))
        * _pow(e * Fraction(n, 2), kappa)
    )


def matveev_lower_bound(inst: MatveevInstance) -> MatveevEvaluation:
    """Evaluate the lower bound for log |b_1 log a_1 + ... + b_n log a_n|.

    Returns the bound (a negative number, rounded downward so it stays a
    true lower bound) together with every intermediate constant.
    """
    n = len(inst.alphas)
    D, kappa = inst.D, inst.kappa
    A = _height_bounds(inst)
    A_frac = [Fraction(x) for x in A]
    b_ratio = max(Fraction(1), max(abs(b) * aj / A_frac[-1] for b, aj in zip(inst.b_coeffs, A_frac)))

    omega = Fraction(1)
    for x in A_frac:
        omega *= x

    e = hp_exp(1, _EVAL_BITS)
    c_n = _matveev_cn(n, kappa)
    # C0 = log(e^(4.4 n + 7) n^5.5 D^2 log(e D)), expanded into a sum of logs
    log_eD = (e * D).log()
    c0 = Fraction(44 * n + 70, 10) + Fraction(11, 2) * hp_log(n, _EVAL_BITS) + 2 * hp_log(D, _EVAL_BITS) + log_eD.log()
    w0 = (Fraction(3, 2) * e * b_ratio * D * log_eD).log()

    total = c_n * c0 * w0 * Fraction(D * D) * omega
    return MatveevEvaluation(
        C_n=upper_float(c_n),
        C0=upper_float(c0),
        W0=upper_float(w0),
        Omega=upper_float(omega),
        B_bound=upper_float(b_ratio),
        A=A,
        value=-upper_float(total),
    )


# --------------------------------------------------------------------------
# Two-logarithm bound (Laurent, Mignotte, Nesterenko)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentInstance:
    """Data of |b2 log a2 - b1 log a1| for multiplicatively independent
    positive rationals, with log A_i >= max(height, |log|/D, 1/D), at least
    its upper end when given."""

    alpha1: Fraction
    alpha2: Fraction
    b1: int
    b2: int
    D: int = 1
    logA1: float | None = None
    logA2: float | None = None

    def __post_init__(self):
        a1 = positive_rational(self.alpha1, "logarithm arguments must be positive")
        a2 = positive_rational(self.alpha2, "logarithm arguments must be positive")
        check_int(self.b1, "the two coefficients must be positive integers")
        check_int(self.b2, "the two coefficients must be positive integers")
        check_int(self.D, "the degree D must be a positive integer")
        if a1 == 1 or a2 == 1 or not lindep._independent(a1, a2):  # the descent would not end on 1
            raise DomainError(f"{shown(a1)} and {shown(a2)} are multiplicatively dependent")
        for given, x, what in ((self.logA1, a1, "logA1"), (self.logA2, a2, "logA2")):
            if given is not None:
                _check_height(given, _laurent_logA(x, self.D, None), what)


@dataclass(frozen=True)
class LaurentEvaluation:
    """``bound`` is the certified enclosure of the lower bound, which
    routinely falls below float range (exp of -10000 and smaller);
    ``log_value`` is its natural logarithm as a float, rounded downward."""

    logA1: float
    logA2: float
    b_prime: float
    log_b: float
    bound: PreciseReal
    log_value: float

    @property
    def value(self) -> Fraction:
        """The bound's lower end as an exact positive rational, built only
        when read: it has about 1.44·|log_value| bits."""
        return self.bound.lower


def _laurent_logA(x: Fraction, D: int, given: float | None) -> Fraction:
    if given is not None:
        return Fraction(given)
    height, logabs = _height_and_abs_log(x)
    return max(height, logabs / D, Fraction(1, D))


def laurent_lower_bound(inst: LaurentInstance) -> LaurentEvaluation:
    """Evaluate exp(-24.34 D^4 (log b)^2 log A1 log A2), a lower bound for
    |b2 log a2 - b1 log a1|, rounded downward."""
    D = inst.D
    logA1 = _laurent_logA(Fraction(inst.alpha1), D, inst.logA1)
    logA2 = _laurent_logA(Fraction(inst.alpha2), D, inst.logA2)
    b_prime = Fraction(inst.b1) / (D * logA2) + Fraction(inst.b2) / (D * logA1)
    log_b = max(
        (hp_log(b_prime, _EVAL_BITS) + Fraction(14, 100)).upper,
        Fraction(21, D),
        Fraction(1, 2),
    )
    exponent = Fraction(2434, 100) * D**4 * log_b**2 * logA1 * logA2
    return LaurentEvaluation(
        logA1=upper_float(logA1),
        logA2=upper_float(logA2),
        b_prime=upper_float(b_prime),
        log_b=upper_float(log_b),
        bound=hp_exp(-exponent, _EVAL_BITS),
        log_value=-upper_float(exponent),
    )


# --------------------------------------------------------------------------
# Thresholds for the structured family a*g**n + rev(a)
# --------------------------------------------------------------------------


def tail_fit_threshold(a: int, g: int, h: int) -> float:
    """log(g*a)/log h: zero runs longer than this guarantee the reversed
    prefix fits inside the base-h digits pinned down by the low block."""
    check_base(g)
    check_base(h)
    return _tail_fit(hp_log(check_int(a, _PREFIX_RULE), _EVAL_BITS), g, h)


def _tail_fit(log_a: PreciseReal, g: int, h: int) -> float:
    # tail_fit_threshold from log a, without the argument checks
    log_g, log_h = _base_terms(g, h)[:2]
    return upper_float((log_a + log_g) / log_h)


@lru_cache
def _base_terms(g: int, h: int) -> tuple[PreciseReal, ...]:
    """What every prefix over bases g and h shares, once per process: log g, log h,
    log(g h), log g / (log 2)**3 (the dependence-degree factor) and SHIFT_THREE_LOG_COEFF * log g."""
    log_g, log_h = hp_log(g, _EVAL_BITS), hp_log(h, _EVAL_BITS)
    degree_factor = log_g / _pow(hp_log(2, _EVAL_BITS), 3)
    return log_g, log_h, hp_log(g * h, _EVAL_BITS), degree_factor, SHIFT_THREE_LOG_COEFF * log_g


def _shared_terms(a: int, g: int, h: int) -> tuple[PreciseReal, PreciseReal, dict[str, float]]:
    """log a, the one logarithm a prefix takes, log(a g h) = log a + log(g h), and
    the tail-fit and dependence-degree terms, which both thresholds use."""
    _, _, log_gh, degree_factor, _ = _base_terms(g, h)
    log_a = hp_log(a, _EVAL_BITS)
    log_agh = log_a + log_gh
    degree = upper_float(degree_factor * _pow(log_agh, 2))
    return log_a, log_agh, {"tail_fit": _tail_fit(log_a, g, h), "dependence_degree": degree}


def zero_run_threshold_terms(a: int, g: int, h: int, n: int) -> dict[str, float]:
    """The four competing expressions whose maximum is the threshold on the
    middle zero run of a base-g palindrome built from prefix ``a`` and shift
    ``n``: a run strictly longer than this cannot occur in a base-h
    palindrome.  Each is rounded outward (upward)."""
    require_family_bases(a, g, h)
    check_int(n, "shift exponent must be positive")
    _, log_agh, terms = _shared_terms(a, g, h)
    log_g, log_n = _base_terms(g, h)[0], hp_log(n, _EVAL_BITS)
    terms["two_log"] = upper_float(TWO_LOG_COEFF * _pow(log_n, 2) * log_g)
    terms["three_log"] = upper_float(THREE_LOG_COEFF * log_g * log_agh * log_n)
    return terms


def shift_exponent_bound_terms(a: int, g: int, h: int) -> dict[str, float]:
    """The competing expressions whose maximum bounds the shift exponent."""
    require_family_bases(a, g, h)
    log_a, log_agh, terms = _shared_terms(a, g, h)
    terms["three_log_solved"] = _three_log_solved(log_agh, g, h)
    if a >= 3:
        # below a = 3 the iterated logarithm is non-positive and the other
        # expressions dominate every solution of the two-log equation
        terms["two_log_solved"] = upper_float(SHIFT_TWO_LOG_COEFF * log_a * _pow(log_a.log(), 3))
    return terms


def _three_log_solved(log_agh: PreciseReal, g: int, h: int) -> float:
    log_g, _, _, _, shift_log_g = _base_terms(g, h)
    return upper_float(shift_log_g * log_agh * _pow((log_g * log_agh).log(), 2))


def shift_exponent_bound(a: int, g: int, h: int) -> float:
    """Unconditional bound on the shift exponent n: if n exceeds this value,
    a*g**n + rev(a) is not a palindrome in base h.  Rounded outward.

    Only the three-log term of :func:`shift_exponent_bound_terms`, their maximum, is evaluated.  With
    A = log(a g h), G = log g >= log 3 and L = log(G A) > 0.677 it is 5.11e12 G A L**2; tail_fit <= A / log 2,
    two_log_solved <= 1.91e7 A L**3 is less while L <= 2.9e5, and dependence_degree = G A**2 / (log 2)**3 while
    A / L**2 <= 1.70e12.  A / L**2 <= A / log(A log 3)**2 falls up to A log 3 = e**2, then rises: refusing a
    prefix of more than 2**50 bits leaves a margin of 2.6 there, with g h <= MAX_BASE**2 and G = log 3.
    """
    require_family_bases(a, g, h)
    if a.bit_length() > _MAX_PREFIX_BITS:
        raise DomainError(f"prefix {shown(a)} has more than {_MAX_PREFIX_BITS} bits, past the proven shift bound")
    return _three_log_solved(hp_log(a, _EVAL_BITS) + _base_terms(g, h)[2], g, h)


# --------------------------------------------------------------------------
# Majorants for n = A (log n)^p + B
# --------------------------------------------------------------------------


def solve_log_majorant(A: float, B: float, power: int) -> float:
    """An upper bound for every real solution of n = A*(log n)**power + B.

    For ``power=1`` the closed form C*(log C)**2 with C = A + B/log(A) is
    used (valid for C > e**2), for ``power=2`` the form C*(log C)**3 with
    C = A + B/(log A)**2 (valid for C > 62).  Outside the validity range a
    direct numeric search for the largest solution takes over.  A must be a
    positive rational, B 0 or one (not NaN, an infinity or a string), and
    neither may exceed the largest float.
    """
    check_int(power, "power must be 1 or 2", 1, 2)
    positive_rational(A, "need a rational A > 0, got {!r}", A)
    if B != 0:
        positive_rational(B, "need a rational B >= 0, got {!r}", B)
    for name, x in (("A", A), ("B", B)):
        if x > sys.float_info.max:
            raise DomainError(f"{name} must not exceed the largest float, got {shown(x)!r}")
    if A > 1:
        logA = math.log(A)
        C = A + B / (logA if power == 1 else logA**2)
        if (power == 1 and C > math.e**2) or (power == 2 and C > 62):
            return C * math.log(C) ** (power + 1)
    return _largest_solution_numeric(A, B, power)


def _largest_solution_numeric(A: float, B: float, power: int) -> float:
    # direct search: beyond n0 the right-hand side grows slower than n,
    # so there is at most one upcrossing of f(n) = n - A*(log n)^p - B
    def f(n: float) -> float:
        return n - A * math.log(n) ** power - B

    n0 = max(3.0, B + 1.0)
    while power * A * math.log(n0) ** (power - 1) / n0 >= 1.0:
        n0 *= 2
    if f(n0) >= 0:
        return n0
    hi = n0
    while f(hi) <= 0:
        hi *= 2
    lo = hi / 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return hi
