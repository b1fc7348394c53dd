"""Explicit bounds certifying when a structured palindrome cannot exist.

Everything here evaluates closed-form expressions: Matveev's lower bound
for linear forms in n logarithms, the two-logarithm lower bound of
Laurent, Mignotte and Nesterenko, the threshold on the middle zero run of
a structured palindrome beyond which it cannot be a palindrome in the
second base, the resulting unconditional bound on the shift exponent, and
majorants for the implicit equations n = A*(log n)**p + B those bounds
produce.  Evaluation uses interval arithmetic with outward rounding, so a
reported threshold is always an upper bound of the exact expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lindep
from .lindep import PreconditionError
from .precise import PreciseReal, hp_exp, hp_log
from .radix import DomainError, check_base, digit_count

# evaluation precision for closed-form bound expressions
_EVAL_BITS = 128

# assembled constants of the underlying transcendence estimates, exact
THREE_LOG_COEFF = Fraction(2_022 * 10**7)  # 2.022e10, with the three-log bound
TWO_LOG_COEFF = Fraction(142)  # with the two-log bound
SHIFT_THREE_LOG_COEFF = Fraction(511 * 10**10)  # 5.11e12, solved form of the above
SHIFT_TWO_LOG_COEFF = Fraction(191 * 10**5)  # 1.91e7, solved form of the above


def _float_up(q: Fraction) -> float:
    f = q.numerator / q.denominator
    if Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def _float_down(q: Fraction) -> float:
    f = q.numerator / q.denominator
    if Fraction(f) > q:
        f = math.nextafter(f, -math.inf)
    return f


def weil_height(x) -> float:
    """Absolute logarithmic Weil height of a positive rational: log max(|p|, q).

    >>> import math
    >>> math.isclose(weil_height(5), math.log(5))
    True
    >>> weil_height(1)
    0.0
    """
    q = Fraction(x)
    if q <= 0:
        raise DomainError(f"height computed for positive rationals only, got {x!r}")
    return _float_up(_height_and_abs_log(q)[0])


def _height_and_abs_log(q: Fraction) -> tuple[Fraction, Fraction]:
    # upper ends of the enclosures of log max(|p|, q) and of |log q|
    height = hp_log(max(abs(q.numerator), q.denominator), _EVAL_BITS)
    return height.upper, abs(hp_log(q, _EVAL_BITS)).upper


def require_family_bases(a: int, g: int, h: int) -> None:
    """Validate the standing hypotheses: 2 <= h < g, h | g, g and h
    multiplicatively independent, and a positive."""
    check_base(g)
    check_base(h)
    if a < 1:
        raise DomainError("prefix a must be a positive integer")
    if not 2 <= h < g:
        raise PreconditionError(f"need 2 <= h < g, got h={h}, g={g}")
    if g % h != 0:
        raise PreconditionError(f"need h | g, got h={h}, g={g}")
    if not lindep.multiplicatively_independent(g, h):
        raise PreconditionError(f"bases {g} and {h} are multiplicatively dependent")


# --------------------------------------------------------------------------
# Matveev's bound for linear forms in n logarithms (rational case, D = 1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MatveevInstance:
    """Data of a linear form b_1 log a_1 + ... + b_n log a_n over rationals.

    ``A`` entries must dominate max(D*height(alpha_i), |log alpha_i|); when
    omitted they are computed (rounded outward).  ``kappa`` is 1 for a real
    field, 2 otherwise.
    """

    alphas: tuple
    b_coeffs: tuple[int, ...]
    D: int = 1
    kappa: int = 1
    A: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.alphas) != len(self.b_coeffs):
            raise PreconditionError("need one integer coefficient per logarithm")
        if len(self.alphas) < 2:
            raise PreconditionError("a linear form needs at least two logarithms")
        if self.b_coeffs[-1] == 0:
            raise PreconditionError("the last coefficient must be nonzero")
        for x in self.alphas:
            q = Fraction(x)
            if q <= 0 or q == 1:
                raise PreconditionError(f"logarithm arguments must be positive and != 1, got {x}")
        if self.A is not None and len(self.A) != len(self.alphas):
            raise PreconditionError("need one height bound per logarithm")


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


def _height_bounds(inst: MatveevInstance) -> tuple[float, ...]:
    if inst.A is not None:
        return tuple(float(a) for a in inst.A)
    out = []
    for x in inst.alphas:
        height, logabs = _height_and_abs_log(Fraction(x))
        out.append(_float_up(max(inst.D * height, logabs)))
    return tuple(out)


def _pow(x: PreciseReal, k: int) -> PreciseReal:
    out = PreciseReal.exact(1)
    for _ in range(k):
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


def matveev_constant(n: int, kappa: int = 1) -> float:
    """The combinatorial constant C(n, kappa) of Matveev's theorem."""
    return _float_up(_matveev_cn(n, kappa).upper)


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
        C_n=_float_up(c_n.upper),
        C0=_float_up(c0.upper),
        W0=_float_up(w0.upper),
        Omega=_float_up(omega),
        B_bound=_float_up(b_ratio),
        A=A,
        value=_float_down(-total.upper),
    )


# --------------------------------------------------------------------------
# Two-logarithm bound (Laurent, Mignotte, Nesterenko)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentInstance:
    """Data of |b2 log a2 - b1 log a1| for multiplicatively independent
    positive rationals, with log A_i >= max(height, |log|/D, 1/D)."""

    alpha1: Fraction
    alpha2: Fraction
    b1: int
    b2: int
    D: int = 1
    logA1: float | None = None
    logA2: float | None = None

    def __post_init__(self):
        a1, a2 = Fraction(self.alpha1), Fraction(self.alpha2)
        if a1 <= 0 or a2 <= 0:
            raise PreconditionError("logarithm arguments must be positive")
        if self.b1 <= 0 or self.b2 <= 0:
            raise PreconditionError("the two coefficients must be positive integers")
        if (
            a1.denominator == a2.denominator == 1
            and not lindep.multiplicatively_independent(a1.numerator, a2.numerator)
        ):
            raise PreconditionError(f"{a1} and {a2} are multiplicatively dependent")


@dataclass(frozen=True)
class LaurentEvaluation:
    """``value`` is kept as an exact positive rational: the bound routinely
    falls below float range (exp of -10000 and smaller); ``log_value`` is
    its natural logarithm as a float, rounded downward."""

    logA1: float
    logA2: float
    b_prime: float
    log_b: float
    value: Fraction
    log_value: float


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
    bound = hp_exp(-exponent, _EVAL_BITS)
    return LaurentEvaluation(
        logA1=_float_up(logA1),
        logA2=_float_up(logA2),
        b_prime=_float_up(b_prime),
        log_b=_float_up(log_b),
        value=bound.lower,
        log_value=_float_down(-exponent),
    )


# --------------------------------------------------------------------------
# Thresholds for the structured family a*g**n + rev(a)
# --------------------------------------------------------------------------


def tail_fit_threshold(a: int, g: int, h: int) -> float:
    """log(g*a)/log h: zero runs longer than this guarantee the reversed
    prefix fits inside the base-h digits pinned down by the low block."""
    check_base(g)
    check_base(h)
    if a < 1:
        raise DomainError("prefix a must be a positive integer")
    return _float_up(PreciseReal.log_ratio(g * a, h, _EVAL_BITS).upper)


def min_zero_run_for_tail_fit(a: int, g: int, h: int) -> int:
    """Smallest integer zero-run length m with h**m > g*a: the base-h digit
    count of g*a."""
    check_base(g)
    return digit_count(g * a, h)


@lru_cache
def _base_terms(g: int) -> tuple[PreciseReal, PreciseReal]:
    # log g and (log 2)**3, shared by every prefix over base g
    return hp_log(g, _EVAL_BITS), _pow(hp_log(2, _EVAL_BITS), 3)


def _shared_terms(a: int, g: int, h: int) -> tuple[PreciseReal, PreciseReal, dict[str, PreciseReal]]:
    # log g, log(a g h) and the dependence-degree term, which both thresholds use
    log_g, log2cubed = _base_terms(g)
    log_agh = hp_log(a * g * h, _EVAL_BITS)
    return log_g, log_agh, {"dependence_degree": log_g * _pow(log_agh, 2) / log2cubed}


def zero_run_threshold_terms(a: int, g: int, h: int, n: int) -> dict[str, float]:
    """The four competing expressions whose maximum is the zero-run threshold."""
    require_family_bases(a, g, h)
    if n < 1:
        raise DomainError("shift exponent must be positive")
    log_g, log_agh, terms = _shared_terms(a, g, h)
    log_n = hp_log(n, _EVAL_BITS)
    terms["two_log"] = TWO_LOG_COEFF * _pow(log_n, 2) * log_g
    terms["three_log"] = THREE_LOG_COEFF * log_g * log_agh * log_n
    return {"tail_fit": tail_fit_threshold(a, g, h)} | {k: _float_up(v.upper) for k, v in terms.items()}


def zero_run_threshold(a: int, g: int, h: int, n: int) -> float:
    """Threshold on the middle zero run of a base-g palindrome built from
    prefix ``a`` and shift ``n``: a run strictly longer than this cannot
    occur in a base-h palindrome.  Rounded outward (upward)."""
    return max(zero_run_threshold_terms(a, g, h, n).values())


def shift_exponent_bound_terms(a: int, g: int, h: int) -> dict[str, float]:
    """The competing expressions whose maximum bounds the shift exponent."""
    require_family_bases(a, g, h)
    log_g, log_agh, terms = _shared_terms(a, g, h)
    terms["three_log_solved"] = SHIFT_THREE_LOG_COEFF * log_g * log_agh * _pow((log_g * log_agh).log(), 2)
    if a >= 3:
        # below a = 3 the iterated logarithm is non-positive and the other
        # expressions dominate every solution of the two-log equation
        log_a = hp_log(a, _EVAL_BITS)
        terms["two_log_solved"] = SHIFT_TWO_LOG_COEFF * log_a * _pow(log_a.log(), 3)
    return {"tail_fit": tail_fit_threshold(a, g, h)} | {k: _float_up(v.upper) for k, v in terms.items()}


def shift_exponent_bound(a: int, g: int, h: int) -> float:
    """Unconditional bound on the shift exponent n: if n exceeds this value,
    a*g**n + rev(a) is not a palindrome in base h.  Rounded outward."""
    return max(shift_exponent_bound_terms(a, g, h).values())


# --------------------------------------------------------------------------
# Majorants for n = A (log n)^p + B
# --------------------------------------------------------------------------


def solve_log_majorant(A: float, B: float, power: int) -> float:
    """An upper bound for every real solution of n = A*(log n)**power + B.

    For ``power=1`` the closed form C*(log C)**2 with C = A + B/log(A) is
    used (valid for C > e**2), for ``power=2`` the form C*(log C)**3 with
    C = A + B/(log A)**2 (valid for C > 62).  Outside the validity range a
    direct numeric search for the largest solution takes over.
    """
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    if A <= 0 or B < 0:
        raise DomainError("need A > 0 and B >= 0")
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
