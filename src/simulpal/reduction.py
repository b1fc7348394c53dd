"""Reduction of transcendence-theoretic bounds to searchable ranges.

The unconditional bound on the shift exponent of a structured palindrome
family is astronomically large.  This module shrinks it to something a
direct search can finish: certified continued-fraction convergents of
log g / log h feed either a Baker-Davenport reduction (when the family
ratio alpha is multiplicatively independent of the bases) or a convergent
sieve on the two-logarithm inequality (when a dependence witness exists).
The reduction has the integer base h of the Dujella-Petho form, so its bound
is a digit count; the convergent law makes every convergent a pair.  Every other
inequality is decided in certified interval arithmetic with precision escalation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import NamedTuple

from .bounds import require_family_bases, shift_exponent_bound
from .lindep import DependenceWitness, dependence_witness
from .precise import (
    DEFAULT_PRECISION,
    PreciseReal,
    UndecidedComparisonError,
    _escalate,
    check_precision,
    hp_log,
)
from .radix import DomainError, _digit_count, _reverse, check_int, is_palindrome, shown

# the direct scan's test, by the name perfbench's traced run wraps to count shifts; ROADMAP item 1b deletes it
is_palindrome_early_exit = is_palindrome

__all__ = [
    "Convergent",
    "ContinuedFraction",
    "ReductionProblem",
    "ReductionOutcome",
    "DependentCaseResult",
    "FamilyReport",
    "continued_fraction",
    "precompute_reduction_pairs",
    "baker_davenport_reduce",
    "dependent_case_check",
    "verify_family",
]


class Convergent(NamedTuple):
    """A convergent p/q of a continued fraction.  Every convergent of epsilon has ||q * epsilon|| < 1/q by
    the convergent law, so each is a reduction pair: a reduction of any bound X < q/2 uses one with
    kappa = q/(2X)."""

    p: int
    q: int


@dataclass(frozen=True)
class ContinuedFraction:
    """Certified partial quotients and convergents of a real number.

    ``exact`` is set when the input was rational and the expansion
    terminated before the requested length.
    """

    quotients: tuple[int, ...]
    convergents: tuple[Convergent, ...]
    exact: bool


def continued_fraction(x: PreciseReal, count: int) -> ContinuedFraction:
    """First ``count`` partial quotients of ``x`` with their convergents.

    Runs the interval continued-fraction recursion on the exact rational
    endpoints of the enclosure; a quotient is emitted only when both
    endpoints agree on it, and the enclosure is recomputed at doubled
    precision whenever they stop agreeing before ``count`` quotients are
    certain; past ``MAX_PRECISION`` bits, or on a value that cannot be
    refined, :class:`UndecidedComparisonError` is raised.  Rational inputs
    terminate exactly and may return fewer quotients.
    """
    check_int(count, "need an integer count of at least one quotient")

    def expand(cur: PreciseReal) -> tuple[list[int], bool] | None:
        lo, hi = cur.lower, cur.upper
        quotients: list[int] = []
        while len(quotients) < count:
            flo = lo.__floor__()
            if flo != hi.__floor__():
                return None
            quotients.append(flo)
            lo, hi = lo - flo, hi - flo
            if lo == 0 and hi == 0:
                return quotients, True
            if lo <= 0:
                # enclosure touches the integer: cannot certify whether the
                # expansion terminates here
                return None
            lo, hi = 1 / hi, 1 / lo
        return quotients, False

    quotients, exact = _escalate(
        (x,), expand, UndecidedComparisonError, f"continued fraction: {count} quotients not certain"
    )

    convergents, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    for a in quotients:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        convergents.append(Convergent(p1, q1))
    return ContinuedFraction(tuple(quotients), tuple(convergents), exact)


def precompute_reduction_pairs(epsilon: PreciseReal, X: int, count: int = 50) -> list[Convergent]:
    """Usable reduction pairs among the first ``count`` convergents of epsilon.

    Only convergents with q > 4X qualify (which keeps kappa = q/(2X) above
    2, so the per-instance test ||q delta|| > 1/kappa has room to succeed);
    each has ||q epsilon|| < 1/q by the convergent law (Khinchin, *Continued
    Fractions*, ch. I).  One list serves every instance over one base pair and X.
    """
    check_int(X, "the prior bound X must be a positive integer")
    return [pair for pair in continued_fraction(epsilon, count).convergents if pair.q > 4 * X]


@dataclass
class _BasePair:
    """What every prefix over one base pair shares: log h, epsilon = log g / log h, its longest expansion yet
    (50 quotients, more once a sieve needs them) and the reduction pairs, its first 50 convergents, of which
    each prefix takes those of q > 4X.  The pairs are taken once, so a sieve's longer expansion leaves them."""

    log_h: PreciseReal
    epsilon: PreciseReal
    cf: ContinuedFraction
    pairs: tuple[Convergent, ...]


@lru_cache
def _base_pair(g: int, h: int, bits: int) -> _BasePair:
    log_h = hp_log(h, bits)
    epsilon = hp_log(g, bits) / log_h  # as PreciseReal.log_ratio composes it
    cf = continued_fraction(epsilon, 50)
    return _BasePair(log_h, epsilon, cf, cf.convergents)


@lru_cache
def _c1(g: int, h: int, bits: int, n_a: int) -> PreciseReal:
    # the Baker-Davenport constant 11 h**n_a / (9 log h) of every prefix of n_a base-g digits
    return Fraction(11 * h**n_a, 9) / _base_pair(g, h, bits).log_h


@lru_cache(maxsize=1024)
def _convergent_terms(g: int, h: int, bits: int, p: int, q: int) -> tuple[PreciseReal, PreciseReal, PreciseReal]:
    # the dependent sieve's terms of one convergent p/q that no prefix changes:
    # |epsilon - p/q|, its log, and log q + log log h
    base = _base_pair(g, h, bits)
    err = abs(base.epsilon - Fraction(p, q))
    return err, err.log(), hp_log(q, bits) + base.log_h.log()


@dataclass(frozen=True)
class ReductionProblem:
    """Inequality |n1 + n2*epsilon + delta| < c1 * B**(-n2) with n2 <= X, in the form of Dujella and Petho
    (Quart. J. Math. Oxford 49, 1998), where c1 > 0, the base B is an integer >= 2 and each pair is a
    convergent of epsilon with q > 2X (kappa > 1)."""

    delta: PreciseReal
    c1: PreciseReal
    B: int
    X: int
    pairs: tuple[Convergent, ...]

    def __post_init__(self):
        check_int(self.X, "the prior bound X must be a positive integer")
        check_int(self.B, "the base B must be an integer at least 2", 2)
        _escalate((self.c1,), lambda c: c._signs()[0] > 0 or None, DomainError, "c1 must be certainly positive")
        for pair in self.pairs:
            if pair.q <= 2 * self.X:
                raise DomainError(f"pair q={shown(pair.q)} needs q > 2X, got X={shown(self.X)}")


@dataclass(frozen=True)
class ReductionOutcome:
    status: str  # "reduced" | "no-usable-pair"
    new_bound: int | None = None
    pair_used: Convergent | None = None


def baker_davenport_reduce(problem: ReductionProblem) -> ReductionOutcome:
    """Scan the prepared pairs in order; with kappa = q/(2X), the first whose
    certified test ||q * delta|| > 1/kappa = 2X/q succeeds reduces the bound on
    n2 to floor(log_B(2 kappa q c1)) = floor(log_B(q**2 c1 / X)): as X * B**t is an integer, the largest t
    with X * B**t <= F = floor(q**2 c1), or -1 (no n2 >= 0 left) if F < X.  If no pair qualifies the
    caller falls back to the unreduced bound.  With epsilon = log 3 / log 2, delta = 1/3, c1 = 1 and X = 1000:

    >>> pairs = tuple(precompute_reduction_pairs(PreciseReal.log_ratio(3, 2), 1000, 12))
    >>> delta, c1 = PreciseReal.exact(Fraction(1, 3)), PreciseReal.exact(1)
    >>> outcome = baker_davenport_reduce(ReductionProblem(delta, c1, 2, 1000, pairs))
    >>> outcome.pair_used.q, outcome.new_bound  # log_2(15601**2 / 1000) = 17.89
    (15601, 17)
    """
    for pair in problem.pairs:
        dist = (problem.delta * pair.q).dist_to_nearest_int()
        try:
            usable = dist.is_greater(Fraction(2 * problem.X, pair.q))
        except UndecidedComparisonError:
            # an exact tie cannot be certified either way; skipping the pair
            # only weakens the reduction, never its soundness
            continue
        if usable:
            ratio = (problem.c1 * (pair.q * pair.q)).floor() // problem.X
            return ReductionOutcome("reduced", _digit_count(ratio, problem.B) - 1 if ratio else -1, pair)
    return ReductionOutcome("no-usable-pair")


@dataclass(frozen=True)
class DependentCaseResult:
    """Outcome of the convergent sieve for a multiplicatively dependent ratio.

    All shifts n > bound are excluded; n <= bound remain for direct
    testing.  The two tuples record which convergent denominators were
    eliminated with the floor substitution and which with the
    denominator-driven substitution; ``survivors`` (normally empty) lists
    denominators excluded by neither, which forces bound = X.
    """

    bound: int
    floor: int
    q_ceiling: int
    small_regime: tuple[int, ...]
    large_regime: tuple[int, ...]
    survivors: tuple[int, ...]


def dependent_case_check(
    witness: DependenceWitness,
    a: int,
    g: int,
    h: int,
    X: int,
    n_floor: int = 30,
    *,
    s_bound: int | None = None,
    factor_floor: int | None = None,
    slack: int | None = None,
    bits: int = DEFAULT_PRECISION,
) -> DependentCaseResult:
    """Largest shift exponent a dependence witness cannot exclude.

    With alpha**r = g**s * h**t, a palindrome at shift n forces
    |(rn+s) log g - (rk-t) log h| < (11r/9) h**(slack-n), so the reduced
    fraction of (rk-t)/(rn+s) must be a convergent p/q of log g / log h
    with q | rn+s, once n is large enough that a non-convergent would
    contradict the best-approximation law (the floor is raised until that
    is certified).  Each convergent with q <= rX + s_bound is then ruled
    out by substituting the smallest admissible values: first n -> floor
    and factor -> factor_floor, and where that is too weak,
    n -> ceil((q - s_bound)/r) and factor -> q, comparing in the log
    domain.  ``s_bound`` defaults to |s| of the witness, ``factor_floor``
    to max(1, r*floor + s), ``slack`` to the digit count of ``a``.

    Bisection decides the candidates with about log2 of their number of
    certified comparisons, by two facts.  (1) For irrational epsilon (the
    bases are independent) err_k = |epsilon - p_k/q_k| strictly decreases
    (Khinchin, *Continued Fractions*, ch. I): the small regime, err_k >
    rhs_small, is a prefix [0, m).  (2) RHS_k = log c - n_sub(q_k) log h -
    (log q_k + log log h) does not increase, as n_sub = max(floor,
    ceil((q - s_bound)/r)) never falls, and log err_k >= log err_last by
    (1): once log err_last > RHS_k0 is certified, every k >= k0 is in the
    large regime.  k0 = m is tried first and bisected only if that fails;
    each k in [m, k0) is decided on its own.  The terms no prefix changes, |epsilon - p/q|, its log and
    log q + log log h, are kept per process, base pair and precision once probed, as is the longest
    expansion of epsilon; a call builds its right-hand sides.
    """
    require_family_bases(a, g, h)
    check_int(n_floor, "the testing floor must be a positive integer")
    check_int(X, "the prior bound X must be an integer at least the testing floor", n_floor)
    r, s = witness.r, witness.s
    s_bound = abs(s) if s_bound is None else check_int(s_bound, "s_bound must be a non-negative integer", 0)
    slack = _digit_count(a, g) if slack is None else check_int(slack, "slack must be a non-negative integer", 0)
    c = Fraction(11 * r, 9) * h**slack
    base = _base_pair(g, h, bits)
    log_h, eps = base.log_h, base.epsilon

    # raise the floor until a non-convergent ratio is impossible for all
    # n >= floor: h**n log h > 2 c (r n + s_bound) at the floor holds beyond it too, since
    # the left side's step h**n (h - 1) log h >= h**n log h exceeds 2 c r, the right side's
    floor_n = n_floor
    while not (log_h * Fraction(h) ** floor_n).is_greater(2 * c * (r * floor_n + s_bound)):
        floor_n += 1
        if floor_n > n_floor + 100000:
            raise UndecidedComparisonError("convergent-law floor did not stabilise")
    if factor_floor is None:
        factor_floor = max(1, r * floor_n + s)
    check_int(factor_floor, "factor_floor must be a positive integer")

    q_ceiling = r * X + s_bound
    cf = base.cf
    while not (cf.exact or cf.convergents[-1].q > q_ceiling):
        cf = base.cf = continued_fraction(eps, len(cf.quotients) + 20)
    candidates = [pair for pair in cf.convergents if pair.q <= q_ceiling]

    log_c = hp_log(c, bits)
    rhs_small = Fraction(c, factor_floor * h**floor_n) / log_h
    terms = lambda k: _convergent_terms(g, h, bits, *candidates[k])
    rhs_large = lambda k: log_c - max(floor_n, -((s_bound - candidates[k].q) // r)) * log_h - terms(k)[2]  # RHS_k
    ks = range(len(candidates))
    m = bisect_left(ks, True, key=lambda k: not terms(k)[0].is_greater(rhs_small))
    covered = lambda k: terms(-1)[1].is_greater(rhs_large(k))  # log err_last > RHS_k
    k0 = m if m == len(ks) or covered(m) else bisect_left(ks, True, lo=m + 1, key=covered)
    large_regime, survivors = [], []
    for k in range(m, k0):
        (large_regime if terms(k)[1].is_greater(rhs_large(k)) else survivors).append(candidates[k].q)

    return DependentCaseResult(
        bound=X if survivors else floor_n - 1, floor=floor_n, q_ceiling=q_ceiling,
        small_regime=tuple(q for _, q in candidates[:m]),
        large_regime=tuple(large_regime + [q for _, q in candidates[k0:]]), survivors=tuple(survivors),
    )


@dataclass(frozen=True)
class FamilyReport:
    """Certified answer to: for which n is a*g**n + rev(a) a base-h palindrome?

    ``status`` is ``complete`` when ``ns`` is provably the full list, or
    ``undecided`` when the reduction produced no usable pair and the
    remaining range was too large to test, in which case ``ns`` is the
    full list only for n <= undecided_above.
    """

    a: int
    g: int
    h: int
    alpha: Fraction | None
    ns: tuple[int, ...]
    status: str
    branch: str  # "excluded-parity" | "independent" | "dependent"
    bound: int
    reduced_bound: int | None
    pair_used: Convergent | None
    dependent_result: DependentCaseResult | None
    witness: DependenceWitness | None
    tested_upper: int
    undecided_above: int | None


def verify_family(
    a: int,
    g: int,
    h: int,
    *,
    bits: int = DEFAULT_PRECISION,
    pairs: list[Convergent] | None = None,
    bound: int | None = None,
    exhaustive_limit: int = 2000,
) -> FamilyReport:
    """The complete list of shifts n making a*g**n + rev(a) a base-h palindrome.

    Pipeline: an unconditional bound X on n, the three-log term of :func:`shift_exponent_bound`;
    a dependence decision for alpha = a / rev(rev(a, g), h); Baker-Davenport reduction (independent
    case) or the convergent sieve (dependent case) to shrink X to a small top; then direct early-exit
    testing of every remaining shift, each first by its top base-h digits.  Lemma: with ell the base-h digit
    count of rev(a) and b = rev(rev(a), h), a base-h palindrome x = a*g**n + rev(a) with h**n > rev(a), that is
    n >= ell, begins with the ell digits of b.  Proof: h | g, so h**n | g**n and x = rev(a) mod h**n; as
    rev(a) < h**n, the lowest ell digits of x are those of rev(a).  Every branch that scans has rev(a) % h != 0,
    so b, their reversal, has exactly ell digits, and x >= rev(a) has at least ell.  So the palindrome test
    runs only on a shift whose top ell digits read b, or with n < ell.
    The work that depends only on (g, h, bits), the reduction pairs included,
    is done once per process, and each prefix takes the pairs of q > 4X;
    ``pairs`` replaces them, for example with pairs for a model bound or an
    empty list.  If no reduction applies and the unreduced range exceeds
    ``exhaustive_limit``, the report comes back ``undecided`` above the
    tested range instead of silently truncating.

    Raises :class:`DomainError` at entry, its only check of a, g and h,
    unless a is a positive int that g does not divide, g and h pass
    ``require_family_bases``, ``bits`` is an int in [1, MAX_PRECISION],
    ``bound`` is None or a positive int and ``exhaustive_limit`` an int >= 0.
    """
    check_precision(bits)
    if bound is not None:
        check_int(bound, "the prior bound X must be a positive integer")
    check_int(exhaustive_limit, "the exhaustive limit must be a non-negative integer", 0)
    require_family_bases(a, g, h)
    if a % g == 0:
        raise DomainError(f"{g} divides {shown(a)}: family values are not base-{g} palindromes")
    rev_a = _reverse(a, g)
    n_a = _digit_count(a, g)
    b, ell = _reverse(rev_a, h), _digit_count(rev_a, h)
    alpha = witness = reduced_bound = pair_used = dependent_result = None
    # each branch proves that no shift n > certified with n >= floor gives a
    # palindrome (certified None: it proves nothing); the shifts below floor
    # are left to the direct scan
    if rev_a % h == 0:
        # h | g makes every family value congruent to rev(a) mod h; a base-h
        # palindrome cannot be divisible by h
        branch, X, certified, floor = "excluded-parity", 0, 0, 0
    else:
        X = bound if bound is not None else ceil(shift_exponent_bound(a, g, h))
        alpha = Fraction(a, b)
        witness = dependence_witness(alpha, g, h)
        # below this shift the digit-containment regime does not apply (a zero run m needs h**m > g*a)
        regime_floor = n_a + max(_digit_count(g * a, h), 2)
        branch = "independent" if witness is None else "dependent"
        if witness is None:
            base = _base_pair(g, h, bits)
            delta = hp_log(alpha, bits) / base.log_h
            first = bisect_left(base.pairs, 4 * X + 1, key=lambda pair: pair.q)  # their q ascend
            pairs = base.pairs[first:] if pairs is None else tuple(pairs)
            outcome = baker_davenport_reduce(ReductionProblem(delta, _c1(g, h, bits, n_a), h, X, pairs))
            reduced_bound, pair_used = outcome.new_bound, outcome.pair_used
            certified, floor = reduced_bound, regime_floor
        elif X < max(30, regime_floor):
            # the sieve needs X at least at its floor; below it the prior
            # bound alone leaves every shift up to X to the scan
            certified, floor = X, 0
        else:
            dependent_result = dependent_case_check(
                witness, a, g, h, X, n_floor=max(30, regime_floor), slack=n_a, bits=bits
            )
            certified = None if dependent_result.survivors else dependent_result.bound
            floor = dependent_result.floor

    status, undecided_above = "complete", None
    if certified is not None:
        top = max(certified, floor - 1)
    elif X <= exhaustive_limit:
        top = X
    else:
        status = "undecided"
        top = undecided_above = max(floor - 1, exhaustive_limit)

    ns = []
    power, h_ell, P = g**n_a, h**ell, 1  # P = h**(L - ell) for x of L base-h digits, once n >= ell
    for n in range(n_a, top + 1):
        x = a * power + rev_a
        power *= g
        if n >= ell:  # the lemma: a palindrome's top ell digits read b
            while h != 2 and P * h_ell <= x:
                P *= h
            if (x >> (x.bit_length() - ell) if h == 2 else x // P) != b:
                continue
        if is_palindrome_early_exit(x, h):
            ns.append(n)

    return FamilyReport(
        a=a, g=g, h=h, alpha=alpha, ns=tuple(ns), status=status, branch=branch, bound=X, reduced_bound=reduced_bound,
        pair_used=pair_used, dependent_result=dependent_result, witness=witness, tested_upper=top,
        undecided_above=undecided_above,
    )
