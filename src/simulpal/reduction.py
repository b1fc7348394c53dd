"""Reduction of transcendence-theoretic bounds to searchable ranges.

The unconditional bound on the shift exponent of a structured palindrome
family is astronomically large.  This module shrinks it to something a
direct search can finish: certified continued-fraction convergents of
log g / log h feed either a Baker-Davenport reduction (when the family
ratio alpha is multiplicatively independent of the bases) or a convergent
sieve on the two-logarithm inequality (when a dependence witness exists).
Every inequality along the way is decided in certified interval
arithmetic with automatic precision escalation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil

from .bounds import min_zero_run_for_tail_fit, require_family_bases, shift_exponent_bound
from .lindep import DependenceWitness, dependence_witness
from .palgen import FamilyError
from .precise import (
    DEFAULT_PRECISION,
    PreciseReal,
    UndecidedComparisonError,
    _escalate,
    check_precision,
    hp_log,
)
from .radix import DomainError, digit_count, is_palindrome_early_exit, reverse_in_base

__all__ = [
    "ContinuedFraction",
    "ReductionPair",
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


@dataclass(frozen=True)
class ContinuedFraction:
    """Certified partial quotients and convergents of a real number.

    ``exact`` is set when the input was rational and the expansion
    terminated before the requested length.
    """

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
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
    if count < 1:
        raise DomainError("need at least one quotient")

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

    ps: list[int] = [0, 1]
    qs: list[int] = [1, 0]
    convergents = []
    for a in quotients:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
        convergents.append((ps[-1], qs[-1]))
    return ContinuedFraction(tuple(quotients), tuple(convergents), exact)


@dataclass(frozen=True)
class ReductionPair:
    """A convergent denominator prepared for the reduction step.

    ``kappa = q / (2X)``; the pair is stored only after the certified
    check ``||q * epsilon|| < 1/(2 kappa X) = 1/q``.
    """

    p: int
    q: int
    kappa: Fraction


def _certified(epsilon: PreciseReal, convergents) -> tuple[tuple[int, int], ...]:
    # the convergents p/q whose hypothesis ||q epsilon|| < 1/q is certified
    return tuple((p, q) for p, q in convergents if abs(epsilon * q - p).is_less(Fraction(1, q)))


def _pairs(certified, X: int) -> list[ReductionPair]:
    return [ReductionPair(p=p, q=q, kappa=Fraction(q, 2 * X)) for p, q in certified if q > 4 * X]


def precompute_reduction_pairs(epsilon: PreciseReal, X: int, count: int = 50) -> list[ReductionPair]:
    """Usable reduction pairs among the first ``count`` convergents of epsilon.

    Only convergents with q > 4X qualify (which keeps
    kappa = q/(2X) above 2, so the per-instance test ||q delta|| > 1/kappa
    has room to succeed); for each the hypothesis ||q epsilon|| < 1/q is
    certified by interval arithmetic before the pair is admitted.
    Pairs are independent of the shifted term, so one list serves every
    family instance over the same base pair.
    """
    if X < 1:
        raise DomainError("the prior bound X must be a positive integer")
    return _pairs(_certified(epsilon, continued_fraction(epsilon, count).convergents), X)


@dataclass(frozen=True)
class _BasePair:
    """What every prefix over one base pair shares: log h, epsilon =
    log g / log h, its first 50 partial quotients and the convergents that
    pass the certified check ||q epsilon|| < 1/q, which does not depend on X."""

    log_h: PreciseReal
    epsilon: PreciseReal
    cf: ContinuedFraction
    certified: tuple[tuple[int, int], ...]


@lru_cache
def _base_pair(g: int, h: int, bits: int) -> _BasePair:
    epsilon = PreciseReal.log_ratio(g, h, bits)
    cf = continued_fraction(epsilon, 50)
    return _BasePair(hp_log(h, bits), epsilon, cf, _certified(epsilon, cf.convergents))


@dataclass(frozen=True)
class ReductionProblem:
    """Inequality |n1 + n2*epsilon + delta| < c1*exp(-n2*c2) with n2 <= X."""

    epsilon: PreciseReal
    delta: PreciseReal
    c1: PreciseReal
    c2: PreciseReal
    X: int
    pairs: tuple[ReductionPair, ...]

    def __post_init__(self):
        for pair in self.pairs:
            if pair.kappa <= 1:
                raise DomainError(f"pair q={pair.q} has kappa <= 1")
            if Fraction(self.X, pair.q) > 1 / (2 * pair.kappa):
                raise DomainError(f"pair q={pair.q} violates X/q <= 1/(2 kappa)")


@dataclass(frozen=True)
class ReductionOutcome:
    status: str  # "reduced" | "no-usable-pair"
    new_bound: int | None = None
    pair_used: ReductionPair | None = None


def baker_davenport_reduce(problem: ReductionProblem) -> ReductionOutcome:
    """Scan the prepared pairs in order; the first (q, kappa) whose certified
    test ||q * delta|| > 1/kappa succeeds reduces the bound on n2 to
    floor(log(2 kappa q c1) / c2).  If no pair qualifies the caller falls
    back to the unreduced bound."""
    for pair in problem.pairs:
        dist = (problem.delta * pair.q).dist_to_nearest_int()
        try:
            usable = dist.is_greater(1 / pair.kappa)
        except UndecidedComparisonError:
            # an exact tie cannot be certified either way; skipping the pair
            # only weakens the reduction, never its soundness
            continue
        if usable:
            value = (2 * pair.kappa * pair.q * problem.c1).log() / problem.c2
            return ReductionOutcome("reduced", value.upper.__floor__(), pair)
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
    """
    require_family_bases(a, g, h)
    if X < n_floor:
        raise DomainError("the prior bound X must be at least the testing floor")
    r, s = witness.r, witness.s
    if s_bound is None:
        s_bound = abs(s)
    if slack is None:
        slack = digit_count(a, g)
    c = Fraction(11 * r, 9) * h**slack
    base = _base_pair(g, h, bits)
    log_h, eps = base.log_h, base.epsilon

    # raise the floor until a non-convergent ratio is impossible for all
    # n >= floor: h**n log h >= 2 c (r n + s_bound), plus an increment check
    # making the left side grow faster from there on
    floor_n = n_floor
    while True:
        lhs = log_h * Fraction(h) ** floor_n
        if lhs.is_greater(2 * c * (r * floor_n + s_bound)) and (
            log_h * (Fraction(h) ** floor_n * (h - 1))
        ).is_greater(2 * c * r):
            break
        floor_n += 1
        if floor_n > n_floor + 100000:
            raise UndecidedComparisonError("convergent-law floor did not stabilise")
    if factor_floor is None:
        factor_floor = max(1, r * floor_n + s)

    q_ceiling = r * X + s_bound
    cf = base.cf
    while not (cf.exact or cf.convergents[-1][1] > q_ceiling):
        cf = continued_fraction(eps, len(cf.quotients) + 20)
    candidates = [(p, q) for p, q in cf.convergents if q <= q_ceiling]

    small_regime = []
    large_regime = []
    survivors = []
    log_c = hp_log(c, bits)
    log_log_h = log_h.log()
    rhs_small = Fraction(c, factor_floor * h**floor_n) / log_h
    for p, q in candidates:
        err = abs(eps - Fraction(p, q))
        if err.is_greater(rhs_small):
            small_regime.append(q)
            continue
        n_sub = max(floor_n, -((s_bound - q) // r))  # ceil((q - s_bound) / r)
        rhs_log = log_c - n_sub * log_h - (hp_log(q, bits) + log_log_h)
        if err.log().is_greater(rhs_log):
            large_regime.append(q)
        else:
            survivors.append(q)

    bound = X if survivors else floor_n - 1
    return DependentCaseResult(
        bound=bound,
        floor=floor_n,
        q_ceiling=q_ceiling,
        small_regime=tuple(small_regime),
        large_regime=tuple(large_regime),
        survivors=tuple(survivors),
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
    pair_used: ReductionPair | None
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
    pairs: list[ReductionPair] | None = None,
    bound: int | None = None,
    exhaustive_limit: int = 2000,
) -> FamilyReport:
    """The complete list of shifts n making a*g**n + rev(a) a base-h palindrome.

    Pipeline: an unconditional bound X on n; a dependence decision for
    alpha = a / rev(rev(a, g), h); Baker-Davenport reduction (independent
    case) or the convergent sieve (dependent case) to shrink X to a small
    top; then direct early-exit testing of every remaining shift.
    The work that depends only on (g, h, bits) is done once per process;
    ``pairs`` replaces the reduction pairs built from it, for example with
    pairs for a model bound or an empty list.  If no reduction applies and the unreduced range
    exceeds ``exhaustive_limit``, the report comes back ``undecided``
    above the tested range instead of silently truncating.
    """
    check_precision(bits)
    require_family_bases(a, g, h)
    if a % g == 0:
        raise FamilyError(f"{g} divides {a}: family values are not base-{g} palindromes")
    rev_a = reverse_in_base(a, g)
    n_a = digit_count(a, g)
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
        if X < 1:
            raise DomainError("the prior bound X must be a positive integer")
        alpha = Fraction(a, reverse_in_base(rev_a, h))
        witness = dependence_witness(alpha, g, h)
        # below this shift the digit-containment regime does not apply
        regime_floor = n_a + max(min_zero_run_for_tail_fit(a, g, h), 2)
        branch = "independent" if witness is None else "dependent"
        if witness is None:
            base = _base_pair(g, h, bits)
            log_h = base.log_h
            delta = hp_log(alpha, bits) / log_h
            c1 = Fraction(11 * h**n_a, 9) / log_h
            pairs = tuple(_pairs(base.certified, X) if pairs is None else pairs)
            outcome = baker_davenport_reduce(ReductionProblem(base.epsilon, delta, c1, log_h, X, pairs))
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
    power = g**n_a
    for n in range(n_a, top + 1):
        if is_palindrome_early_exit(a * power + rev_a, h):
            ns.append(n)
        power *= g

    return FamilyReport(
        a=a,
        g=g,
        h=h,
        alpha=alpha,
        ns=tuple(ns),
        status=status,
        branch=branch,
        bound=X,
        reduced_bound=reduced_bound,
        pair_used=pair_used,
        dependent_result=dependent_result,
        witness=witness,
        tested_upper=top,
        undecided_above=undecided_above,
    )
