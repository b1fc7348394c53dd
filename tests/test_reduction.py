from fractions import Fraction
from math import ceil

import mpmath
import pytest

from simulpal.bounds import shift_exponent_bound
from simulpal.lindep import DependenceWitness, dependence_witness
from simulpal.palgen import FamilyError, family_instance
from simulpal.precise import PreciseReal, hp_log
from simulpal.radix import is_palindrome, reverse_in_base
from simulpal.reduction import (
    _base_pair,
    _pairs,
    ReductionOutcome,
    ReductionProblem,
    baker_davenport_reduce,
    continued_fraction,
    dependent_case_check,
    precompute_reduction_pairs,
    verify_family,
)

from conftest import oracle_is_palindrome

X_MODEL = 2_650_000_000_000_000  # prior shift bound for bases (10, 2), prefixes < 1e6


def oracle_quotients(count):
    """Independent continued-fraction expansion of log 10 / log 2 at high
    working precision, no interval machinery involved."""
    with mpmath.workdps(250):
        x = mpmath.log(10) / mpmath.log(2)
        out = []
        for _ in range(count):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        return out


def test_continued_fraction_matches_oracle():
    x = PreciseReal.log_ratio(10, 2, 192)
    cf = continued_fraction(x, 50)
    assert list(cf.quotients) == oracle_quotients(50)
    assert not cf.exact
    assert cf.convergents[:6] == ((3, 1), (10, 3), (93, 28), (196, 59), (485, 146), (2136, 643))


def test_continued_fraction_rational_terminates():
    cf = continued_fraction(PreciseReal.exact(Fraction(3, 2)), 10)
    assert cf.quotients == (1, 2)
    assert cf.exact
    assert cf.convergents[-1] == (3, 2)


def test_convergent_law_certified():
    x = PreciseReal.log_ratio(10, 2, 192)
    cf = continued_fraction(x, 30)
    for p, q in cf.convergents:
        # |x q - p| < 1/q, certified by interval comparison
        assert abs(x * q - p).is_less(Fraction(1, q))
        # and the classical quality bound |x - p/q| < 1/q**2
        assert abs(x - Fraction(p, q)).is_less(Fraction(1, q * q))


def test_precompute_pairs_model_case():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    assert len(pairs) == 16
    assert all(pair.q > 4 * X_MODEL for pair in pairs)
    assert all(pair.kappa == Fraction(pair.q, 2 * X_MODEL) > 2 for pair in pairs)
    # denominators ascend, so the scan prefers the smallest usable q
    qs = [pair.q for pair in pairs]
    assert qs == sorted(qs)


def test_precompute_pairs_small_bound():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, 10, 12)
    assert pairs
    assert all(pair.q > 40 and pair.kappa > 1 for pair in pairs)


def test_precompute_pairs_rational_epsilon():
    pairs = precompute_reduction_pairs(PreciseReal.exact(Fraction(7, 2)), 10**6, 10)
    assert pairs == []


def test_reduction_problem_validation():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    bad = type(pairs[0])(p=pairs[0].p, q=pairs[0].q, kappa=Fraction(1, 2))
    with pytest.raises(ValueError):
        ReductionProblem(eps, eps, hp_log(2), hp_log(2), X_MODEL, (bad,))


def _model_problem(a, pairs, bits=192):
    log2 = hp_log(2, bits)
    rr = reverse_in_base(reverse_in_base(a, 10), 2)
    delta = hp_log(Fraction(a, rr), bits) / log2
    c1 = Fraction(11 * 2**6, 9) / log2
    return ReductionProblem(
        PreciseReal.log_ratio(10, 2, bits), delta, c1, log2, X_MODEL, tuple(pairs)
    )


def test_baker_davenport_model_sample():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    reduced = 0
    for a in range(3, 400):
        if a % 10 == 0 or reverse_in_base(a, 10) % 2 == 0:
            continue
        if dependence_witness(Fraction(a, reverse_in_base(reverse_in_base(a, 10), 2)), 10, 2):
            continue
        outcome = baker_davenport_reduce(_model_problem(a, pairs))
        assert outcome.status == "reduced"
        assert outcome.new_bound <= 81
        reduced += 1
    assert reduced > 100


def test_baker_davenport_soundness_above_new_bound():
    # once the pair fires, the defining inequality must already fail just
    # above the reduced bound and at the prior bound
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    problem = _model_problem(74, pairs)
    outcome = baker_davenport_reduce(problem)
    assert outcome.status == "reduced"
    q, kappa = outcome.pair_used.q, outcome.pair_used.kappa
    for n2 in (outcome.new_bound + 1, X_MODEL):
        lhs = (problem.c1 * q).log() - n2 * problem.c2
        rhs = hp_log(Fraction(1, 2 * kappa))
        assert lhs.is_less(rhs)


def test_baker_davenport_zero_shift_has_no_pair():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    problem = ReductionProblem(
        eps, PreciseReal.exact(0), Fraction(11 * 64, 9) / hp_log(2), hp_log(2), X_MODEL, tuple(pairs)
    )
    assert baker_davenport_reduce(problem) == ReductionOutcome("no-usable-pair")


def test_baker_davenport_synthetic_hand_checked():
    # epsilon = log 3 / log 2, delta = 1/3, c1 = 1, c2 = 1, X = 1000:
    # the first usable convergent is q = 15601, so the bound drops to
    # floor(log(2 kappa q)) = 12
    eps = PreciseReal.log_ratio(3, 2, 192)
    X = 1000
    pairs = precompute_reduction_pairs(eps, X, 12)
    assert pairs[0].q == 15601
    problem = ReductionProblem(
        eps, PreciseReal.exact(Fraction(1, 3)), PreciseReal.exact(1), PreciseReal.exact(1), X, tuple(pairs)
    )
    outcome = baker_davenport_reduce(problem)
    assert outcome.status == "reduced"
    assert outcome.pair_used.q == 15601
    assert outcome.new_bound == 12
    # inequality chain: c1 q exp(-n2 c2) > 1/(2 kappa) holds up to the bound
    # and fails beyond it
    kappa = outcome.pair_used.kappa
    assert 15601 * mpmath.exp(-12) > float(1 / (2 * kappa))
    assert 15601 * mpmath.exp(-13) < float(1 / (2 * kappa))


def test_dependent_case_model_structure():
    witness = DependenceWitness(1, 0, 0, degenerate=True)
    result = dependent_case_check(
        witness, 999_999, 10, 2, X_MODEL, n_floor=30, s_bound=34, factor_floor=30, slack=6
    )
    assert result.floor == 30
    assert result.bound == 29
    assert result.q_ceiling == X_MODEL + 34
    assert len(result.small_regime) == 8
    assert len(result.large_regime) == 24
    assert result.survivors == ()
    # the small regime knocks out exactly the first eight convergents
    eps = PreciseReal.log_ratio(10, 2, 192)
    cf = continued_fraction(eps, 40)
    first_qs = [q for _, q in cf.convergents[:8]]
    assert list(result.small_regime) == first_qs
    assert max(result.large_regime) < 2_660_000_000_000_000


def test_dependent_case_with_witness_defaults():
    # a = 2: alpha = 2 / rev(rev(2,10),2) = 2/1 = 2 with witness (1, 0, 1)
    witness = dependence_witness(Fraction(2), 10, 2)
    assert (witness.r, witness.s, witness.t) == (1, 0, 1)
    result = dependent_case_check(witness, 2, 10, 2, X_MODEL)
    assert result.survivors == ()
    assert result.bound < 50


def test_dependent_case_with_r_above_one():
    # bases (24, 6) leave an index-two exponent lattice, so ratios like 2
    # carry witnesses with r = 2; the sieve must scale the inequality by r
    witness = dependence_witness(Fraction(2), 24, 6)
    assert witness.r == 2
    result = dependent_case_check(witness, 5, 24, 6, 10**8)
    assert result.q_ceiling == 2 * 10**8 + abs(witness.s)
    assert result.survivors == ()
    assert result.bound < 50


def test_verify_family_examples():
    assert 3 in verify_family(9, 10, 2).ns
    assert verify_family(74, 10, 2).ns == (2,)
    report = verify_family(1, 10, 2)
    assert report.ns == () and report.branch == "dependent" and report.status == "complete"
    assert verify_family(585, 10, 2).ns == (3,)


def test_verify_family_parity_exclusion():
    # rev(a) even makes every family value even, hence never a binary palindrome
    report = verify_family(2, 10, 2)
    assert report.branch == "excluded-parity" and report.ns == ()
    report = verify_family(41, 10, 2)
    assert report.branch == "excluded-parity" and report.ns == ()


def test_verify_family_rejects_divisible_prefix():
    with pytest.raises(FamilyError):
        verify_family(20, 10, 2)


def test_verify_family_closed_loop():
    for a in (9, 74, 585):
        report = verify_family(a, 10, 2)
        for n in report.ns:
            value = family_instance(a, 10, 2, n).N
            assert is_palindrome(value, 10) and is_palindrome(value, 2)


def test_verify_family_brute_force_small_range():
    eps = PreciseReal.log_ratio(10, 2, 192)
    pairs = precompute_reduction_pairs(eps, X_MODEL, 50)
    for a in range(1, 201):
        if a % 10 == 0:
            continue
        report = verify_family(a, 10, 2, pairs=pairs, bound=X_MODEL)
        assert report.status == "complete"
        assert report.tested_upper <= 81 or report.branch == "excluded-parity"
        rev_a = reverse_in_base(a, 10)
        brute = [
            n
            for n in range(len(str(a)), 41)
            if oracle_is_palindrome(a * 10**n + rev_a, 2)
        ]
        assert list(report.ns) == brute


def test_verify_family_undecided_reports_honestly():
    report = verify_family(74, 10, 2, pairs=[], bound=10**9, exhaustive_limit=50)
    assert report.status == "undecided"
    assert report.undecided_above == report.tested_upper == 50
    assert report.ns == (2,)


def test_verify_family_rejects_bad_precision_without_logarithms():
    # (2, 10, 2) takes the excluded-parity branch, which computes no logarithm
    with pytest.raises(ValueError):
        verify_family(2, 10, 2, bits=0)
    with pytest.raises(ValueError):
        verify_family(2, 10, 2, bits=(1 << 16) + 1)


def test_verify_family_scans_every_shift_below_the_certificate_floor():
    # a certificate says nothing below its floor, so the scan reaches floor - 1
    # whether the certified top is lower (999999: reduced to 20, regime floor
    # 30) or there is none (no pairs: undecided above the regime floor 12 - 1)
    report = verify_family(999999, 10, 2, bound=40)
    assert (report.reduced_bound, report.tested_upper) == (20, 29)
    report = verify_family(1, 10, 2)
    assert report.tested_upper == report.dependent_result.floor - 1 == 29
    report = verify_family(74, 10, 2, pairs=[], bound=10**9, exhaustive_limit=5)
    assert (report.status, report.undecided_above, report.tested_upper) == ("undecided", 11, 11)


def test_verify_family_small_bound_is_exhaustive():
    report = verify_family(74, 10, 2, pairs=[], bound=300, exhaustive_limit=2000)
    assert report.status == "complete"
    assert report.tested_upper == 300
    assert report.ns == (2,)


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4)])
def test_base_pair_table_gives_the_precomputed_pairs(g, h):
    table = _base_pair(g, h, 192)
    eps = PreciseReal.log_ratio(g, h)
    shift_bounds = [ceil(shift_exponent_bound(a, 10, 2)) for a in (1, 74, 999_999)]
    for X in [1, 10**3, 10**9, *shift_bounds]:
        assert _pairs(table.certified, X) == precompute_reduction_pairs(eps, X)


@pytest.mark.parametrize("g, h", [(10, 2), (12, 4)])
def test_verify_family_default_pairs_match_explicit_pairs(g, h):
    eps = PreciseReal.log_ratio(g, h)
    for a in range(1, 200):
        if a % g == 0:
            continue
        X = ceil(shift_exponent_bound(a, g, h))
        explicit = verify_family(a, g, h, pairs=precompute_reduction_pairs(eps, X))
        assert verify_family(a, g, h) == explicit


@pytest.mark.parametrize("X", [X_MODEL, 10**40])
def test_dependent_case_candidates_match_fresh_expansion(X):
    # the sieve starts from the table's 50 quotients and extends past them
    # only when q_ceiling needs it; its candidates are all convergents up
    # to q_ceiling either way
    result = dependent_case_check(DependenceWitness(1, 0, 0, degenerate=True), 999_999, 10, 2, X)
    eps = PreciseReal.log_ratio(10, 2, 192)
    count = 40
    cf = continued_fraction(eps, count)
    while cf.convergents[-1][1] <= result.q_ceiling:
        count += 20
        cf = continued_fraction(eps, count)
    fresh = [q for _, q in cf.convergents if q <= result.q_ceiling]
    assert sorted(result.small_regime + result.large_regime + result.survivors) == fresh
    if X == X_MODEL:
        assert count == 40
    else:
        assert len(fresh) > 50


def test_verify_family_dependent_small_bound_scans_directly():
    # X below the sieve floor max(30, regime floor): every shift up to X is
    # tested, as on the independent branch
    report = verify_family(1, 10, 2, bound=5)
    assert (report.branch, report.status, report.tested_upper) == ("dependent", "complete", 5)
    assert report.dependent_result is None and report.ns == ()
    assert verify_family(9, 10, 2, bound=20).ns == (1, 3)
    assert verify_family(11, 10, 2, bound=5).status == "complete"
    for a in (1, 11):
        with pytest.raises(ValueError):
            verify_family(a, 10, 2, bound=0)
