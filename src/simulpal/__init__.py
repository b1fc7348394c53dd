"""simulpal: integers that are palindromes in two bases simultaneously.

Library surface: exact digit reversal, digit counts and the palindrome
test (:mod:`simulpal.radix`), palindrome enumeration and the family
record N = a*g**n + rev(a) (:mod:`simulpal.palgen`), the two-base
search engine with checkpointing (:mod:`simulpal.simulcheck`),
multiplicative-dependence witnesses (:mod:`simulpal.lindep`), explicit
transcendence-bound evaluators (:mod:`simulpal.bounds`), certified
enclosures (:mod:`simulpal.precise`) and the certified reduction
pipeline (:mod:`simulpal.reduction`).  ``python -m simulpal.cli``
or the ``simulpal`` script expose the same machinery on the command line.
"""

from .lindep import DependenceWitness, dependence_witness, multiplicatively_independent
from .palgen import FamilyInstance, family_instance, iter_palindromes
from .precise import PreciseReal, hp_log
from .radix import digit_count, is_palindrome, reverse_in_base
from .reduction import (
    FamilyReport,
    baker_davenport_reduce,
    continued_fraction,
    dependent_case_check,
    precompute_reduction_pairs,
    verify_family,
)
from .simulcheck import SearchCheckpoint, count, search

__version__ = "0.1.0"

__all__ = [
    "DependenceWitness",
    "FamilyInstance",
    "FamilyReport",
    "PreciseReal",
    "SearchCheckpoint",
    "baker_davenport_reduce",
    "continued_fraction",
    "count",
    "dependence_witness",
    "dependent_case_check",
    "digit_count",
    "family_instance",
    "hp_log",
    "is_palindrome",
    "iter_palindromes",
    "multiplicatively_independent",
    "precompute_reduction_pairs",
    "reverse_in_base",
    "search",
    "verify_family",
]
