"""Numeric laboratory for shifted Dirichlet L-series at s = 1.

Builds character tables for a modulus as discrete logs over the unit group
(character sums are FFTs over its cyclic factors), evaluates L(1, chi, a) along
independent closed and truncated routes, audits complete exponential sums,
and checks mean-value statistics against their predicted main terms.
"""

from .arith import Factorization, divisors, euler_phi, factorize, is_prime, moebius, primitive_root
from .cache import ReportCache, default_cache_dir
from .chars import (
    CharacterTable,
    build_character_table,
    char_value,
    get_table,
    nonprincipal_period_sum_defect,
    orthogonality_defect,
)
from .expsum import Polynomial, WeilAudit, complete_sum, lemma2_defect, lemma3_report
from .lfun import ShiftedLValue, default_truncation, evaluate, l1_chi, l1_chi_a, l1_vector
from .meanval import (
    CrossTerms,
    MeanValueQuery,
    MeanValueReport,
    ResidualSeries,
    build_report,
    cross_terms,
    make_query,
    residual_sweep,
)
from .specfun import ShiftParam, digamma, harmonic, hurwitz_zeta

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "CrossTerms",
    "Factorization",
    "MeanValueQuery",
    "MeanValueReport",
    "Polynomial",
    "ReportCache",
    "ResidualSeries",
    "ShiftParam",
    "ShiftedLValue",
    "WeilAudit",
    "build_character_table",
    "build_report",
    "char_value",
    "complete_sum",
    "cross_terms",
    "default_cache_dir",
    "default_truncation",
    "digamma",
    "divisors",
    "euler_phi",
    "evaluate",
    "factorize",
    "get_table",
    "harmonic",
    "hurwitz_zeta",
    "is_prime",
    "l1_chi",
    "l1_chi_a",
    "l1_vector",
    "lemma2_defect",
    "lemma3_report",
    "make_query",
    "moebius",
    "nonprincipal_period_sum_defect",
    "orthogonality_defect",
    "primitive_root",
    "residual_sweep",
]
