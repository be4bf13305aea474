"""Exact Artin-Hasse exponentials, Witt vectors, and the matrix maps they
induce between nilpotent and unipotent elements of classical groups over
small finite fields, plus a property-verification CLI."""

from .errors import DomainError
from .series import (
    FpSeries,
    RationalSeries,
    ah_coeffs_mod_p,
    ah_inverse_coeffs,
    ah_rational_coeffs,
    series_mul,
    series_reversion,
)
from .matrices import FpMatrix, load_matrix
from .groups import (
    CentralizerSpace,
    GroupSpec,
    JordanType,
    centralizer_space,
    in_group,
    in_lie_algebra,
    jordan_nilpotent,
    nilpotency_degree,
    nilpotent_order,
    random_nilpotent,
    unipotent_order_exponent,
)
from .witt import (
    WittVector,
    witt_add,
    witt_from_integer,
    witt_neg,
    witt_order,
    witt_pow_p,
)
from .expmaps import (
    ah_exp,
    ah_log,
    bch,
    bch_dynkin,
    truncated_exp,
    truncated_log,
    witt_embed,
)
from .parabolic import (
    Composition,
    ParabolicGL,
    eps_p,
    is_restricted,
    nilpotence_class,
    nilradical_basis,
    random_p_element,
)
from .suites import Report, SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "CentralizerSpace",
    "Composition",
    "DomainError",
    "FpMatrix",
    "FpSeries",
    "GroupSpec",
    "JordanType",
    "ParabolicGL",
    "RationalSeries",
    "Report",
    "SuiteConfig",
    "WittVector",
    "ah_coeffs_mod_p",
    "ah_exp",
    "ah_inverse_coeffs",
    "ah_log",
    "ah_rational_coeffs",
    "bch",
    "bch_dynkin",
    "centralizer_space",
    "eps_p",
    "in_group",
    "in_lie_algebra",
    "is_restricted",
    "jordan_nilpotent",
    "load_matrix",
    "nilpotence_class",
    "nilpotency_degree",
    "nilpotent_order",
    "nilradical_basis",
    "random_nilpotent",
    "random_p_element",
    "run_suite",
    "series_mul",
    "series_reversion",
    "truncated_exp",
    "truncated_log",
    "unipotent_order_exponent",
    "witt_add",
    "witt_embed",
    "witt_from_integer",
    "witt_neg",
    "witt_order",
    "witt_pow_p",
]
