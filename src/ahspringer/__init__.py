"""Exact Artin-Hasse exponentials, Witt vectors, and the matrix maps they
induce between nilpotent and unipotent elements of classical groups over
small finite fields, plus a property-verification CLI.

The public names below load their submodule on first use (PEP 562), so
``import ahspringer`` alone imports no submodule, and numpy is loaded only
by the layers that compute on arrays.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "errors": ("DomainError",),
        "series": (
            "ah_coeffs_mod_p", "ah_inverse_coeffs", "ah_rational_coeffs", "series_mul",
            "series_reversion",
        ),
        "matrices": ("FpMatrix", "load_matrix"),
        "groups": (
            "GroupSpec", "JordanType", "centralizer_space", "in_group", "in_lie_algebra",
            "jordan_nilpotent", "nilpotency_degree", "nilpotent_order", "nilradical_basis",
            "random_nilpotent", "unipotent_order_exponent",
        ),
        "witt": (
            "WittVector", "witt_add", "witt_from_integer", "witt_neg", "witt_order",
            "witt_pow_p",
        ),
        "expmaps": (
            "ah_exp", "ah_log", "bch", "bch_dynkin", "truncated_exp", "truncated_log",
            "witt_embed",
        ),
        "compositions": ("Composition", "ParabolicGL", "is_restricted", "nilpotence_class"),
        "parabolic": ("eps_p", "in_nilradical"),
        "suites": ("Report", "SuiteConfig", "run_suite"),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
