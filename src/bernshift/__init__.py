"""Exact arithmetic for shifted-sum Bernoulli numbers B[r,s] and their denominators.

B[r,s] is the binomially weighted sum of Bernoulli numbers starting at shift
s, computed here by several independent routes (defining sum, additive
recurrence, iterated forward differences) together with the prime-counting
sums psi(r, s; p) that control the denominators.  Everything is exact: values
are `fractions.Fraction`, never floats.

The names below are resolved on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names it exports here
    "bernoulli": ("BernoulliCache", "bernoulli_denominator", "von_staudt_clausen_witness"),
    "denom": (
        "DenomFactorization", "PsiValue", "denom_exact", "denom_formula", "denom_via_psi",
        "integrality_witness", "psi", "psi_matrix",
    ),
    "errors": ("CapacityError", "InvariantViolation"),
    "exact_arith": ("is_prime", "primes_up_to"),
    "umbral": (
        "BsTable", "antidiagonal_sums", "bs_direct", "bs_polynomial", "bs_table_recursive", "bs_via_difference",
    ),
    "verify": ("PROPERTIES", "VerifyReport", "run_verify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Each exported name, read from its module at every access, so the two never differ."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
