"""Exact arithmetic for shifted-sum Bernoulli numbers B[r,s] and their denominators.

B[r,s] is the binomially weighted sum of Bernoulli numbers starting at shift
s, computed here by several independent routes (defining sum, additive
recurrence, iterated forward differences) together with the prime-counting
sums psi(r, s; p) that control the denominators.  Everything is exact: values
are `fractions.Fraction`, never floats.
"""

from .bernoulli import (
    BernoulliCache,
    bernoulli_denominator,
    bernoulli_polynomial,
    hermite_stern_check,
    von_staudt_clausen_witness,
)
from .denom import (
    DenomFactorization,
    PsiValue,
    denom_exact,
    denom_formula,
    denom_via_psi,
    integrality_witness,
    psi,
    psi_matrix,
    psi_periodicity_check,
    psi_reciprocity_check,
)
from .errors import CapacityError, InvariantViolation
from .exact_arith import (
    Poly,
    binomial,
    forward_difference,
    is_prime,
    least_positive_residue,
    primes_up_to,
)
from .umbral import (
    BsTable,
    antidiagonal_sums,
    bs_direct,
    bs_polynomial,
    bs_shift_identity_check,
    bs_table_recursive,
    bs_via_difference,
    grabisch_b,
)
from .verify import PROPERTIES, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "BernoulliCache",
    "BsTable",
    "CapacityError",
    "DenomFactorization",
    "InvariantViolation",
    "PROPERTIES",
    "Poly",
    "PsiValue",
    "VerifyReport",
    "antidiagonal_sums",
    "bernoulli_denominator",
    "bernoulli_polynomial",
    "binomial",
    "bs_direct",
    "bs_polynomial",
    "bs_shift_identity_check",
    "bs_table_recursive",
    "bs_via_difference",
    "denom_exact",
    "denom_formula",
    "denom_via_psi",
    "forward_difference",
    "grabisch_b",
    "hermite_stern_check",
    "integrality_witness",
    "is_prime",
    "least_positive_residue",
    "primes_up_to",
    "psi",
    "psi_matrix",
    "psi_periodicity_check",
    "psi_reciprocity_check",
    "run_verify",
    "von_staudt_clausen_witness",
]
