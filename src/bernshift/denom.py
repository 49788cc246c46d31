"""Denominator structure of the rank/shift Bernoulli numbers.

For each prime p, the binomial sum psi(r, s, p) collects C(r, v) over the
indices where B_{s+v} picks up a 1/p from von Staudt-Clausen, i.e. where
s + v is a positive even multiple of p - 1.  These sums control denom(B[r,s])
completely: adding sum(psi/p) restores integrality, p divides the denominator
exactly when p does not divide psi, and reducing the residues of r and s
mod p - 1 turns that test into a closed product formula.  All three routes to
the denominator are implemented and cross-checked.

psi(r, s, p) is B[r,s] with B_n replaced by its von Staudt-Clausen indicator
chi_p(n), so it obeys the same recurrence psi[r+1,s] = psi[r,s] + psi[r,s+1];
_psi_table fills it that way, while psi walks the binomial sum, which serves
any prime and is the table's oracle.  The recurrence itself is
exact_arith._triangle_rows, shared with umbral's B[r,s] table, so this
module loads neither umbral nor bernoulli, and a psi or denom request builds
no Bernoulli number and loads no fractions.  _psi_reciprocal and
_psi_periodic state psi's two congruences on values the caller holds.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import comb, lcm, prod
from typing import TYPE_CHECKING, Iterable

from .errors import InvariantViolation
from .exact_arith import _triangle_rows, clausen_primes, is_prime, least_positive_residue, primes_up_to

if TYPE_CHECKING:
    from .bernoulli import BernoulliCache
    from .umbral import BsTable


class PsiValue(namedtuple("PsiValue", "r s p value index_set")):
    """psi(r, s, p) together with the index set that produced it.

    index_set holds the v with 0 <= v <= r for which s + v is a positive even
    multiple of p - 1; value = sum(C(r, v)) over that set.
    """

    __slots__ = ()


def _psi_indices(r: int, s: int, p: int) -> range:
    """The v in 0..r with s + v a positive even multiple of p - 1, for a prime p."""
    # admissible totals t = s + v are the positive multiples of lcm(2, p - 1)
    step = lcm(2, p - 1)
    first = -(-max(s, 1) // step) * step
    return range(first - s, r + 1, step)


def _psi_value(r: int, s: int, p: int) -> int:
    """psi(r, s, p).value without the argument checks, for a p known to be prime.

    Walks C(r, v + 1) = C(r, v) * (r - v) // (v + 1) from the first admissible v to the last.
    """
    indices = _psi_indices(r, s, p)
    if not indices:
        return 0
    v = indices[0]
    binom = comb(r, v)  # C(r, v)
    total = 0
    for target in indices:
        while v < target:
            binom = binom * (r - v) // (v + 1)
            v += 1
        total += binom
    return total


def _psi_seed(p: int, n: int) -> list[int]:
    """chi_p(0..n): 1 at the positive multiples of lcm(2, p - 1), where B_t carries 1/p; else 0."""
    step = lcm(2, p - 1)
    seed = [0] * (n + 1)
    seed[step::step] = [1] * len(range(step, n + 1, step))
    return seed


def _psi_table(p: int, max_r: int, max_s: int) -> list[list[int]]:
    """psi(r, s, p) for r <= max_r and s <= max_s, by the B[r,s] recurrence seeded with chi_p."""
    rows = islice(_triangle_rows(_psi_seed(p, max_r + max_s)), max_r + 1)
    return [row[: max_s + 1] for row in rows]


def psi(r: int, s: int, p: int) -> PsiValue:
    """Sum of C(r, v) over 0 <= v <= r with s + v a positive even multiple of p-1.

    Empty index set gives 0; in particular psi(r, s, p) = 0 for p > r + s + 1,
    since the smallest admissible s + v already exceeds s + r then.
    """
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    if not is_prime(p):
        raise ValueError(f"psi: {p} is not prime")
    return PsiValue(
        r=r, s=s, p=p, value=_psi_value(r, s, p), index_set=tuple(_psi_indices(r, s, p))
    )


def _integral(r: int, s: int, numerator: int, d: int) -> int:
    """numerator / d, the value of B[r,s] + sum(psi/p); InvariantViolation if not an integer."""
    whole, rest = divmod(numerator, d)
    if rest:
        from fractions import Fraction  # only for the message: psi and denom requests never load it

        raise InvariantViolation(
            f"B[{r},{s}] + sum(psi/p) = {Fraction(numerator, d)} is not an integer"
        )
    return whole


def integrality_witness(table: BsTable, r: int, s: int) -> int:
    """The integer B[r,s] + sum(psi(r, s, p) / p over primes p <= r + s + 1).

    B[r,s] is read from the table.  The sum over all primes is finite because
    psi vanishes for p > r + s + 1; the p = 2 term is itself an integer for
    r >= 2 and is included.  Everything is summed over the table's
    denominator, which every such p divides.  A non-integral total raises
    InvariantViolation and must never happen.
    """
    if r < 2 or s < 2:
        raise ValueError("integrality_witness: requires r >= 2 and s >= 2")
    d = table.denominator
    numerator = table.scaled[r][s] + sum(
        _psi_value(r, s, p) * (d // p) for p in primes_up_to(r + s + 1)
    )
    return _integral(r, s, numerator, d)


def denom_exact(cache: BernoulliCache, r: int, s: int) -> int:
    """denom(B[r,s]) read off the exact value."""
    from .umbral import bs_direct

    return bs_direct(cache, r, s).denominator


def denom_via_psi(r: int, s: int) -> int:
    """denom(B[r,s]) as the product of primes 3 <= p <= r+s+1 with p not dividing psi.

    Stated (and implemented) for r, s >= 2 only; the r or s <= 1 borders are
    covered by denom_formula.
    """
    if r < 2 or s < 2:
        raise ValueError("denom_via_psi: requires r >= 2 and s >= 2")
    value = 1
    for p in primes_up_to(r + s + 1):
        if _divides_denominator(p, _psi_value(r, s, p)):
            value *= p
    return value


def _divides_denominator(p: int, psi_value: int) -> bool:
    """For r, s >= 2: whether the prime p divides denom(B[r,s]), given psi(r, s, p)."""
    return p >= 3 and psi_value % p != 0


class DenomFactorization(namedtuple("DenomFactorization", "eps2 primes value")):
    """Squarefree factorization 2^eps2 * product(primes) of denom(B[r,s]); value is computed."""

    __slots__ = ()

    def __new__(cls, eps2: int, primes: Iterable[int]) -> DenomFactorization:
        primes = tuple(primes)
        if eps2 not in (0, 1):
            raise ValueError("eps2 must be 0 or 1")
        if any(p < 3 or not is_prime(p) for p in primes):
            raise ValueError("primes must all be odd primes")
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("primes must be strictly increasing")
        return cls._from_sieve(eps2, primes)

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:  # copy and pickle call __new__
        return self.eps2, self.primes

    @classmethod
    def _from_sieve(cls, eps2: int, primes: tuple[int, ...]) -> DenomFactorization:
        """Unchecked construction for increasing odd primes taken from primes_up_to."""
        return tuple.__new__(cls, (eps2, primes, 2**eps2 * prod(primes)))


def _bernoulli_denominator_factorization(n: int) -> DenomFactorization:
    if n == 0 or (n % 2 and n >= 3):
        return DenomFactorization._from_sieve(0, ())
    if n == 1:
        return DenomFactorization._from_sieve(1, ())
    return DenomFactorization._from_sieve(1, tuple(p for p in clausen_primes(n) if p >= 3))


def denom_formula(r: int, s: int) -> DenomFactorization:
    """Closed product formula for denom(B[r,s]).

    For r, s >= 1: 2^eps2 * 3 * product of primes 5 <= p <= r+s+1 whose
    least positive residues satisfy <r>_{p-1} + <s>_{p-1} >= p - 1, where
    eps2 = 1 exactly when r = 1 or s = 1 with r != s.  For r = 0 or s = 0
    this is the classical Bernoulli denominator of B_{max(r,s)}.
    """
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    return _denom_formula(r, s, primes_up_to(r + s + 1))


def _denom_formula(r: int, s: int, primes: list[int]) -> DenomFactorization:
    """denom_formula(r, s) with its primes read from a sieve reaching at least r + s + 1."""
    if r == 0 or s == 0:
        return _bernoulli_denominator_factorization(max(r, s))
    eps2 = 1 if (r == 1 or s == 1) and r != s else 0
    odd = [3]
    for p in primes:
        if p > r + s + 1:
            break
        if p >= 5 and least_positive_residue(r, p - 1) + least_positive_residue(s, p - 1) >= p - 1:
            odd.append(p)
    return DenomFactorization._from_sieve(eps2, tuple(odd))


def _psi_reciprocal(r: int, s: int, psi_rs: int, psi_sr: int, p: int) -> bool:
    """(-1)^r psi(r,s,p) == (-1)^s psi(s,r,p) mod p, given both values."""
    lhs = psi_rs if r % 2 == 0 else -psi_rs
    rhs = psi_sr if s % 2 == 0 else -psi_sr
    return (lhs - rhs) % p == 0


def _psi_periodic(v_rs: int, v_rs2: int, v_r2s: int, v_r2s2: int, p: int) -> bool:
    """Whether psi, given at (r, s), (r, s2), (r2, s) and (r2, s2), is periodic.

    Exact in the shift at both ranks, and mod p in the rank.
    """
    return v_rs == v_rs2 and v_r2s == v_r2s2 and (v_rs - v_r2s) % p == 0


def psi_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """The grid psi(r, s, p) for 1 <= r, s <= p - 2, with its structure verified.

    Entries are 0 strictly above the anti-diagonal (r + s < p - 1), exactly 1
    on it, and equal to C(r, p-1-s), nonzero mod p, below it.  Any violation
    raises InvariantViolation; the grid is returned row-major, grid[r-1][s-1].
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"psi_matrix: requires a prime p >= 5, got {p}")
    rows = []
    for r in range(1, p - 1):
        row = []
        for s in range(1, p - 1):
            value = _psi_value(r, s, p)
            if r + s < p - 1:
                if value != 0:
                    raise InvariantViolation(
                        f"psi matrix p={p}: entry ({r},{s}) above anti-diagonal is {value}, not 0"
                    )
            elif r + s == p - 1:
                if value != 1:
                    raise InvariantViolation(
                        f"psi matrix p={p}: entry ({r},{s}) on anti-diagonal is {value}, not 1"
                    )
            else:
                expected = comb(r, p - 1 - s)
                if value != expected or value % p == 0:
                    raise InvariantViolation(
                        f"psi matrix p={p}: entry ({r},{s}) is {value}, "
                        f"expected C({r},{p - 1 - s}) = {expected} nonzero mod {p}"
                    )
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)
