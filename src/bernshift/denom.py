"""Denominator structure of the rank/shift Bernoulli numbers.

For each prime p, the binomial sum psi(r, s, p) collects C(r, v) over the
indices where B_{s+v} picks up a 1/p from von Staudt-Clausen: where p is
one of exact_arith.clausen_primes(s + v), the primes dividing denom(B_{s+v}),
and s + v is even, i.e. s + v is a positive even multiple of p - 1.  These
sums control denom(B[r,s]) completely: adding sum(psi/p) restores
integrality, p divides the denominator exactly when p does not divide psi,
and reducing the residues of r and s mod p - 1 turns that test into a closed
product formula.  All three routes to the denominator are implemented and
cross-checked.

psi(r, s, p) is B[r,s] with B_n replaced by its von Staudt-Clausen indicator
chi_p(n), so it obeys the same recurrence psi[r+1,s] = psi[r,s] + psi[r,s+1].
This module states the seed only: _psi_sum_seed, sum((P // p) * chi_p)
over some primes with P their product, where p divides its triangle's
entries exactly where it divides psi; with one prime p it is chi_p.
umbral._walk walks it beside D * B[r,s], and psi-congruences walks one
prime's triangle beside its transpose (exact_arith._mirror_rows).  psi
sums a run of exact_arith._binomials, serves any prime and is the triangles'
oracle.  The recurrence is exact_arith._triangle_rows, so this module
loads neither umbral nor bernoulli, and a psi or denom request builds no
Bernoulli number and loads no fractions, not even to word a failure.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import compress, islice
from math import comb, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvariantViolation
from .exact_arith import _TALLY, _binomials, _product_tree, _quotient_text, clausen_primes, is_prime, primes_up_to

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
    """psi(r, s, p).value without the argument checks, for a p known to be prime: one run of binomials, stepped."""
    indices = _psi_indices(r, s, p)
    if not indices:
        return 0
    return sum(islice(_binomials(r, indices.start), 0, None, indices.step))


def _psi_sum_seed(primes: Sequence[int], n: int) -> tuple[int, list[int]]:
    """(P, sum((P // p) * chi_p(0..n)) over the primes), P = product(primes).

    The recurrence is linear, so the triangle of this seed is S[r,s] =
    sum((P // p) * psi(r, s, p)): one walk gives every prime's psi at once.
    Each other prime's term is a multiple of p and P // p is prime to p, so
    p divides S[r][s] exactly when p divides psi(r, s, p): one walk reads
    every prime's residue by divisibility (Harvey's multimodular idea).
    With one prime p, P = p and the seed is chi_p: S is that prime's psi.
    """
    big = _product_tree(primes)
    seed = [0] * (n + 1)
    for p in primes:
        share = big // p
        for t in _psi_indices(n, 0, p):  # chi_p(t) = 1: p divides denom(B_t)
            seed[t] += share
    _TALLY["seeds"] += 1
    return big, seed


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
        raise InvariantViolation(f"B[{r},{s}] + sum(psi/p) = {_quotient_text(numerator, d)} is not an integer")
    return whole


def integrality_witness(table: BsTable, r: int, s: int) -> int:
    """The integer B[r,s] + sum(psi(r, s, p) / p over primes p <= r + s + 1).

    D * B[r,s] is read off the table's scaled rows, after a key read that
    raises ValueError for a key outside the table.  The sum over all primes
    is finite because psi vanishes for p > r + s + 1; the p = 2 term is
    itself an integer for r >= 2 and is included.  Everything is summed over
    the table's denominator, which every such p divides.  A non-integral
    total raises InvariantViolation and must never happen.
    """
    if r < 2 or s < 2:
        raise ValueError("integrality_witness: requires r >= 2 and s >= 2")
    table[r, s]  # the key check
    d = table.denominator
    numerator = table.scaled[r][s] + sum(_psi_value(r, s, p) * (d // p) for p in primes_up_to(r + s + 1))
    return _integral(r, s, numerator, d)


def denom_exact(cache: BernoulliCache, r: int, s: int) -> int:
    """denom(B[r,s]) read off the exact value."""
    from .umbral import bs_direct

    return bs_direct(cache, r, s, pair=True)[1]


def denom_via_psi(r: int, s: int) -> int:
    """denom(B[r,s]) as the product of primes 3 <= p <= r+s+1 with p not dividing psi.

    Stated (and implemented) for r, s >= 2 only; the r or s <= 1 borders are
    covered by denom_formula.
    """
    if r < 2 or s < 2:
        raise ValueError("denom_via_psi: requires r >= 2 and s >= 2")
    odd = primes_up_to(r + s + 1)[1:]  # 2 never divides it
    flags = (_psi_value(r, s, p) % p for p in odd)  # a nonzero residue puts p in the denominator
    return _product_tree(list(compress(odd, flags)))


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
        return tuple.__new__(cls, (eps2, primes, 2**eps2 * _product_tree(primes)))


def denom_formula(r: int, s: int) -> DenomFactorization:
    """Closed product formula for denom(B[r,s]).

    For r, s >= 1: 2^eps2 * 3 * product of primes 5 <= p <= r+s+1 whose
    least positive residues satisfy <r>_{p-1} + <s>_{p-1} >= p - 1, where
    eps2 = 1 exactly when r = 1 or s = 1 with r != s.  For r = 0 or s = 0
    this is the classical Bernoulli denominator of B_{max(r,s)}.
    """
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    return _denom_formula(r, s, primes_up_to(r + s + 1) if r and s else [])


def _denom_formula(r: int, s: int, primes: list[int]) -> DenomFactorization:
    """denom_formula(r, s) given primes_up_to(bound), bound >= r + s + 1; not read when r or s is 0."""
    if r == 0 or s == 0:
        classical = clausen_primes(max(r, s))  # denom(B_n), with 2 first when present
        return DenomFactorization._from_sieve(1 if classical else 0, tuple(classical[1:]))
    eps2 = 1 if (r == 1 or s == 1) and r != s else 0
    # <x>_m = (x - 1) % m + 1 for x >= 1, so <r>_m + <s>_m >= m, with
    # m = p - 1, reads (r - 1) % m + (s - 1) % m >= m - 2 = p - 3
    beyond = bisect_right(primes, r + s + 1)
    odd = [p for p in islice(primes, 2, beyond) if (r - 1) % (p - 1) + (s - 1) % (p - 1) >= p - 3]
    return DenomFactorization._from_sieve(eps2, (3, *odd))


def psi_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """The grid psi(r, s, p) for 1 <= r, s <= p - 2, with its structure verified.

    Every entry is C(r, p-1-s): so 0 strictly above the anti-diagonal
    (r + s < p - 1), exactly 1 on it, and nonzero mod p below it, since
    with r <= p - 2 that binomial is a product of factors below p.  Any
    violation raises InvariantViolation; the grid is returned row-major,
    grid[r-1][s-1].  Each expected entry is math.comb's, made apart from psi's run.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"psi_matrix: requires a prime p >= 5, got {p}")
    rows = []
    for r in range(1, p - 1):
        row = []
        for s in range(1, p - 1):
            value = _psi_value(r, s, p)
            expected = comb(r, p - 1 - s)  # 0 above the anti-diagonal, 1 on it
            if value != expected:
                raise InvariantViolation(
                    f"psi matrix p={p}: entry ({r},{s}) is {value}, "
                    f"expected C({r},{p - 1 - s}) = {expected}"
                )
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)
