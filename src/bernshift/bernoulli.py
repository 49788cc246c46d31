"""Classical Bernoulli numbers, with exact denominators.

The cache holds B_0..B_capacity under the convention B_1 = -1/2 and is sealed
after construction, so concurrent reads never race a resize.  It is filled
from tangent numbers in integer arithmetic (Brent and Harvey, 2011) and
holds each B_n as its reduced numerator and denominator: cache.pair(n) reads
them, and only cache[n] makes a Fraction, importing fractions when it is
first called, so a CLI request never loads it.  The defining recurrence
sum(C(n+1, k) * B_k) = 0 is kept only as a test oracle.
The closed denominator formula (the product of exact_arith.clausen_primes,
the primes d + 1 over the divisors d of n, found without a sieve) and the
von Staudt-Clausen witness give two independent handles on the
fractional part of B_n that the test suite plays against the cached values.
No polynomial is built here: umbral gives B[r,s](x) as a tuple of its
coefficients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CapacityError, InvariantViolation
from .exact_arith import _TALLY, _lowest_terms, _product_tree, _quotient_text, clausen_primes

if TYPE_CHECKING:
    from fractions import Fraction


class BernoulliCache:
    """Sealed table of B_0..B_capacity (B_1 = -1/2).

    Built once from the tangent numbers T_k = tan^(2k-1)(0) by Brent and
    Harvey's in-place algorithm ("Fast computation of Bernoulli, tangent and
    secant numbers", 2011): O(capacity^2) small-integer multiply-adds, then
    B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)), reduced by _lowest_terms per
    even index.  Odd indices >= 3 are 0.  Immutable afterwards.
    """

    __slots__ = ("_pairs",)

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        _TALLY["cache_capacity"] += capacity
        n = capacity // 2
        tangent = [0] * (n + 1)
        if n:
            tangent[1] = 1
        for k in range(2, n + 1):
            tangent[k] = (k - 1) * tangent[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
        pairs = [(1, 1), (-1, 2)] + [(0, 1)] * (capacity - 1)
        for k in range(1, n + 1):
            four_k = 4**k
            pairs[2 * k] = _lowest_terms((2 * k if k % 2 else -2 * k) * tangent[k], four_k * (four_k - 1))
        self._pairs = tuple(pairs[: capacity + 1])

    @property
    def capacity(self) -> int:
        return len(self._pairs) - 1

    def pair(self, n: int) -> tuple[int, int]:
        """B_n as (numerator, denominator) in lowest terms, denominator positive; no Fraction is made.

        CapacityError past the sealed capacity.
        """
        if n < 0:
            raise ValueError(f"B_{n}: index must be non-negative")
        if n >= len(self._pairs):
            raise CapacityError(f"B_{n} requested but cache is sealed at capacity {self.capacity}")
        return self._pairs[n]

    def __getitem__(self, n: int) -> Fraction:
        """B_n as a Fraction, for library callers; errors as pair."""
        from fractions import Fraction

        return Fraction(*self.pair(n))

    def __repr__(self) -> str:
        return f"BernoulliCache(capacity={self.capacity})"


def bernoulli_denominator(n: int) -> int:
    """denom(B_n), the product of clausen_primes(n): 1 for n = 0 and odd n >= 3, 2 for n = 1."""
    return _product_tree(clausen_primes(n))


def von_staudt_clausen_witness(cache: BernoulliCache, n: int) -> int:
    """The integer B_n + sum(1/p for p in clausen_primes(n)), for even n >= 2.

    Raises InvariantViolation if the sum is not an integer, which would
    falsify the von Staudt-Clausen relation; the error path is a test hook
    and must never fire.
    """
    if n < 2 or n % 2:
        raise ValueError("von_staudt_clausen_witness: n must be even and >= 2")
    num, den = cache.pair(n)
    primes = clausen_primes(n)
    big = _product_tree(primes)
    # over den * big: B_n is num * big, and sum(1/p) is sum(big // p) * den
    total = num * big + sum(big // p for p in primes) * den
    whole, rest = divmod(total, den * big)
    if rest:
        raise InvariantViolation(f"B_{n} + sum(1/p) = {_quotient_text(total, den * big)} is not an integer")
    return whole
