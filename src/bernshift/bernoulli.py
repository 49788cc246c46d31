"""Classical Bernoulli numbers, with exact denominators.

The cache holds B_0..B_capacity under the convention B_1 = -1/2 and is sealed
after construction, so concurrent reads never race a resize.  It is filled
from tangent numbers in integer arithmetic (Brent and Harvey, 2011); the
defining recurrence sum(C(n+1, k) * B_k) = 0 is kept only as a test oracle.
The closed denominator formula and the von Staudt-Clausen witness give two
independent handles on the fractional part of B_n that the test suite plays
against the cached values.  No polynomial is built here: umbral gives
B[r,s](x) as a tuple of its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .errors import CapacityError, InvariantViolation
from .exact_arith import clausen_primes, is_prime


class BernoulliCache:
    """Sealed table of B_0..B_capacity (B_1 = -1/2).

    Built once from the tangent numbers T_k = tan^(2k-1)(0) by Brent and
    Harvey's in-place algorithm ("Fast computation of Bernoulli, tangent and
    secant numbers", 2011): O(capacity^2) small-integer multiply-adds, then
    B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)), one Fraction per even
    index.  Odd indices >= 3 are 0.  Immutable afterwards.
    """

    __slots__ = ("_values",)

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        n = capacity // 2
        tangent = [0] * (n + 1)
        if n:
            tangent[1] = 1
        for k in range(2, n + 1):
            tangent[k] = (k - 1) * tangent[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
        values = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (capacity - 1)
        for k in range(1, n + 1):
            four_k = 4**k
            b = Fraction(2 * k * tangent[k], four_k * (four_k - 1))
            values[2 * k] = b if k % 2 else -b
        self._values = tuple(values[: capacity + 1])

    @property
    def capacity(self) -> int:
        return len(self._values) - 1

    def __getitem__(self, n: int) -> Fraction:
        """B_n; CapacityError past the sealed capacity."""
        if n < 0:
            raise ValueError(f"B_{n}: index must be non-negative")
        if n >= len(self._values):
            raise CapacityError(f"B_{n} requested but cache is sealed at capacity {self.capacity}")
        return self._values[n]

    def __repr__(self) -> str:
        return f"BernoulliCache(capacity={self.capacity})"


def bernoulli_denominator(n: int) -> int:
    """Closed form for denom(B_n): product of primes p with p-1 | n for even n.

    Equals 1 for n = 0 and odd n >= 3, and 2 for n = 1.
    """
    if n < 0:
        raise ValueError("bernoulli_denominator: n must be non-negative")
    if n == 0:
        return 1
    if n == 1:
        return 2
    if n % 2:
        return 1
    return prod(clausen_primes(n))


def von_staudt_clausen_witness(cache: BernoulliCache, n: int) -> int:
    """The integer B_n + sum(1/p for primes p with p-1 | n), for even n >= 2.

    Raises InvariantViolation if the sum is not an integer, which would
    falsify the von Staudt-Clausen relation; the error path is a test hook
    and must never fire.
    """
    if n < 2 or n % 2:
        raise ValueError("von_staudt_clausen_witness: n must be even and >= 2")
    total = cache[n] + sum(Fraction(1, p) for p in clausen_primes(n))
    if total.denominator != 1:
        raise InvariantViolation(f"B_{n} + sum(1/p) = {total} is not an integer")
    return int(total)


def hermite_stern_check(m: int, p: int) -> int:
    """Residue mod p of sum(C(m, v) for 0 < v < m with p-1 | v); contract: 0.

    The empty sum (m = 1, or no multiple of p-1 below m) gives 0 directly.
    """
    if m < 1:
        raise ValueError("hermite_stern_check: m must be >= 1")
    if not is_prime(p):
        raise ValueError(f"hermite_stern_check: {p} is not prime")
    total = 0
    for v in range(p - 1, m, p - 1):
        total += comb(m, v)
    return total % p
