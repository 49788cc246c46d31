"""Exact arithmetic substrate: integers, rationals, primes, and dense polynomials.

Integers are plain Python ints, rationals are ``fractions.Fraction`` (always
stored reduced with positive denominator), and polynomials are a small dense
immutable type over Fraction.  No floats anywhere.  The triangle recurrence
X[r+1,s] = X[r,s] + X[r,s+1] fills both B[r,s] (umbral) and psi (denom);
it is stated here once, so that denom need not load umbral.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Callable, Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial: n must be non-negative")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def primes_up_to(bound: int) -> list[int]:
    """All primes p <= bound in increasing order (empty for bound < 2)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= bound:
        if sieve[p]:
            start = p * p
            sieve[start : bound + 1 : p] = bytearray(len(range(start, bound + 1, p)))
        p += 1
    return [i for i in range(bound + 1) if sieve[i]]


def clausen_primes(n: int) -> list[int]:
    """The primes p with p - 1 | n, increasing; for even n these divide denom(B_n)."""
    if n < 1:
        raise ValueError("clausen_primes: n must be >= 1")
    return [p for p in primes_up_to(n + 1) if n % (p - 1) == 0]


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound, the least composite that passes all of them (Sorenson & Webster,
# "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below _MR_EXACT_BELOW.

    Raises ValueError above that bound rather than answer "probably prime".
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime: {n} is beyond the deterministic Miller-Rabin bound")
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def least_positive_residue(x: int, m: int) -> int:
    """The representative of x mod m lying in {1, ..., m}.

    Returns m (not 0) when m divides x.  Defined for x >= 1 only.
    """
    if x < 1:
        raise ValueError("least_positive_residue: x must be >= 1")
    if m < 1:
        raise ValueError("least_positive_residue: m must be >= 1")
    return (x - 1) % m + 1


def forward_difference(f: Callable[[int], Scalar], order: int, start: int = 0) -> Scalar:
    """Iterated forward difference: sum(C(order, v) * (-1)^(order-v) * f(start+v)).

    Exact in what f returns: an int-valued f gives an int, a Fraction-valued
    f a Fraction.
    """
    if order < 0:
        raise ValueError("forward_difference: order must be non-negative")
    acc = 0
    sign = -1 if order % 2 else 1
    for v in range(order + 1):
        acc += sign * comb(order, v) * f(start + v)
        sign = -sign
    return acc


def _triangle_rows(seed: Sequence[Scalar]) -> Iterator[list[Scalar]]:
    """Rows r = 0..n of X[r,s] over r + s <= n, given the seed row X[0, 0..n].

    Row r + 1 is X[r+1,s] = X[r,s] + X[r,s+1], one entry shorter than row r.
    Seeded with D * B_0..D * B_n it gives D * B[r,s] (umbral._table_rows);
    seeded with a prime's von Staudt-Clausen indicator it gives psi
    (denom._psi_table).
    """
    row = list(seed)
    yield row
    for _ in range(len(row) - 1):
        row = list(map(add, row, row[1:]))
        yield row


class Poly:
    """Dense polynomial with Fraction coefficients, index = power of x.

    Immutable; trailing zero coefficients are trimmed, the zero polynomial is
    the empty coefficient tuple with degree -inf.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> Union[int, float]:
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self._coeffs)}])"

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly([-Fraction(other)]))

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            q = Fraction(other)
            return Poly([q * c for c in self._coeffs])
        if not self._coeffs or not other._coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self * other

    def compose_neg(self) -> "Poly":
        """The polynomial x -> self(-x): odd-index coefficients change sign."""
        return Poly([-c if i % 2 else c for i, c in enumerate(self._coeffs)])
