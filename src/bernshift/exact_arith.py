"""Integer substrate: primes, Miller-Rabin, residues, and the triangle recurrence.

Everything here takes and returns plain Python ints; no floats, and no
rationals either -- those live in bernoulli and umbral.  The triangle
recurrence X[r+1,s] = X[r,s] + X[r,s+1] fills both D * B[r,s] (umbral) and
psi (denom); it is stated here once, so that denom need not load umbral.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, Sequence


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


def _triangle_rows(seed: Sequence[int]) -> Iterator[list[int]]:
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
