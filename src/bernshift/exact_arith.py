"""Integer substrate: primes, Miller-Rabin, binomial rows, products, and the triangle recurrence.

Everything here takes and returns plain Python ints; no floats, and no
rationals either -- those live in bernoulli and umbral.  clausen_primes(n)
is the one statement of von Staudt-Clausen: the primes dividing denom(B_n),
which bernoulli and denom both read, found among the divisors of n by trial
division to sqrt(n), with no sieve.  _lowest_terms(x, d) is the one
reduction of a quotient to lowest terms, and _quotient_text(x, d) its one
wording in a failure message.  The triangle recurrence
X[r+1,s] = X[r,s] + X[r,s+1] fills both D * B[r,s] (umbral) and psi
(denom); it is stated here once, so that the psi sweeps need not load umbral.
_binomials(n, k) is the one producer of binomial runs C(n, k..n), for the
row of a one-key route (umbral) or a psi run (denom); a sweep reading rows of
every order takes them from one walk of _pascal_rows, and none is kept.
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd, isqrt, prod
from operator import add
from sys import maxsize
from typing import Iterable, Iterator, Sequence

from .render import fraction_text


def primes_up_to(bound: int) -> list[int]:
    """All primes p <= bound in increasing order (empty for bound < 2)."""
    _TALLY["sieves"] += 1
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
    """The primes dividing denom(B_n), increasing: von Staudt-Clausen, stated once.

    None for n = 0 and odd n >= 3, [2] for n = 1 (B_1 = -1/2), and for even
    n >= 2 the primes p = d + 1 over the divisors d of n, listed by trial
    division to sqrt(n): O(sqrt(n)) time and no sieve, for at most d(n) primes.
    """
    if n < 0:
        raise ValueError("clausen_primes: n must be >= 0")
    if n == 1:
        return [2]
    if n == 0 or n % 2:
        return []
    if n > maxsize:  # the sieve's old index limit, not a cost limit: below it trial division runs to sqrt(n)
        raise OverflowError(f"clausen_primes: {n} is too large to be an index")
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]  # the divisors d with d * d <= n
    divisors = low + [n // d for d in reversed(low) if d * d < n]
    return [d + 1 for d in divisors if is_prime(d + 1)]


# Walk rows, cells, B_n capacity, seeds, sieves, binomial rows: each counted where made; verify clears it per runner.
_TALLY: Counter[str] = Counter()


def _binomials(n: int, k: int = 0) -> Iterator[int]:
    """C(n, k), ..., C(n, n) one at a time, for 0 <= k <= n: the first by math.comb, each next from the last."""
    binom = comb(n, k)
    yield binom
    for j in range(k, n):
        binom = binom * (n - j) // (j + 1)  # C(n, j + 1)
        yield binom


def _pascal_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The rows (C(m, 0), ..., C(m, m)) for m = 0..n, one at a time, each from the last by Pascal's rule."""
    row = ()
    for _ in range(n + 1):
        row = tuple(map(add, (0, *row), (*row, 0))) if row else (1,)
        _TALLY["binomial_rows"] += 1
        yield row


def _hermite_stern_residue(row: Sequence[int], p: int) -> int:
    """sum(C(m, v) for 0 < v < m with p - 1 | v) mod p, from row = C(m, 0..m), for a prime p."""
    m = len(row) - 1
    return sum(row[p - 1 : m : p - 1]) % p


def _lowest_terms(x: int, d: int) -> tuple[int, int]:
    """x / d in lowest terms as (numerator, denominator), for d > 0, by one gcd; no Fraction is built."""
    g = gcd(x, d)
    return x // g, d // g


def _quotient_text(x: int, d: int) -> str:
    """x / d as a failure message words it, for d > 0: "num/den" in lowest terms, as str(Fraction(x, d))."""
    return fraction_text(*_lowest_terms(x, d))


_PRODUCT_LEAF = 32  # below this many factors, math.prod's own loop is faster


def _product_tree(values: Sequence[int]) -> int:
    """product(values), 1 when empty, multiplying halves of balanced size.

    math.prod multiplies left to right, so its running product grows one
    factor at a time and a long list of primes costs quadratic time; the
    tree keeps both sides of each multiplication the same size.
    """
    if len(values) <= _PRODUCT_LEAF:
        return prod(values)
    half = len(values) // 2
    return _product_tree(values[:half]) * _product_tree(values[half:])


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


def _triangle_rows(seed: Sequence[int]) -> Iterator[list[int]]:
    """Rows r = 0..n of X[r,s] over r + s <= n, given the seed row X[0, 0..n].

    Row r + 1 is X[r+1,s] = X[r,s] + X[r,s+1], one entry shorter than row r.
    Seeded with D * B_0..D * B_n it gives D * B[r,s]; seeded with von
    Staudt-Clausen indicators weighted over several primes (denom._psi_sum_seed)
    it gives the same weighted sum of their psi.  _lockstep walks them in
    step, with _mirror_rows beside them for a sweep reading transposed keys.
    """
    row = list(seed)
    for _ in range(len(row)):
        _TALLY["walk_rows"] += 1
        _TALLY["walk_cells"] += len(row)
        yield row
        row = list(map(add, row, row[1:]))


def _mirror_rows(seed: Sequence[int]) -> Iterator[list[int]]:
    """The rows of Y[r,s] = (-1)^(r+s) * X[s,r], X the triangle _triangle_rows(seed), one at a time.

    Y obeys X's recurrence: Y[r,s] + Y[r,s+1] = (-1)^(r+s) * (X[s,r] - X[s+1,r])
    = (-1)^(r+s+1) * X[s,r+1] = Y[r+1,s].  So Y is the triangle of its row 0,
    the signed column 0 of X, Y[0,k] = (-1)^k * X[k,0], which one more walk of
    X collects.  Y = X exactly when that column is the seed itself.
    """
    column = [row[0] for row in _triangle_rows(seed)]
    return _triangle_rows([-x if k % 2 else x for k, x in enumerate(column)])


def _lockstep(ranks: Sequence[int], *walks: Iterable) -> Iterator[tuple]:
    """The steps (r, *rows) for r in ranks, the walks' rows in step; no walk makes a row past the last rank."""
    return (step for step in zip(range(max(ranks, default=-1) + 1), *walks) if step[0] in ranks)
