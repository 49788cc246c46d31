"""Rank/shift Bernoulli numbers B[r,s] and their polynomial extension.

B[r,s] = sum(C(r, v) * B_{s+v} for v in 0..r), indexed by rank r >= 0 and
shift s >= 0; row r = 0 is the Bernoulli sequence itself.  The same numbers
arise three independent ways -- the defining binomial sum, a Pascal-style
recurrence filling the table row by row (exact_arith._triangle_rows, which
denom's psi triangles share), and iterated forward differences of
(-1)^n B_n (forward_difference, here) -- and every path is exposed so the
suite can play them against each other.  The table runs in integers: by von Staudt-Clausen every
denominator of B_0..B_n divides D = product(primes <= n + 1), so D * B[r,s]
is an integer for r + s <= n.  The polynomial extension B[r,s](x) sums
Bernoulli polynomials the same way, is a coefficient tuple accumulated from
the table one row at a time, and obeys an asymmetric reciprocity in x and -x.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, gcd, prod
from typing import Callable, Iterable, Iterator, Sequence, Union

from .bernoulli import BernoulliCache
from .errors import CapacityError, InvariantViolation
from .exact_arith import _triangle_rows, primes_up_to

Scalar = Union[int, Fraction]


def _check_key(cache: BernoulliCache, r: int, s: int) -> None:
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    if r + s > cache.capacity:
        raise CapacityError(
            f"B[{r},{s}] needs B_{r + s} but cache is sealed at capacity {cache.capacity}"
        )


def _defining_sum(b: Sequence[Scalar], r: int, s: int) -> Scalar:
    """sum(C(r, v) * b[s + v] for v in 0..r), zero terms skipped; b is B_n or D * B_n."""
    return sum(comb(r, v) * b[s + v] for v in range(r + 1) if b[s + v])


def bs_direct(cache: BernoulliCache, r: int, s: int) -> Fraction:
    """B[r,s] by the defining sum over C(r, v) * B_{s+v}."""
    _check_key(cache, r, s)
    return Fraction(_defining_sum(cache, r, s))


def _scaled_bernoulli(cache: BernoulliCache, n: int) -> tuple[int, list[int]]:
    """(D, [D * B_0, ..., D * B_n]) with D = product(primes <= n + 1).

    By von Staudt-Clausen the denominator of each B_k with k <= n divides D;
    a B_k that breaks this raises InvariantViolation.
    """
    d = prod(primes_up_to(n + 1))
    seed = []
    for k in range(n + 1):
        b = cache[k]
        share, rest = divmod(d, b.denominator)
        if rest:
            raise InvariantViolation(f"denom(B_{k}) = {b.denominator} does not divide {d}")
        seed.append(b.numerator * share)
    return d, seed


def _lowest_terms(x: int, d: int) -> tuple[int, int]:
    """x / d in lowest terms as (numerator, denominator), by one gcd; no Fraction is built."""
    g = gcd(x, d)
    return x // g, d // g


def _scaled_polynomial(rows: Iterable[Sequence[int]], r: int, s: int, d: int) -> list[int]:
    """D times the coefficients of B[r,s](x), lowest power first, from the rows D * B[i, 0..s], i <= r.

    [x^k] B[r,s](x) = sum(C(r, j) * C(s, t) * B[r - j, s - t]) over j + t = k,
    which is Vandermonde on the umbral form (B + 1 + x)^r (B + x)^s.  Row
    i = r - j adds all of its terms at once, so the rows are read one at a
    time.  B[r,s](x) is monic: InvariantViolation unless [x^(r+s)] is D.
    """
    comb_s = [comb(s, t) for t in range(s + 1)]
    coeffs = [0] * (r + s + 1)
    for i, row in enumerate(rows):
        weight = comb(r, i)  # C(r, j) for j = r - i
        for k, c, x in zip(range(r - i, r - i + s + 1), comb_s, row[s::-1]):
            coeffs[k] += weight * c * x
    if coeffs[-1] != d:
        raise InvariantViolation(
            f"B[{r},{s}](x) should be monic of degree {r + s}, "
            f"got leading coefficient {Fraction(coeffs[-1], d)}"
        )
    return coeffs


class BsTable(namedtuple("BsTable", "max_r max_s denominator scaled")):
    """Dense rectangle of B[r,s] for 0 <= r <= max_r, 0 <= s <= max_s, in integers.

    scaled[r][s] = denominator * B[r,s].  The denominator is a multiple of
    every prime p <= max_r + max_s + 1; bs_table_recursive makes it their
    product.  Fractions are made only on demand.  No __slots__: the cached
    entries live in the instance dict.
    """

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of B[r,s] as reduced Fractions, built on first use."""
        d = self.denominator
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.scaled)

    def _check_inside(self, r: int, s: int, suffix: str = "") -> None:
        if not (0 <= r <= self.max_r and 0 <= s <= self.max_s):
            raise ValueError(f"B[{r},{s}]{suffix} lies outside the {self.max_r}x{self.max_s} table")

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        """B[r,s]; ValueError for a key outside the rectangle, negative ones included."""
        r, s = key
        self._check_inside(r, s)
        return Fraction(self.scaled[r][s], self.denominator)

    def denominators(self) -> list[list[int]]:
        """denom(B[r,s]) for every key, no Fraction built."""
        d = self.denominator
        return [[_lowest_terms(x, d)[1] for x in row] for row in self.scaled]

    def scaled_polynomial(self, r: int, s: int) -> list[int]:
        """D times the coefficients of B[r,s](x), lowest power first; monic of degree r + s."""
        self._check_inside(r, s, "(x)")
        return _scaled_polynomial(self.scaled[: r + 1], r, s, self.denominator)


def _table_rows(cache: BernoulliCache, max_r: int, max_s: int) -> tuple[int, Iterator[list[int]]]:
    """(D, the rows D * B[r, 0..max_s] for r = 0..max_r), n = max_r + max_s.

    The bounds and D are checked before this returns; each row is then made
    as it is read, by _triangle_rows out to column n - r, as the next row
    needs, and trimmed to the requested width.
    """
    if max_r < 0 or max_s < 0:
        raise ValueError("table bounds must be non-negative")
    if max_r + max_s > cache.capacity:
        raise CapacityError(
            f"{max_r}x{max_s} table needs B_{max_r + max_s} but cache capacity is {cache.capacity}"
        )
    d, seed = _scaled_bernoulli(cache, max_r + max_s)
    return d, (row[: max_s + 1] for row in islice(_triangle_rows(seed), max_r + 1))


def bs_table_recursive(cache: BernoulliCache, max_r: int, max_s: int) -> BsTable:
    """Fill the rectangle in integers from D * B_0..D * B_n, n = max_r + max_s."""
    d, rows = _table_rows(cache, max_r, max_s)
    return BsTable(max_r, max_s, d, tuple(map(tuple, rows)))


def reduced_rows(cache: BernoulliCache, max_r: int, max_s: int) -> Iterator[list[tuple[int, int]]]:
    """The rows B[r, 0..max_s] for r = 0..max_r as (numerator, denominator) pairs in lowest terms.

    Checked like bs_table_recursive before this returns; only the row being
    read is held, so a table can be written out without ever being whole.
    """
    d, rows = _table_rows(cache, max_r, max_s)
    return ([_lowest_terms(x, d) for x in row] for row in rows)


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


def _difference_forms(f: Callable[[int], Scalar], r: int, s: int) -> tuple[Scalar, Scalar]:
    """(-1)^(r+s) * delta^r f at s, and delta^s f at r: both equal B[r,s] for f(n) = (-1)^n B_n."""
    sign = -1 if (r + s) % 2 else 1
    return sign * forward_difference(f, r, s), forward_difference(f, s, r)


def bs_via_difference(cache: BernoulliCache, r: int, s: int) -> Fraction:
    """B[r,s] as an iterated forward difference of f(n) = (-1)^n B_n.

    Both stated forms -- (-1)^(r+s) * delta^r f at s, and delta^s f at r --
    are evaluated and must agree; disagreement raises InvariantViolation.
    """
    _check_key(cache, r, s)

    def f(n: int) -> Fraction:
        b = cache[n]
        return -b if n % 2 else b

    rank_form, shift_form = _difference_forms(f, r, s)
    if rank_form != shift_form:
        raise InvariantViolation(
            f"difference forms disagree at (r={r}, s={s}): {rank_form} != {shift_form}"
        )
    return rank_form


def antidiagonal_sums(cache: BernoulliCache, n_max: int) -> list[Fraction]:
    """Sums of B[r,s] over r + s = n for n = 0..n_max: 1 at n = 0, then 0.

    Streams the triangle r + s <= n_max, so one row is held at a time.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    d, seed = _scaled_bernoulli(cache, n_max)
    sums = [0] * (n_max + 1)
    for r, row in enumerate(_triangle_rows(seed)):
        for s, value in enumerate(row):
            sums[r + s] += value
    return [Fraction(total, d) for total in sums]


def bs_polynomial(cache: BernoulliCache, r: int, s: int) -> tuple[Fraction, ...]:
    """The coefficients of B[r,s](x) = sum(C(r, v) * B_{s+v}(x)), lowest power first.

    Only one row of the table up to (r, s) is held at a time.
    """
    d, rows = _table_rows(cache, r, s)
    return tuple(Fraction(c, d) for c in _scaled_polynomial(rows, r, s, d))
