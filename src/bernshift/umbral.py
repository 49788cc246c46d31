"""Rank/shift Bernoulli numbers B[r,s] and their polynomial extension.

B[r,s] = sum(C(r, v) * B_{s+v} for v in 0..r), indexed by rank r >= 0 and
shift s >= 0; row r = 0 is the Bernoulli sequence itself.  The same numbers
arise three independent ways -- the defining binomial sum, a Pascal-style
recurrence filling the table row by row, and iterated forward differences of
(-1)^n B_n -- and every path is exposed so the suite can play them against
each other.  The polynomial extension B[r,s](x) sums Bernoulli polynomials
the same way; it is read off the table, and satisfies an asymmetric
reciprocity in x and -x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, lcm
from typing import Iterator

from .bernoulli import BernoulliCache
from .errors import CapacityError, InvariantViolation
from .exact_arith import Poly, forward_difference


def _check_key(cache: BernoulliCache, r: int, s: int) -> None:
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    if r + s > cache.capacity:
        raise CapacityError(
            f"B[{r},{s}] needs B_{r + s} but cache is sealed at capacity {cache.capacity}"
        )


def bs_direct(cache: BernoulliCache, r: int, s: int) -> Fraction:
    """B[r,s] by the defining sum over C(r, v) * B_{s+v}."""
    _check_key(cache, r, s)
    acc = Fraction(0)
    for v in range(r + 1):
        b = cache[s + v]
        if b:
            acc += comb(r, v) * b
    return acc


@dataclass(frozen=True)
class BsTable:
    """Dense rectangle of B[r,s] values for 0 <= r <= max_r, 0 <= s <= max_s."""

    max_r: int
    max_s: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        r, s = key
        return self.entries[r][s]

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, rows of D * B[r,s]) with D the lcm of the entries' denominators."""
        d = lcm(*(q.denominator for row in self.entries for q in row))
        rows = tuple(tuple(q.numerator * (d // q.denominator) for q in row) for row in self.entries)
        return d, rows

    def polynomial(self, r: int, s: int) -> Poly:
        """B[r,s](x) read off the table: monic of degree r + s, constant term B[r,s].

        [x^k] B[r,s](x) = sum(C(r, j) * C(s, k - j) * B[r - j, s - k + j]), which
        is Vandermonde on the umbral form (B + 1 + x)^r (B + x)^s.  Each
        coefficient is summed in integers over the table's common denominator
        and reduced once.
        """
        if not (0 <= r <= self.max_r and 0 <= s <= self.max_s):
            raise ValueError(f"B[{r},{s}](x) lies outside the {self.max_r}x{self.max_s} table")
        d, scaled = self._scaled
        comb_r = [comb(r, j) for j in range(r + 1)]
        comb_s = [comb(s, i) for i in range(s + 1)]
        coeffs = []
        for k in range(r + s + 1):
            acc = 0
            for j in range(max(0, k - s), min(r, k) + 1):
                acc += comb_r[j] * comb_s[k - j] * scaled[r - j][s - k + j]
            coeffs.append(Fraction(acc, d))
        poly = Poly(coeffs)
        if poly.degree != r + s or poly.coeffs[-1] != 1:
            raise InvariantViolation(
                f"B[{r},{s}](x) should be monic of degree {r + s}, got {poly!r}"
            )
        return poly


def _triangle_rows(cache: BernoulliCache, n: int) -> Iterator[list[Fraction]]:
    """Rows r = 0..n of B[r,s] over r + s <= n, one at a time.

    Row 0 is B_0..B_n; row r + 1 is B[r+1,s] = B[r,s] + B[r,s+1], one entry
    shorter than row r.
    """
    row = [cache[s] for s in range(n + 1)]
    yield row
    for _ in range(n):
        row = [row[s] + row[s + 1] for s in range(len(row) - 1)]
        yield row


def bs_table_recursive(cache: BernoulliCache, max_r: int, max_s: int) -> BsTable:
    """Fill the rectangle from the Bernoulli row by the recurrence of _triangle_rows.

    Row r is computed out to column max_s + max_r - r, as the next row
    needs, and trimmed to the requested width on storage.
    """
    if max_r < 0 or max_s < 0:
        raise ValueError("table bounds must be non-negative")
    if max_r + max_s > cache.capacity:
        raise CapacityError(
            f"{max_r}x{max_s} table needs B_{max_r + max_s} but cache capacity is {cache.capacity}"
        )
    rows = islice(_triangle_rows(cache, max_r + max_s), max_r + 1)
    return BsTable(max_r=max_r, max_s=max_s, entries=tuple(tuple(row[: max_s + 1]) for row in rows))


def bs_via_difference(cache: BernoulliCache, r: int, s: int) -> Fraction:
    """B[r,s] as an iterated forward difference of f(n) = (-1)^n B_n.

    Both stated forms -- (-1)^(r+s) * delta^r f at s, and delta^s f at r --
    are evaluated and must agree; disagreement raises InvariantViolation.
    """
    _check_key(cache, r, s)

    def f(n: int) -> Fraction:
        b = cache[n]
        return -b if n % 2 else b

    sign = -1 if (r + s) % 2 else 1
    rank_form = sign * forward_difference(f, r, s)
    shift_form = forward_difference(f, s, r)
    if rank_form != shift_form:
        raise InvariantViolation(
            f"difference forms disagree at (r={r}, s={s}): {rank_form} != {shift_form}"
        )
    return rank_form


def bs_shift_identity_check(cache: BernoulliCache, r: int, s: int, n: int) -> bool:
    """Whether B[r+n,s] = sum(C(n, v) * B[r,s+v]); contract: always true."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_key(cache, r + n, s)
    rhs = Fraction(0)
    for v in range(n + 1):
        rhs += comb(n, v) * bs_direct(cache, r, s + v)
    return bs_direct(cache, r + n, s) == rhs


def antidiagonal_sums(cache: BernoulliCache, n_max: int) -> list[Fraction]:
    """Sums of B[r,s] over r + s = n for n = 0..n_max: 1 at n = 0, then 0.

    Streams the triangle r + s <= n_max, so one row is held at a time.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    sums = [Fraction(0)] * (n_max + 1)
    for r, row in enumerate(_triangle_rows(cache, n_max)):
        for s, value in enumerate(row):
            sums[r + s] += value
    return sums


def bs_polynomial(cache: BernoulliCache, r: int, s: int) -> Poly:
    """B[r,s](x) = sum(C(r, v) * B_{s+v}(x)), via BsTable.polynomial on its own table."""
    return bs_table_recursive(cache, r, s).polynomial(r, s)


def grabisch_b(cache: BernoulliCache, m: int, d: int) -> Fraction:
    """The doubly-indexed value b_m^d under the reindexing b_m^d = B[m, d-m]."""
    if m < 0 or d < 0:
        raise ValueError("indices must be non-negative")
    if m > d:
        raise ValueError(f"b_m^d needs m <= d, got m={m}, d={d}")
    return bs_direct(cache, m, d - m)
