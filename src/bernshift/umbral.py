"""Rank/shift Bernoulli numbers B[r,s] and their polynomial extension.

B[r,s] = sum(C(r, v) * B_{s+v} for v in 0..r), indexed by rank r >= 0 and
shift s >= 0; row r = 0 is the Bernoulli sequence itself.  The same numbers
arise three independent ways -- the defining binomial sum, a Pascal-style
recurrence filling the table row by row, and iterated forward differences of
(-1)^n B_n -- and every path is exposed so the suite can play them against
each other.  The polynomial extension B[r,s](x) sums Bernoulli polynomials
the same way and satisfies an asymmetric reciprocity in x and -x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bernoulli import BernoulliCache, bernoulli_polynomial
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


def bs_table_recursive(cache: BernoulliCache, max_r: int, max_s: int) -> BsTable:
    """Fill the rectangle from the Bernoulli row via B[r+1,s] = B[r,s] + B[r,s+1].

    Row 0 is seeded with B_s; each later row consumes the previous one, which
    must extend one column further, so row r is computed out to column
    max_s + max_r - r and trimmed to the requested width on storage.
    """
    if max_r < 0 or max_s < 0:
        raise ValueError("table bounds must be non-negative")
    if max_r + max_s > cache.capacity:
        raise CapacityError(
            f"{max_r}x{max_s} table needs B_{max_r + max_s} but cache capacity is {cache.capacity}"
        )
    row = [cache[s] for s in range(max_r + max_s + 1)]
    rows = [tuple(row[: max_s + 1])]
    for _ in range(max_r):
        row = [row[s] + row[s + 1] for s in range(len(row) - 1)]
        rows.append(tuple(row[: max_s + 1]))
    return BsTable(max_r=max_r, max_s=max_s, entries=tuple(rows))


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


def antidiagonal_sum(cache: BernoulliCache, n: int) -> Fraction:
    """Sum of B[r,s] over r + s = n: equals 1 for n = 0 and 0 for n >= 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    acc = Fraction(0)
    for r in range(n + 1):
        acc += bs_direct(cache, r, n - r)
    return acc


def bs_polynomial(cache: BernoulliCache, r: int, s: int) -> Poly:
    """B[r,s](x) = sum(C(r, v) * B_{s+v}(x)): monic of degree r + s.

    The constant coefficient is B[r,s]; degree and leading coefficient are
    verified on the way out.
    """
    _check_key(cache, r, s)
    acc = bernoulli_polynomial(cache, s + r)
    for v in range(r):
        acc = acc + comb(r, v) * bernoulli_polynomial(cache, s + v)
    if acc.degree != r + s or acc.coeffs[-1] != 1:
        raise InvariantViolation(
            f"B[{r},{s}](x) should be monic of degree {r + s}, got {acc!r}"
        )
    return acc


def grabisch_b(cache: BernoulliCache, m: int, d: int) -> Fraction:
    """The doubly-indexed value b_m^d under the reindexing b_m^d = B[m, d-m]."""
    if m < 0 or d < 0:
        raise ValueError("indices must be non-negative")
    if m > d:
        raise ValueError(f"b_m^d needs m <= d, got m={m}, d={d}")
    return bs_direct(cache, m, d - m)
