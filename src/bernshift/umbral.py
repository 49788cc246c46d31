"""Rank/shift Bernoulli numbers B[r,s] and their polynomial extension.

B[r,s] = sum(C(r, v) * B_{s+v} for v in 0..r), indexed by rank r >= 0 and
shift s >= 0; row r = 0 is the Bernoulli sequence itself.  The same numbers
arise three independent ways -- the defining binomial sum, a Pascal-style
recurrence filling the table row by row (_walk, the package's one walk of
it, with denom's psi seeds beside), and iterated forward differences of
(-1)^n B_n (_difference_forms, here) -- and every path is exposed so the
suite can play them against each other.  Every route runs in integers, and
each sum is handed the binomial rows it reads (see exact_arith).  The
defining sum scales B_s..B_{s+r} to their least common denominator.  The
table scales the seed: by von Staudt-Clausen every denominator of B_0..B_n
divides D = product(primes <= n + 1), so D * B[r,s] is an integer for
r + s <= n, and _walk seeds the table with D * B_0..D * B_n from
_scaled_bernoulli.  The polynomial extension B[r,s](x) sums Bernoulli
polynomials the same way, is a coefficient tuple accumulated from the table
one row at a time, and obeys an asymmetric reciprocity in x and -x.

A value is reduced once, by exact_arith._lowest_terms, to its (numerator,
denominator) pair, and worded in a failure message by _quotient_text.  A
Fraction is made only where the library hands a value out -- bs_direct,
bs_via_difference, bs_polynomial, a BsTable key read, antidiagonal_sums --
each importing fractions when it runs; the CLI asks for the pairs, so no
request loads it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, repeat
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import exact_arith
from .bernoulli import BernoulliCache
from .errors import InvariantViolation
from .exact_arith import _binomials, _lowest_terms, _product_tree, _quotient_text, _triangle_rows, primes_up_to

if TYPE_CHECKING:
    from fractions import Fraction


def _defining_sum(b: Sequence[int], s: int, comb_r: Sequence[int]) -> int:
    """sum(C(r, v) * b[s + v] for v in 0..r) from comb_r = C(r, 0..r), zero terms skipped; b is L * B_n or D * B_n."""
    terms = list(map(b.__getitem__, range(s, s + len(comb_r))))
    return sum(map(mul, compress(comb_r, terms), filter(None, terms)))


def bs_direct(cache: BernoulliCache, r: int, s: int, *, pair: bool = False) -> Fraction | tuple[int, int]:
    """B[r,s] by the defining sum over C(r, v) * B_{s+v}, in integers over a common denominator.

    B_s..B_{s+r} are scaled to L, the lcm of their denominators, summed, and
    reduced once.  L is read off the cache, not taken from von Staudt-Clausen,
    so this route does not share the table's seed.  With pair=True the value
    is returned as (numerator, denominator) in lowest terms, as the CLI
    prints it, and no Fraction is made.  cache.pair refuses a key past the
    capacity; a negative rank, whose window is empty, is refused here.
    """
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    window = list(map(cache.pair, range(s, s + r + 1)))
    common = lcm(*(den for _, den in window))
    scaled = [num * (common // den) for num, den in window]  # L * B_{s+v} for v = 0..r
    num, den = _lowest_terms(_defining_sum(scaled, 0, tuple(_binomials(r))), common)
    if pair:
        return num, den
    from fractions import Fraction

    return Fraction(num, den)


def _scaled_bernoulli(cache: BernoulliCache, n: int) -> tuple[int, list[int]]:
    """(D, [D * B_0, ..., D * B_n]) with D = product(primes <= n + 1).

    B_0..B_n are read before D is sieved, so cache.pair refuses an n past the
    capacity before any other work.  By von Staudt-Clausen the denominator of
    each B_k with k <= n divides D; a B_k that breaks this raises InvariantViolation.
    """
    pairs = list(map(cache.pair, range(n + 1)))
    d = _product_tree(primes_up_to(n + 1))
    seed = []
    for k, (num, den) in enumerate(pairs):
        share, rest = divmod(d, den)
        if rest:
            raise InvariantViolation(f"denom(B_{k}) = {den} does not divide {d}")
        seed.append(num * share)
    exact_arith._TALLY["seeds"] += 1
    return d, seed


def _scaled_polynomial(
    rows: Iterable[Sequence[int]], comb_r: Sequence[int], comb_s: Sequence[int], d: int
) -> list[int]:
    """D times the coefficients of B[r,s](x), lowest power first, from the rows D * B[i, 0..s], i <= r.

    [x^k] B[r,s](x) = sum(C(r, j) * C(s, t) * B[r - j, s - t]) over j + t = k,
    which is Vandermonde on the umbral form (B + 1 + x)^r (B + x)^s, with
    comb_r = C(r, 0..r) and comb_s = C(s, 0..s).  Row i = r - j adds all of
    its terms at once, so the rows are read one at a time.  B[r,s](x) is
    monic: InvariantViolation unless [x^(r+s)] is D.
    """
    r, s = len(comb_r) - 1, len(comb_s) - 1
    coeffs = [0] * (r + s + 1)
    for i, row in enumerate(rows):
        weight = comb_r[i]  # C(r, j) for j = r - i
        for k, c, x in zip(range(r - i, r - i + s + 1), comb_s, row[s::-1]):
            coeffs[k] += weight * c * x
    if coeffs[-1] != d:
        raise InvariantViolation(
            f"B[{r},{s}](x) should be monic of degree {r + s}, "
            f"got leading coefficient {_quotient_text(coeffs[-1], d)}"
        )
    return coeffs


class BsTable(namedtuple("BsTable", "max_r max_s denominator scaled")):
    """Dense rectangle of B[r,s] for 0 <= r <= max_r, 0 <= s <= max_s, in integers.

    scaled[r][s] = denominator * B[r,s].  The denominator is a multiple of
    every prime p <= max_r + max_s + 1; bs_table_recursive makes it their
    product.  A Fraction is made only when an entry is read.
    """

    __slots__ = ()

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        """B[r,s]; ValueError for a key outside the rectangle, negative ones included."""
        r, s = key
        if not (0 <= r <= self.max_r and 0 <= s <= self.max_s):
            raise ValueError(f"B[{r},{s}] lies outside the {self.max_r}x{self.max_s} table")
        from fractions import Fraction

        return Fraction(self.scaled[r][s], self.denominator)


def _walk(
    cache: BernoulliCache, n: int, ranks: Sequence[int], *beside: Sequence[int], mirror: bool = False
) -> tuple[int, list[int], Iterator]:
    """(D, the seed D * B_0..D * B_n, the steps (r, row, [mirror row,] *beside rows) for r in ranks): the one walk.

    Each beside seed's triangle is walked by exact_arith._triangle_rows, so a patched umbral._triangle_rows
    edits the D * B walk alone; exact_arith._lockstep takes all in step and stops them at the last rank in ranks.
    """
    d, seed = _scaled_bernoulli(cache, n)
    walks = [_triangle_rows(seed), *([exact_arith._mirror_rows(seed)] if mirror else [])]
    walks += map(exact_arith._triangle_rows, beside)
    return d, seed, exact_arith._lockstep(ranks, *walks)


def _table_rows(cache: BernoulliCache, max_r: int, max_s: int) -> tuple[int, Iterator[list[int]]]:
    """(D, the rows D * B[r, 0..max_s] for r = 0..max_r), n = max_r + max_s.

    The bounds, the cache's B_0..B_n (by _scaled_bernoulli) and D are checked
    before this returns; each row is then made as it is read, by _walk out to
    column n - r, as the next row needs, and trimmed to the requested width.
    """
    if max_r < 0 or max_s < 0:
        raise ValueError("table bounds must be non-negative")
    d, _, steps = _walk(cache, max_r + max_s, range(max_r + 1))
    return d, (row[: max_s + 1] for _, row in steps)


def bs_table_recursive(cache: BernoulliCache, max_r: int, max_s: int) -> BsTable:
    """Fill the rectangle in integers from D * B_0..D * B_n, n = max_r + max_s."""
    d, rows = _table_rows(cache, max_r, max_s)
    return BsTable(max_r, max_s, d, tuple(map(tuple, rows)))


def reduced_rows(cache: BernoulliCache, max_r: int, max_s: int) -> Iterator[Iterator[tuple[int, int]]]:
    """The rows B[r, 0..max_s] for r = 0..max_r as (numerator, denominator) pairs in lowest terms.

    Checked like bs_table_recursive before this returns; a row is reduced as
    it is read, so a table is never whole and a row left unread costs no gcd.
    """
    d, rows = _table_rows(cache, max_r, max_s)
    return (map(_lowest_terms, row, repeat(d)) for row in rows)


def _difference(values: Sequence[int], row: Sequence[int]) -> int:
    """sum(C(order, v) * (-1)^(order-v) * values[v]) for v in 0..order, from row = C(order, 0..order)."""
    # the terms at even v and at odd v, each summed without its sign
    even = sum(map(mul, row[::2], values[::2]))
    odd = sum(map(mul, row[1::2], values[1::2]))
    return even - odd if len(row) % 2 else odd - even


def _difference_forms(b: Sequence[int], comb_r: Sequence[int], comb_s: Sequence[int]) -> tuple[int, int]:
    """(-1)^(r+s) delta^r b at s and delta^s b at r, by the rows C(r, 0..r), C(s, 0..s): B[r,s] if b[n] = (-1)^n B_n."""
    r, s = len(comb_r) - 1, len(comb_s) - 1
    return (-1) ** (r + s) * _difference(b[s : s + r + 1], comb_r), _difference(b[r : r + s + 1], comb_s)


def bs_via_difference(cache: BernoulliCache, r: int, s: int) -> Fraction:
    """B[r,s] as an iterated forward difference of f(n) = (-1)^n B_n, in integers over D.

    Both stated forms -- (-1)^(r+s) * delta^r f at s, and delta^s f at r --
    are summed over D * f(0..r+s) and must agree; disagreement raises
    InvariantViolation.  Scaled by D, not bs_direct's L, and summing
    differences, not the defining sum, this route stays independent of
    bs_direct.  cache.pair refuses a key past the capacity before any work.
    """
    if r < 0 or s < 0:
        raise ValueError("rank and shift must be non-negative")
    d, seed = _scaled_bernoulli(cache, r + s)
    signed = [-x if n % 2 else x for n, x in enumerate(seed)]  # D * (-1)^n B_n
    rank_form, shift_form = _difference_forms(signed, tuple(_binomials(r)), tuple(_binomials(s)))
    if rank_form != shift_form:
        raise InvariantViolation(
            f"difference forms disagree at (r={r}, s={s}): "
            f"{_quotient_text(rank_form, d)} != {_quotient_text(shift_form, d)}"
        )
    from fractions import Fraction

    return Fraction(rank_form, d)


def _antidiagonal_totals(cache: BernoulliCache, n: int) -> tuple[int, list[int]]:
    """(D, D times the sums of B[r,s] over r + s = k for k = 0..n), streamed: one row is held at a time."""
    d, _, steps = _walk(cache, n, range(n + 1))
    sums = [0] * (n + 1)
    for r, row in steps:
        for s, value in enumerate(row):
            sums[r + s] += value
    return d, sums


def antidiagonal_sums(cache: BernoulliCache, n_max: int) -> list[Fraction]:
    """Sums of B[r,s] over r + s = n for n = 0..n_max: 1 at n = 0, then 0."""
    if n_max < 0:
        raise ValueError("n must be non-negative")
    d, sums = _antidiagonal_totals(cache, n_max)
    from fractions import Fraction

    return [Fraction(total, d) for total in sums]


def bs_polynomial(
    cache: BernoulliCache, r: int, s: int, *, pairs: bool = False
) -> tuple[Fraction, ...] | tuple[tuple[int, int], ...]:
    """The coefficients of B[r,s](x) = sum(C(r, v) * B_{s+v}(x)), lowest power first.

    Only one row of the table up to (r, s) is held at a time.  With
    pairs=True each is returned as (numerator, denominator) in lowest terms,
    as the CLI prints them, and no Fraction is made.
    """
    d, rows = _table_rows(cache, r, s)
    coeffs = _scaled_polynomial(rows, tuple(_binomials(r)), tuple(_binomials(s)), d)
    reduced = tuple(map(_lowest_terms, coeffs, repeat(d)))
    if pairs:
        return reduced
    from fractions import Fraction

    return tuple(Fraction(num, den) for num, den in reduced)
