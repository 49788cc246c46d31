from fractions import Fraction
from math import comb, prod

import pytest

from bernshift import CapacityError, InvariantViolation
from bernshift.bernoulli import BernoulliCache
from bernshift.exact_arith import primes_up_to
from bernshift.umbral import (
    BsTable,
    _scaled_bernoulli,
    _scaled_polynomial,
    _triangle_rows,
    antidiagonal_sums,
    bs_direct,
    bs_polynomial,
    bs_table_recursive,
    bs_via_difference,
    reduced_rows,
)
from oracles import bernoulli_polynomial, evaluate, reflect
from reference_grid import REFERENCE_GRID


class TestBsDirect:
    def test_examples(self, cache):
        assert bs_direct(cache, 2, 2) == Fraction(2, 15)
        assert bs_direct(cache, 5, 2) == Fraction(-1, 21)
        assert bs_direct(cache, 8, 8) == Fraction(362624, 36465)
        assert bs_direct(cache, 3, 0) == 0

    def test_matches_reference_grid(self, cache):
        for r in range(9):
            for s in range(9):
                assert bs_direct(cache, r, s) == REFERENCE_GRID[r][s]

    def test_row_and_column_specials(self, cache):
        for n in range(101):
            b_n = cache[n]
            b_next = cache[n + 1]
            assert bs_direct(cache, 0, n) == b_n
            assert bs_direct(cache, n, 0) == (b_n if n % 2 == 0 else -b_n)
            assert bs_direct(cache, 1, n) == b_n + b_next
            rank_one_col = b_n + b_next if n % 2 else -(b_n + b_next)
            assert bs_direct(cache, n, 1) == rank_one_col

    def test_rank_one_never_vanishes(self, cache):
        for s in range(101):
            assert bs_direct(cache, 1, s) != 0

    def test_bounds(self):
        small = BernoulliCache(4)
        assert bs_direct(small, 2, 2) == Fraction(2, 15)
        with pytest.raises(CapacityError):
            bs_direct(small, 3, 2)
        with pytest.raises(ValueError):
            bs_direct(small, -1, 0)


class TestBsTable:
    def test_examples(self, cache):
        table = bs_table_recursive(cache, 8, 8)
        assert table[1, 1] == Fraction(-1, 3)
        assert table[4, 6] == Fraction(-116, 1155)
        assert table.entries == REFERENCE_GRID

    def test_matches_direct_on_rectangle(self, cache):
        table = bs_table_recursive(cache, 12, 7)
        for r in range(13):
            for s in range(8):
                assert table[r, s] == bs_direct(cache, r, s)

    def test_degenerate_sizes(self, cache):
        assert bs_table_recursive(cache, 0, 0)[0, 0] == 1
        column = bs_table_recursive(cache, 5, 0)
        assert [column[r, 0] for r in range(6)] == [
            bs_direct(cache, r, 0) for r in range(6)
        ]

    def test_keys_outside_the_rectangle_raise(self, cache):
        table = bs_table_recursive(cache, 3, 3)
        for key in ((-1, 1), (1, -2), (-1, -1), (4, 0), (0, 4), (4, 4)):
            with pytest.raises(ValueError):
                table[key]
        assert [table[r, s] for r in (0, 3) for s in (0, 3)] == [
            bs_direct(cache, r, s) for r in (0, 3) for s in (0, 3)
        ]

    def test_bounds(self, cache):
        with pytest.raises(CapacityError):
            bs_table_recursive(BernoulliCache(3), 2, 2)
        with pytest.raises(ValueError):
            bs_table_recursive(cache, -1, 2)
        # the streamed rows are checked when asked for, before any row is read
        with pytest.raises(CapacityError):
            reduced_rows(BernoulliCache(3), 2, 2)
        with pytest.raises(ValueError):
            reduced_rows(cache, -1, 2)


def fraction_triangle_rows(cache, n):
    """Rows of B[r,s] over r + s <= n by the recurrence in Fractions: the integer table's oracle."""
    row = [cache[s] for s in range(n + 1)]
    yield row
    for _ in range(n):
        row = [row[s] + row[s + 1] for s in range(len(row) - 1)]
        yield row


class TestIntegerTriangle:
    def test_is_primorial_times_fraction_triangle(self, cache):
        oracle = list(fraction_triangle_rows(cache, 120))
        for n in range(121):
            d, seed = _scaled_bernoulli(cache, n)
            assert d == prod(primes_up_to(n + 1))
            rows = list(_triangle_rows(seed))
            assert len(rows) == n + 1
            for r, row in enumerate(rows):
                assert len(row) == n + 1 - r
                for x, q in zip(row, oracle[r]):
                    assert type(x) is int
                    assert x * q.denominator == d * q.numerator

    def test_table_keeps_fraction_views(self, cache):
        table = bs_table_recursive(cache, 9, 5)
        assert table.denominator == prod(primes_up_to(15))
        oracle = list(fraction_triangle_rows(cache, 14))[:10]
        assert table.entries == tuple(tuple(row[:6]) for row in oracle)
        assert table.denominators() == [[q.denominator for q in row] for row in table.entries]
        pairs = [[(q.numerator, q.denominator) for q in row] for row in table.entries]
        assert list(reduced_rows(cache, 9, 5)) == pairs


class TestBsViaDifference:
    def test_examples(self, cache):
        assert bs_via_difference(cache, 2, 3) == Fraction(-1, 15)
        assert bs_via_difference(cache, 7, 7) == Fraction(-3712, 2145)
        for s in range(9):
            assert bs_via_difference(cache, 0, s) == cache[s]

    def test_matches_direct_on_triangle(self, cache):
        for r in range(21):
            for s in range(21 - r):
                assert bs_via_difference(cache, r, s) == bs_direct(cache, r, s)


class TestShiftIdentity:
    def test_holds_generally(self, cache):
        # the n-fold recurrence B[r+n,s] = sum(C(n, v) * B[r,s+v]), over D, for every r, s, n <= 12
        x = bs_table_recursive(cache, 24, 24).scaled
        bad = [
            (r, s, n)
            for r in range(13)
            for s in range(13)
            for n in range(13)
            if x[r + n][s] != sum(comb(n, v) * x[r][s + v] for v in range(n + 1))
        ]
        assert bad == []


class TestAntidiagonal:
    def test_examples(self, cache):
        sums = antidiagonal_sums(cache, 16)
        assert len(sums) == 17
        assert sums[0] == 1
        assert sums[4] == 0
        assert sums[16] == 0

    def test_matches_sums_of_direct_values(self, cache):
        sums = antidiagonal_sums(cache, 40)
        for n in range(41):
            assert sums[n] == sum(bs_direct(cache, r, n - r) for r in range(n + 1))

    def test_bounds(self):
        assert antidiagonal_sums(BernoulliCache(4), 4) == [1, 0, 0, 0, 0]
        with pytest.raises(CapacityError):
            antidiagonal_sums(BernoulliCache(4), 5)
        with pytest.raises(ValueError):
            antidiagonal_sums(BernoulliCache(4), -1)

    def test_palindromic_absolute_values(self, cache):
        for r in range(31):
            for s in range(31):
                assert abs(bs_direct(cache, r, s)) == abs(bs_direct(cache, s, r))


def weighted_sum(terms):
    """sum(w * p) over the (w, p) in terms, added coefficient by coefficient."""
    coeffs = []
    for weight, poly in terms:
        coeffs += [0] * (len(poly) - len(coeffs))
        for k, c in enumerate(poly):
            coeffs[k] += weight * c
    return tuple(coeffs)


def column_polynomial(table, r, s):
    """D * B[r,s](x) column by column: [x^k] = sum(C(r, j) * C(s, k - j) * D * B[r - j, s - k + j])."""
    x = table.scaled
    return [
        sum(comb(r, j) * comb(s, k - j) * x[r - j][s - k + j] for j in range(max(0, k - s), min(r, k) + 1))
        for k in range(r + s + 1)
    ]


def over_denominator(table, coeffs):
    return tuple(Fraction(c, table.denominator) for c in coeffs)


class TestBsPolynomial:
    def test_examples(self, cache):
        assert bs_polynomial(cache, 0, 1) == (Fraction(-1, 2), 1)
        assert evaluate(bs_polynomial(cache, 2, 2), 0) == Fraction(2, 15)
        assert bs_polynomial(cache, 1, 0) == (Fraction(1, 2), 1)
        assert all(type(c) is Fraction for c in bs_polynomial(cache, 3, 2))

    def test_monic_with_constant_term(self, cache):
        for r in range(11):
            for s in range(11):
                poly = bs_polynomial(cache, r, s)
                assert len(poly) == r + s + 1
                assert poly[-1] == 1
                assert evaluate(poly, 0) == bs_direct(cache, r, s)

    def test_sums_bernoulli_polynomials(self, cache):
        # B[2,2](x) = B_2(x) + 2 B_3(x) + B_4(x)
        expected = weighted_sum((w, bernoulli_polynomial(cache, n)) for w, n in ((1, 2), (2, 3), (1, 4)))
        assert bs_polynomial(cache, 2, 2) == expected

    def test_matches_sum_of_bernoulli_polynomials(self, cache):
        # the slow route: sum(C(r, v) * B_{s+v}(x)), added coefficient by coefficient
        square = bs_table_recursive(cache, 14, 14)
        for r in range(15):
            for s in range(15):
                expected = weighted_sum(
                    (comb(r, v), bernoulli_polynomial(cache, s + v)) for v in range(r + 1)
                )
                assert bs_polynomial(cache, r, s) == expected
                assert over_denominator(square, square.scaled_polynomial(r, s)) == expected

    @pytest.mark.parametrize("max_r, max_s", [(12, 12), (9, 4), (4, 9)])
    def test_row_accumulation_matches_column_sums(self, cache, max_r, max_s):
        table = bs_table_recursive(cache, max_r, max_s)
        for r in range(max_r + 1):
            for s in range(max_s + 1):
                expected = column_polynomial(table, r, s)
                assert table.scaled_polynomial(r, s) == expected
                # rows i = 0..r, longer than s + 1, read once from an iterator
                rows = iter(table.scaled[: r + 1])
                assert _scaled_polynomial(rows, r, s, table.denominator) == expected

    def test_table_polynomial_on_non_square_table(self, cache):
        table = bs_table_recursive(cache, 9, 4)
        for r in range(10):
            for s in range(5):
                assert over_denominator(table, table.scaled_polynomial(r, s)) == bs_polynomial(cache, r, s)
        with pytest.raises(ValueError):
            table.scaled_polynomial(4, 9)

    def test_never_builds_a_whole_table(self, cache, monkeypatch):
        import bernshift.umbral as umbral

        table = bs_table_recursive(cache, 7, 5)
        expected = over_denominator(table, column_polynomial(table, 7, 5))

        def refuse(*args):
            raise AssertionError("bs_polynomial built a whole table")

        monkeypatch.setattr(umbral, "bs_table_recursive", refuse)
        assert bs_polynomial(cache, 7, 5) == expected

    def test_wrong_table_is_not_monic(self):
        # the leading coefficient of B[r,s](x) is read from B[0,0], here 3/2 instead of 1
        table = BsTable(1, 1, 2, ((3, 1), (1, 1)))
        with pytest.raises(InvariantViolation, match=r"B\[1,1\]\(x\) .* leading coefficient 3/2$"):
            table.scaled_polynomial(1, 1)

    def test_bounds(self):
        with pytest.raises(CapacityError):
            bs_polynomial(BernoulliCache(3), 2, 2)
        with pytest.raises(ValueError):
            bs_polynomial(BernoulliCache(3), -1, 2)

    def test_reciprocity_small(self, cache):
        for r in range(11):
            for s in range(11):
                # (-1)^r B[r,s](x) = (-1)^s B[s,r](-x)
                sign = -1 if (r + s) % 2 else 1
                rhs = tuple(sign * c for c in reflect(bs_polynomial(cache, s, r)))
                assert bs_polynomial(cache, r, s) == rhs


def test_difference_disagreement_raises(cache, monkeypatch):
    import bernshift.umbral as umbral

    calls = iter([Fraction(1), Fraction(2)])
    monkeypatch.setattr(umbral, "forward_difference", lambda *a, **k: next(calls))
    with pytest.raises(InvariantViolation):
        bs_via_difference(cache, 1, 1)
