import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

from bernshift import CapacityError, InvariantViolation
from bernshift.bernoulli import BernoulliCache
from bernshift.denom import denom_exact
from bernshift.exact_arith import _TALLY, _pascal_rows, primes_up_to
from bernshift.umbral import (
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
from oracles import (
    bernoulli_polynomial,
    derivative,
    derivative_identity,
    difference_identity,
    evaluate,
    reflect,
    translate,
)
from reference_grid import REFERENCE_GRID

ROWS = list(_pascal_rows(20))  # C(m, 0..m) for every order m a polynomial below reads


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
        assert tuple(tuple(table[r, s] for s in range(9)) for r in range(9)) == REFERENCE_GRID

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
        values = [[table[r, s] for s in range(6)] for r in range(10)]
        assert values == [row[:6] for row in oracle]
        pairs = [[(q.numerator, q.denominator) for q in row] for row in values]
        assert [list(row) for row in reduced_rows(cache, 9, 5)] == pairs


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

    def test_sums_one_scaled_seed_and_walks_no_row(self):
        small = BernoulliCache(21)
        _TALLY.clear()
        bs_via_difference(small, 12, 9)
        assert [_TALLY[key] for key in ("seeds", "sieves", "walk_rows")] == [1, 1, 0]

    def test_reads_no_fraction_off_the_cache(self, cache, monkeypatch):
        expected = bs_direct(cache, 12, 9)

        def refuse(self, n):
            raise AssertionError(f"read B_{n} as a Fraction")

        monkeypatch.setattr(BernoulliCache, "__getitem__", refuse)
        assert bs_via_difference(BernoulliCache(21), 12, 9) == expected


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
                scaled = _scaled_polynomial(square.scaled[: r + 1], ROWS[r], ROWS[s], square.denominator)
                assert over_denominator(square, scaled) == expected

    @pytest.mark.parametrize("max_r, max_s", [(12, 12), (9, 4), (4, 9)])
    def test_row_accumulation_matches_column_sums(self, cache, max_r, max_s):
        table = bs_table_recursive(cache, max_r, max_s)
        for r in range(max_r + 1):
            for s in range(max_s + 1):
                expected = column_polynomial(table, r, s)
                # rows i = 0..r, longer than s + 1, read once from an iterator
                rows = iter(table.scaled[: r + 1])
                assert _scaled_polynomial(rows, ROWS[r], ROWS[s], table.denominator) == expected

    def test_table_polynomial_on_non_square_table(self, cache):
        table = bs_table_recursive(cache, 9, 4)
        for r in range(10):
            for s in range(5):
                scaled = _scaled_polynomial(table.scaled[: r + 1], ROWS[r], ROWS[s], table.denominator)
                assert over_denominator(table, scaled) == bs_polynomial(cache, r, s)

    def test_never_builds_a_whole_table(self, cache):
        table = bs_table_recursive(cache, 7, 5)
        expected = over_denominator(table, column_polynomial(table, 7, 5))
        _TALLY.clear()
        assert bs_polynomial(cache, 7, 5) == expected
        # rows 0..7 of the triangle r + s <= 12, from one seed: a whole BsTable built beside them doubles each
        assert [_TALLY[key] for key in ("walk_rows", "walk_cells", "seeds")] == [8, sum(13 - r for r in range(8)), 1]
        tracemalloc.start()
        try:
            bs_polynomial(cache, 60, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 42 KB; read from a whole BsTable in place of the stream, which walks the same rows, 282 KB
        assert peak < 120_000, peak

    def test_wrong_table_is_not_monic(self):
        # the leading coefficient of B[r,s](x) is read from B[0,0], here 3/2 instead of 1
        with pytest.raises(InvariantViolation, match=r"B\[1,1\]\(x\) .* leading coefficient 3/2$"):
            _scaled_polynomial(((3, 1), (1, 1)), ROWS[1], ROWS[1], 2)

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


def _polynomial_identity_failures(cache, scaled_polynomial, bound=20):
    """The keys r, s <= bound where D * B[r,s](x) breaks the derivative and the difference identity."""
    d, seed = _scaled_bernoulli(cache, 2 * bound)
    rows = list(_triangle_rows(seed))  # one table: every polynomial is over the same D
    keys = [(r, s) for r in range(bound + 1) for s in range(bound + 1)]
    polys = {(r, s): scaled_polynomial(rows[: r + 1], ROWS[r], ROWS[s], d) for r, s in keys}
    derivative_failures = [key for key in keys if derivative(polys[key]) != derivative_identity(polys.get, *key)]
    difference_failures = []
    for key in keys:
        step = [a - b for a, b in zip(translate(polys[key]), polys[key])]  # the leading terms cancel
        if step != [d * c for c in difference_identity(*key)] + [0]:
            difference_failures.append(key)
    return derivative_failures, difference_failures


def test_polynomials_obey_the_derivative_and_difference_identities(cache):
    assert _polynomial_identity_failures(cache, _scaled_polynomial) == ([], [])


def test_one_wrong_polynomial_coefficient_breaks_both_identities(cache):
    def mutated(rows, comb_r, comb_s, d):  # [x^2] of D * B[3,5](x) plus 1
        coeffs = _scaled_polynomial(rows, comb_r, comb_s, d)
        if (len(comb_r), len(comb_s)) == (4, 6):
            coeffs[2] += 1
        return coeffs

    derivative_failures, difference_failures = _polynomial_identity_failures(cache, mutated)
    # its own derivative, and the keys whose derivative reads it
    assert derivative_failures == [(3, 5), (3, 6), (4, 5)]
    assert difference_failures == [(3, 5)]


def test_difference_disagreement_raises(cache, monkeypatch):
    import bernshift.umbral as umbral

    monkeypatch.setattr(umbral, "_difference_forms", lambda *a: (1, 2))
    with pytest.raises(InvariantViolation, match=r"^difference forms disagree at \(r=1, s=1\)"):
        bs_via_difference(cache, 1, 1)


FAR = 10**7  # a sieve or binomial row this large would take seconds, and more past it


@pytest.mark.parametrize(
    "route",
    [
        lambda cache: bs_direct(cache, FAR, 0),
        lambda cache: bs_direct(cache, 0, FAR),
        lambda cache: bs_via_difference(cache, FAR, 0),
        lambda cache: bs_via_difference(cache, 0, FAR),
        lambda cache: bs_table_recursive(cache, FAR, 3),
        lambda cache: reduced_rows(cache, 3, FAR),
        lambda cache: bs_polynomial(cache, FAR, FAR),
        lambda cache: antidiagonal_sums(cache, FAR),
        lambda cache: denom_exact(cache, FAR, FAR),
    ],
    ids=[
        "bs_direct-rank",
        "bs_direct-shift",
        "bs_via_difference-rank",
        "bs_via_difference-shift",
        "bs_table_recursive",
        "reduced_rows",
        "bs_polynomial",
        "antidiagonal_sums",
        "denom_exact",
    ],
)
def test_every_route_reads_its_bernoulli_numbers_before_any_work(route, monkeypatch):
    import bernshift.umbral as umbral

    def refuse(n):
        raise AssertionError(f"worked to order {n} before reading the cache")

    monkeypatch.setattr(umbral, "primes_up_to", refuse)
    monkeypatch.setattr(umbral, "_binomials", refuse)
    # the cache's own check, naming the first B_n it lacks, not the key
    with pytest.raises(CapacityError, match=r"^B_\d+ requested"):
        route(BernoulliCache(5))


def test_difference_refuses_negative_keys():
    small = BernoulliCache(5)
    for r, s in ((-1, 2), (2, -1), (-1, -1)):
        with pytest.raises(ValueError):
            bs_via_difference(small, r, s)
