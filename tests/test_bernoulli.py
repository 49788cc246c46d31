from fractions import Fraction
from math import comb

import pytest

from bernshift import CapacityError
from bernshift.bernoulli import (
    BernoulliCache,
    bernoulli_denominator,
    hermite_stern_check,
    von_staudt_clausen_witness,
)
from bernshift.exact_arith import primes_up_to
from oracles import bernoulli_polynomial, evaluate


def _akiyama_tanigawa(limit):
    """Independent oracle for B_0..B_limit (sign of B_1 flipped to -1/2)."""
    values = []
    row = []
    for m in range(limit + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(row[0])
    values[1] = -values[1]
    return values


def _defining_recurrence(limit):
    """Oracle for B_0..B_limit: solve sum(C(n+1, k) * B_k for k in 0..n) = 0 for B_n."""
    values = [Fraction(1)]
    for n in range(1, limit + 1):
        acc = Fraction(0)
        for k in range(n):
            if values[k]:
                acc += comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return values


class TestBernoulliNumbers:
    def test_examples(self, cache):
        assert cache[0] == 1
        assert cache[1] == Fraction(-1, 2)
        assert cache[8] == Fraction(-1, 30)
        assert cache[12] == Fraction(-691, 2730)

    def test_against_independent_oracle(self, cache):
        oracle = _akiyama_tanigawa(60)
        for n, expected in enumerate(oracle):
            assert cache[n] == expected

    def test_tangent_fill_matches_defining_recurrence(self):
        # odd and even capacities, so the trailing zero and the last B_2k are both covered
        oracle = _defining_recurrence(400)
        for capacity in (*range(8), 400):
            built = BernoulliCache(capacity)
            assert built.capacity == capacity
            assert [built[n] for n in range(capacity + 1)] == oracle[: capacity + 1]

    def test_odd_indices_vanish(self, cache):
        for n in range(3, 201, 2):
            assert cache[n] == 0

    def test_even_signs_alternate(self, cache):
        for n in range(2, 201, 2):
            expected_positive = n % 4 == 2
            assert (cache[n] > 0) == expected_positive

    def test_capacity_is_sealed(self):
        small = BernoulliCache(5)
        assert small.capacity == 5
        assert small[5] == 0
        with pytest.raises(CapacityError):
            small[6]
        with pytest.raises(ValueError):
            small[-1]

    def test_zero_capacity(self):
        assert BernoulliCache(0)[0] == 1


class TestBernoulliPolynomials:
    def test_examples(self, cache):
        assert bernoulli_polynomial(cache, 0) == (1,)
        assert bernoulli_polynomial(cache, 1) == (Fraction(-1, 2), 1)
        assert evaluate(bernoulli_polynomial(cache, 6), 1) == Fraction(1, 42)

    def test_monic_of_degree_n(self, cache):
        for n in range(41):
            poly = bernoulli_polynomial(cache, n)
            assert len(poly) == n + 1
            assert poly[-1] == 1

    def test_value_at_zero_and_one(self, cache):
        for n in range(41):
            poly = bernoulli_polynomial(cache, n)
            b_n = cache[n]
            assert evaluate(poly, 0) == b_n
            assert evaluate(poly, 1) == (b_n if n % 2 == 0 else -b_n)

    def test_translation_identity(self, cache):
        points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
        polys = [bernoulli_polynomial(cache, n) for n in range(21)]
        for n in range(21):
            for x in points:
                for y in points:
                    rhs = sum(
                        comb(n, v) * evaluate(polys[n - v], x) * y**v for v in range(n + 1)
                    )
                    assert evaluate(polys[n], x + y) == rhs

    def test_reflection_identity(self, cache):
        # B_n(1 - x) = (-1)^n B_n(x): both sides have degree n, so agreement
        # at n + 1 distinct points is equality of polynomials
        for n in range(41):
            poly = bernoulli_polynomial(cache, n)
            sign = 1 if n % 2 == 0 else -1
            for k in range(n + 1):
                x = Fraction(k - n // 2, 3)
                assert evaluate(poly, 1 - x) == sign * evaluate(poly, x)


class TestBernoulliDenominator:
    def test_examples(self):
        assert bernoulli_denominator(0) == 1
        assert bernoulli_denominator(1) == 2
        assert bernoulli_denominator(2) == 6
        assert bernoulli_denominator(7) == 1
        assert bernoulli_denominator(12) == 2730

    def test_matches_true_denominator(self, cache):
        for n in range(201):
            assert bernoulli_denominator(n) == cache[n].denominator

    def test_squarefree(self):
        for n in range(501):
            value = bernoulli_denominator(n)
            for p in primes_up_to(n + 1):
                assert value % (p * p) != 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_denominator(-1)


class TestVonStaudtClausen:
    def test_examples(self, cache):
        assert von_staudt_clausen_witness(cache, 2) == 1
        assert von_staudt_clausen_witness(cache, 4) == 1
        assert von_staudt_clausen_witness(cache, 12) == 1
        assert von_staudt_clausen_witness(cache, 14) == 2

    def test_integral_for_even_n(self, cache):
        for n in range(2, 61, 2):
            assert isinstance(von_staudt_clausen_witness(cache, n), int)

    def test_rejects_odd_and_small(self, cache):
        for bad in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                von_staudt_clausen_witness(cache, bad)


class TestHermiteStern:
    def test_examples(self):
        assert hermite_stern_check(1, 5) == 0
        assert hermite_stern_check(6, 3) == 0  # C(6,2) + C(6,4) = 30
        assert hermite_stern_check(10, 5) == 0  # C(10,4) + C(10,8) = 255

    def test_small_sweep(self):
        for m in range(1, 61):
            for p in primes_up_to(13):
                assert hermite_stern_check(m, p) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hermite_stern_check(0, 5)
        with pytest.raises(ValueError):
            hermite_stern_check(5, 6)
