"""The integer substrate, and the small helpers the other tests lean on.

forward_difference is umbral's difference operator, and evaluate and reflect
are the tests' own helpers on coefficient tuples; all are tested here on
their own, apart from B[r,s].
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bernshift.exact_arith import is_prime, least_positive_residue, primes_up_to
from bernshift.umbral import forward_difference
from oracles import evaluate, reflect


class TestPrimes:
    def test_examples(self):
        assert primes_up_to(1) == []
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert primes_up_to(17) == [2, 3, 5, 7, 11, 13, 17]

    def test_agrees_with_trial_division(self):
        sieved = set(primes_up_to(10**4))
        for n in range(10**4 + 1):
            assert (n in sieved) == is_prime(n)

    def test_is_prime_small(self):
        assert is_prime(2)
        assert is_prime(31)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert not is_prime(91)  # 7 * 13

    def test_miller_rabin_matches_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            f = 2
            while f * f <= n:
                if n % f == 0:
                    return False
                f += 1
            return True

        for n in range(10**5):
            assert is_prime(n) == trial(n), n

    def test_miller_rabin_on_strong_pseudoprimes_and_large_primes(self):
        # 561 is a Carmichael number; the others are strong pseudoprimes to
        # every prime base up to 7, 23 and 37 respectively
        for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(10**18 + 3)
        assert is_prime(10**18 + 9)

    def test_miller_rabin_refuses_beyond_its_exact_bound(self):
        with pytest.raises(ValueError):
            is_prime(3_317_044_064_679_887_385_961_981)
        assert not is_prime(2 * 10**30)  # even numbers are screened first


class TestLeastPositiveResidue:
    def test_examples(self):
        assert least_positive_residue(8, 4) == 4
        assert least_positive_residue(8, 6) == 2
        assert least_positive_residue(3, 10) == 3

    def test_range_and_congruence_exhaustive(self):
        for x in range(1, 201):
            for m in range(1, 51):
                value = least_positive_residue(x, m)
                assert 1 <= value <= m
                assert (value - x) % m == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            least_positive_residue(0, 5)
        with pytest.raises(ValueError):
            least_positive_residue(3, 0)


class TestForwardDifference:
    def test_order_zero_is_identity(self):
        assert forward_difference(lambda k: Fraction(k, 3), 0, start=7) == Fraction(7, 3)

    def test_second_difference_of_squares_is_constant(self):
        for start in range(5):
            assert forward_difference(lambda k: k * k, 2, start=start) == 2

    def test_powers_of_two_are_fixed(self):
        # delta 2^k = 2^k, so every order gives 2^start
        for order in range(6):
            assert forward_difference(lambda k: 2**k, order, start=0) == 1
            assert forward_difference(lambda k: 2**k, order, start=3) == 8

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            forward_difference(lambda k: k, -1)


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(tuple)
small_points = st.fractions(max_denominator=6).filter(lambda q: abs(q) <= 4)


class TestPoly:
    """evaluate and reflect, the helpers that check coefficient tuples."""

    def test_zero_poly(self):
        assert evaluate((), 5) == 0
        assert reflect(()) == ()

    def test_eval_examples(self):
        b1 = (Fraction(-1, 2), 1)
        assert evaluate(b1, 1) == Fraction(1, 2)
        b2 = (Fraction(1, 6), -1, 1)
        assert evaluate(b2, 0) == Fraction(1, 6)

    def test_compose_neg_negates_odd_coefficients(self):
        p = (1, 2, 3, 4)
        assert reflect(p) == (1, -2, 3, -4)
        assert reflect(reflect(p)) == p

    @given(small_polys, small_points)
    def test_compose_neg_matches_pointwise(self, p, x):
        assert evaluate(reflect(p), x) == evaluate(p, -x)
