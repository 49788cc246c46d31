"""The integer substrate, and the small helpers the other tests lean on.

forward_difference is umbral's difference operator, and evaluate and reflect
are the tests' own helpers on coefficient tuples; all are tested here on
their own, apart from B[r,s].
"""

import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

from bernshift.exact_arith import (
    _binomials,
    _lockstep,
    _lowest_terms,
    _mirror_rows,
    _pascal_rows,
    _product_tree,
    _quotient_text,
    _triangle_rows,
    is_prime,
    primes_up_to,
)
from bernshift.umbral import _scaled_bernoulli, forward_difference
from oracles import evaluate, least_positive_residue, reflect


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


class TestBinomials:
    def test_every_run_matches_comb(self):
        for n in range(121):
            for k in range(n + 1):
                assert list(_binomials(n, k)) == [comb(n, j) for j in range(k, n + 1)], (n, k)

    @pytest.mark.parametrize("n", [401, 1000])
    def test_long_runs_match_comb(self, n):
        for k in (0, n // 2, n):
            assert list(_binomials(n, k)) == [comb(n, j) for j in range(k, n + 1)], (n, k)


class TestBinomialRow:
    def test_rows_in_order_match_comb(self):
        for n, row in enumerate(_pascal_rows(300)):
            assert row == tuple(comb(n, v) for v in range(n + 1)), n

    def test_rows_out_of_order_match_comb(self):
        # the table sweeps hold one walk's rows and read them at any order, as here
        rows = list(_pascal_rows(300))
        orders = list(range(301))
        random.Random(12).shuffle(orders)
        for n in orders:
            assert rows[n] == tuple(comb(n, v) for v in range(n + 1)), n


class TestProductTree:
    def test_matches_prod_for_short_lists(self):
        primes = primes_up_to(400)
        for n in range(71):
            assert _product_tree(primes[:n]) == prod(primes[:n]), n
            assert _product_tree(tuple(range(1, n + 1))) == prod(range(1, n + 1)), n

    def test_matches_prod_for_random_lists(self):
        rng = random.Random(7)
        for _ in range(200):
            values = [rng.randint(-(2**70), 2**70) for _ in range(rng.randint(0, 300))]
            assert _product_tree(values) == prod(values)

    def test_empty_product_is_one(self):
        assert _product_tree([]) == _product_tree(()) == 1


class TestQuotient:
    """x / d reduced by one gcd, and worded as str(Fraction(x, d)), for d > 0."""

    def test_matches_fraction_for_random_pairs(self):
        rng = random.Random(25)
        for _ in range(20_000):
            bits = rng.choice((4, 20, 90))  # 4 bits: zeros, negatives and whole quotients are frequent
            x, d = rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)
            q = Fraction(x, d)
            assert _lowest_terms(x, d) == (q.numerator, q.denominator), (x, d)
            assert _quotient_text(x, d) == str(q), (x, d)


class TestMirrorRows:
    """Y[r,s] = (-1)^(r+s) * X[s,r] is the triangle walked from X's signed column 0."""

    def test_rows_are_the_signed_transpose_for_any_seed(self):
        for n in range(31):
            rng = random.Random(n)
            seed = [rng.randint(-(2**40), 2**40) for _ in range(n + 1)]
            table = list(_triangle_rows(seed))
            mirror = list(_mirror_rows(seed))
            assert mirror == [[(-1) ** (r + s) * table[s][r] for s in range(n + 1 - r)] for r in range(n + 1)], n
            assert list(_mirror_rows(mirror[0])) == table, n  # the mirror of the mirror is X

    def test_the_scaled_bernoulli_seed_is_its_own_mirror(self, cache):
        # B[k,0] = (-1)^k B_k: the seed is its own signed column 0, so reciprocity holds on the triangle
        for n in range(31):
            _, seed = _scaled_bernoulli(cache, n)
            assert list(_mirror_rows(seed)) == list(_triangle_rows(seed)), n


class TestLockstep:
    """_lockstep(ranks, *walks): the steps (r, *rows) for r in ranks, and no row past the last rank."""

    @staticmethod
    def counted(tag, made):
        r = 0
        while True:
            made.append((tag, r))
            yield f"{tag}{r}"
            r += 1

    @pytest.mark.parametrize("ranks", [range(6), range(2, 6), [0, 3], [1, 4, 5], range(1, 1), []])
    def test_steps_are_the_ranks_with_the_walks_rows_in_step(self, ranks):
        made = []
        steps = list(_lockstep(ranks, self.counted("x", made), self.counted("y", made)))
        assert steps == [(r, f"x{r}", f"y{r}") for r in ranks]
        last = max(ranks, default=-1)
        assert sorted(made) == [(tag, r) for tag in "xy" for r in range(last + 1)]


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
