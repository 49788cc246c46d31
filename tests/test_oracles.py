"""Each fast form in the library against its slow form in oracles.

The library sums whole binomial rows, which a sweep takes from one walk of
exact_arith._pascal_rows, and tests the denominator formula's residues
inline; oracles keeps the per-term math.comb sums and the
least-positive-residue formula they replace.
"""

from fractions import Fraction

import pytest

import oracles
from bernshift.bernoulli import BernoulliCache
from bernshift.denom import _denom_formula
from bernshift.exact_arith import _hermite_stern_residue, _pascal_rows, primes_up_to
from bernshift.umbral import _defining_sum, _scaled_bernoulli, bs_direct, bs_polynomial, forward_difference

BOUND = 60
ROWS = list(_pascal_rows(BOUND))  # C(m, 0..m) for every order m a sum below reads


@pytest.fixture(scope="module")
def seed():
    """D * B_0..D * B_(2 * BOUND): the integers the paths sweep sums."""
    return _scaled_bernoulli(BernoulliCache(2 * BOUND), 2 * BOUND)[1]


def test_defining_sum(seed):
    for r in range(BOUND + 1):
        for s in range(BOUND + 1):
            assert _defining_sum(seed, s, ROWS[r]) == oracles.defining_sum(seed, r, s), (r, s)


def test_defining_sum_over_fractions():
    cache = BernoulliCache(2 * BOUND)
    for r in range(0, BOUND + 1, 3):
        for s in range(0, BOUND + 1, 4):
            fast = _defining_sum(cache, s, ROWS[r])
            assert fast == oracles.defining_sum(cache, r, s), (r, s)
    assert _defining_sum(cache, 3, ROWS[0]) == 0  # only zero terms: nothing is summed


def test_value_pairs_match_the_fraction_defining_sum(cache):
    # the integer route the CLI prints, against the slow sum of Fractions over cache[n]
    for n in range(2 * BOUND + 1):
        for r in range(n + 1):
            q = Fraction(oracles.defining_sum(cache, r, n - r))
            assert bs_direct(cache, r, n - r, pair=True) == (q.numerator, q.denominator), (r, n - r)


def test_polynomial_pairs_are_the_library_coefficients(cache):
    for r in range(13):
        for s in range(13):
            coeffs = bs_polynomial(cache, r, s)
            assert bs_polynomial(cache, r, s, pairs=True) == tuple((c.numerator, c.denominator) for c in coeffs)


def test_forward_difference(seed):
    signed = [-x if n % 2 else x for n, x in enumerate(seed)]
    f = signed.__getitem__
    for order in range(BOUND + 1):
        for start in range(BOUND + 1):
            assert forward_difference(f, order, start) == oracles.forward_difference(f, order, start)


def test_forward_difference_over_fractions():
    cache = BernoulliCache(2 * BOUND)

    def f(n):
        return -cache[n] if n % 2 else cache[n]

    for order in range(0, BOUND + 1, 3):
        for start in range(0, BOUND + 1, 4):
            fast = forward_difference(f, order, start)
            assert isinstance(fast, Fraction)
            assert fast == oracles.forward_difference(f, order, start), (order, start)


def test_hermite_stern():
    for m, row in enumerate(_pascal_rows(200)):
        for p in primes_up_to(31):
            expected = oracles.hermite_stern_residue(m, p)
            assert _hermite_stern_residue(row, p) == expected, (m, p)


def test_denominator_formula():
    sieve = primes_up_to(2 * BOUND + 1)
    for r in range(1, BOUND + 1):
        for s in range(1, BOUND + 1):
            fact = _denom_formula(r, s, sieve)
            assert (fact.eps2, fact.primes) == oracles.denom_formula(r, s), (r, s)
