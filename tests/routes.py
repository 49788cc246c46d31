"""The differential table: each fast route beside the slow form it replaced, kept as its oracle.

A row is (name, fast, oracle, strategy): fast(x) must equal oracle(x) for every x the strategy draws.
test_routes.py checks each row under the derandomized tier1 profile, so a failure names a shrunk witness.
"""

from collections import namedtuple

from hypothesis import strategies as st

import oracles
from bernshift.exact_arith import clausen_primes

Route = namedtuple("Route", "name fast oracle strategy")

SIEVED_UP_TO = 5000  # the sieve oracle's reach: tests/test_bernoulli.py checks every n up to it
KNOWN_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 9_901, 999_983)  # a larger n is a product of these


@st.composite
def _known_products(draw, bound):
    """An even n <= bound, 2 times a product of KNOWN_PRIMES, so its factorization is known."""
    n = 2
    for p in draw(st.lists(st.sampled_from(KNOWN_PRIMES), max_size=40)):
        n *= p if n * p <= bound else 1
    return n


ROUTES = {
    "clausen_primes": Route(
        "clausen_primes",
        clausen_primes,
        lambda n: oracles.clausen_primes(n) if n <= SIEVED_UP_TO else oracles.clausen_primes_over(n, KNOWN_PRIMES),
        # and squares: a divisor walk to sqrt(n) meets the root there, the edge a slip in its bound misses
        st.one_of(
            st.integers(0, SIEVED_UP_TO),
            _known_products(10**12),
            _known_products(10**6).map(lambda root: root * root),
        ),
    ),
}
