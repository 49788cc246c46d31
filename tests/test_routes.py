"""Each fast route of routes.ROUTES against its oracle, and a slip in one found with a shrunk witness."""

import inspect
import re
import textwrap

import pytest
from hypothesis import given, settings

import bernshift.exact_arith as exact_arith
from routes import ROUTES


def check(route):
    @settings(max_examples=60)
    @given(route.strategy)
    def agrees(x):
        got, expected = route.fast(x), route.oracle(x)
        assert got == expected, f"{route.name}({x!r}) = {got}, expected {expected}"

    agrees()


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_fast_route_matches_its_oracle(name):
    check(ROUTES[name])


def test_a_divisor_walk_stopping_short_of_the_root_is_found_and_shrunk():
    # the low divisors taken while d * d < n: a square n loses its root, so clausen_primes(4) loses 3
    source = textwrap.dedent(inspect.getsource(exact_arith.clausen_primes))
    slipped = source.replace("range(1, isqrt(n) + 1)", "range(1, isqrt(n - 1) + 1)")
    assert slipped != source
    namespace = dict(vars(exact_arith))
    exec(compile(slipped, exact_arith.__file__, "exec"), namespace)
    with pytest.raises(AssertionError, match=re.escape("clausen_primes(4) = [2, 5], expected [2, 3, 5]")):
        check(ROUTES["clausen_primes"]._replace(fast=namespace["clausen_primes"]))
