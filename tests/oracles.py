"""Helpers the tests share: polynomials as coefficient tuples, and psi's two congruences.

The library gives a polynomial as a tuple of its coefficients, lowest power
first.  Evaluation, x -> -x and the classical B_n(x) are needed only to
check such tuples, so they live here.  The psi congruences are stated once
in bernshift.denom on values the caller already holds; the wrappers below
feed them from psi's checked entry point, one (rank, shift) pair at a time.
"""

from fractions import Fraction
from math import comb

from bernshift.denom import _psi_periodic, _psi_reciprocal, psi


def evaluate(coeffs, x):
    """The polynomial with these coefficients at x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reflect(coeffs):
    """The coefficients of x -> p(-x): the odd powers change sign."""
    return tuple(-c if k % 2 else c for k, c in enumerate(coeffs))


def bernoulli_polynomial(cache, n):
    """B_n(x) = sum(C(n, v) * B_{n-v} * x^v), monic of degree n."""
    return tuple(comb(n, v) * cache[n - v] for v in range(n + 1))


def psi_reciprocal(r, s, p):
    """Whether (-1)^r psi(r,s,p) == (-1)^s psi(s,r,p) mod p."""
    return _psi_reciprocal(r, s, psi(r, s, p).value, psi(s, r, p).value, p)


def psi_periodic(r, r2, s, s2, p):
    """Whether psi is unchanged from s to s2 at ranks r and r2, and mod p from r to r2."""
    values = [psi(a, b, p).value for a, b in ((r, s), (r, s2), (r2, s), (r2, s2))]
    return _psi_periodic(*values, p)
