"""Helpers the tests share: polynomials as coefficient tuples, psi's two congruences, slow forms.

The library gives a polynomial as a tuple of its coefficients, lowest power
first.  Evaluation, x -> -x, the derivative, x -> x + 1 and the classical
B_n(x) are needed only to check such tuples, so they live here, with the two
identities B[r,s](x) obeys under d/dx and under the forward difference.  The
psi-congruences sweep states psi's reciprocity and two periodicities inline,
on its walk and the mirror walk; here reciprocity is stated on two values
the caller holds, and the wrappers below state the congruences from psi's
checked entry point, one (rank, shift) pair at a time.

The slow forms are the library's sums as they read on paper: one math.comb
per term, the denominator formula in least positive residues, and von
Staudt-Clausen by a sieve to n + 1.  The library sums whole binomial rows,
tests residues inline and lists the divisors of n instead; each slow form is
the oracle of its fast one.
"""

from fractions import Fraction
from math import comb

from bernshift.denom import psi
from bernshift.exact_arith import is_prime, primes_up_to


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


def derivative(coeffs):
    """The coefficients of p'(x)."""
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def translate(coeffs):
    """The coefficients of p(x + 1): [x^j] = sum(C(k, j) * c_k for k >= j), one math.comb per term."""
    return tuple(sum(comb(k, j) * coeffs[k] for k in range(j, len(coeffs))) for j in range(len(coeffs)))


def derivative_identity(poly, r, s):
    """r * B[r-1,s](x) + s * B[r,s-1](x), which is d/dx B[r,s](x); poly((i, j)) gives B[i,j](x)'s coefficients."""
    terms = [(r, poly((r - 1, s)))] if r else []
    terms += [(s, poly((r, s - 1)))] if s else []
    return tuple(sum(weight * coeffs[k] for weight, coeffs in terms) for k in range(r + s))


def difference_identity(r, s):
    """r * (x+1)^(r-1) * x^s + s * (x+1)^r * x^(s-1), which is B[r,s](x+1) - B[r,s](x), degree r + s - 1."""
    coeffs = [0] * (r + s)
    for v in range(r):
        coeffs[s + v] += r * comb(r - 1, v)
    for v in range(r + 1) if s else ():
        coeffs[s - 1 + v] += s * comb(r, v)
    return tuple(coeffs)


def _psi_reciprocal(r, s, psi_rs, psi_sr, p):
    """(-1)^r psi(r,s,p) == (-1)^s psi(s,r,p) mod p, given both values."""
    lhs = psi_rs if r % 2 == 0 else -psi_rs
    rhs = psi_sr if s % 2 == 0 else -psi_sr
    return (lhs - rhs) % p == 0


def psi_reciprocal(r, s, p):
    """Whether (-1)^r psi(r,s,p) == (-1)^s psi(s,r,p) mod p."""
    return _psi_reciprocal(r, s, psi(r, s, p).value, psi(s, r, p).value, p)


def psi_periodic(r, r2, s, s2, p):
    """Whether psi is unchanged from s to s2 at ranks r and r2, and mod p from r to r2."""
    v_rs, v_rs2, v_r2s, v_r2s2 = (psi(a, b, p).value for a, b in ((r, s), (r, s2), (r2, s), (r2, s2)))
    return v_rs == v_rs2 and v_r2s == v_r2s2 and (v_rs - v_r2s) % p == 0


def defining_sum(b, r, s):
    """sum(C(r, v) * b[s + v] for v in 0..r), one math.comb per nonzero term."""
    return sum(comb(r, v) * b[s + v] for v in range(r + 1) if b[s + v])


def forward_difference(f, order, start=0):
    """sum(C(order, v) * (-1)^(order-v) * f(start+v)), one math.comb per term."""
    acc = 0
    sign = -1 if order % 2 else 1
    for v in range(order + 1):
        acc += sign * comb(order, v) * f(start + v)
        sign = -sign
    return acc


def hermite_stern_residue(m, p):
    """sum(C(m, v) for 0 < v < m with p-1 | v) mod p, one math.comb per term."""
    return sum(comb(m, v) for v in range(p - 1, m, p - 1)) % p


def least_positive_residue(x, m):
    """The representative of x mod m lying in {1, ..., m}: m, not 0, when m divides x; x, m >= 1."""
    if x < 1:
        raise ValueError("least_positive_residue: x must be >= 1")
    if m < 1:
        raise ValueError("least_positive_residue: m must be >= 1")
    return (x - 1) % m + 1


def denom_formula(r, s):
    """(eps2, odd primes) of denom(B[r,s]) for r, s >= 1, in least positive residues.

    3, and the primes 5 <= p <= r+s+1 with <r>_{p-1} + <s>_{p-1} >= p - 1.
    """
    eps2 = 1 if (r == 1 or s == 1) and r != s else 0
    odd = [3] + [
        p
        for p in primes_up_to(r + s + 1)
        if p >= 5 and least_positive_residue(r, p - 1) + least_positive_residue(s, p - 1) >= p - 1
    ]
    return eps2, tuple(odd)


def clausen_primes(n):
    """von Staudt-Clausen as first stated: the primes p <= n + 1 with p - 1 | n, by a sieve to n + 1 (even n >= 2)."""
    if n == 1:
        return [2]
    return [] if n == 0 or n % 2 else [p for p in primes_up_to(n + 1) if n % (p - 1) == 0]


def clausen_primes_over(n, primes):
    """clausen_primes(n) for an even n that factors over primes: its divisors d made from that factorization."""
    divisors, rest = {1}, n
    for p in primes:
        while rest % p == 0:
            rest //= p
            divisors |= {d * p for d in divisors}
    assert rest == 1, f"{n} does not factor over {primes}"
    return [d + 1 for d in sorted(divisors) if is_prime(d + 1)]
