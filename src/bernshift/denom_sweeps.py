"""The denominator sweeps walk D * B[r,s] through umbral._walk: denominators and integrality
beside every prime's psi in one streamed triangle, denom-divisibility beside its mirror.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from . import bernoulli
from .errors import InvariantViolation
from .umbral import _walk
from .verify import SweepResult, _exceptional_zero


def _sweep_denominators(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from math import gcd

    from .denom import _denom_formula, _psi_sum_seed
    from .exact_arith import _lowest_terms, primes_up_to

    sieve = primes_up_to(max_r + max_s + 1)
    # p divides the sum exactly when p divides psi(r, s, p); 2 never divides the denominator
    odd, psi_sums = _psi_sum_seed(sieve[1:], max_r + max_s)
    scale, _, steps = _walk(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s, rows, psi_sums)
    failures = []
    for r, row, sums in steps:
        for s in range(max_s + 1):
            d = _lowest_terms(row[s], scale)[1]
            formula = _denom_formula(r, s, sieve).value
            if formula != d:
                failures.append(f"(r={r}, s={s}): formula {formula} != exact {d}")
            if _denom_formula(s, r, sieve).value != formula:  # computed apart, not read back
                failures.append(f"(r={r}, s={s}): formula not symmetric")
            if r >= 2 and s >= 2:
                via_psi = odd // gcd(sums[s], odd)  # the odd primes that do not divide psi
                if via_psi != d:
                    failures.append(f"(r={r}, s={s}): psi product {via_psi} != exact {d}")
    return len(rows) * (max_s + 1), failures, []


def _sweep_integrality(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """B[r,s] + sum(psi/p) over D, and psi divisibility, read from one walk of the psi sums."""
    ranks = [r for r in rows if r >= 2]
    if not ranks or max_s < 2:
        return 0, [], []  # no key to check, so nothing is built
    from .denom import _integral, _psi_sum_seed
    from .exact_arith import primes_up_to

    n = max_r + max_s
    primes = primes_up_to(n + 1)
    _, psi_sums = _psi_sum_seed(primes, n)  # over P = D: D * sum(psi/p)
    chi2, chi3 = (_psi_sum_seed((p,), n)[1] for p in (2, 3))
    d, _, steps = _walk(bernoulli.BernoulliCache(n), n, ranks, psi_sums, chi2, chi3)
    failures = []
    for r, row, sums, psi2, psi3 in steps:
        for s in range(2, max_s + 1):
            try:
                _integral(r, s, row[s] + sums[s], d)
            except InvariantViolation as exc:
                failures.append(f"(r={r}, s={s}): {exc}")
            if not (psi2[s] == psi3[s] == 2 ** (r - 1)):  # so even and prime to 3, as r >= 2
                failures.append(f"(r={r}, s={s}): psi(2)={psi2[s]}, psi(3)={psi3[s]}")
        for p in primes[2:]:  # p >= 5, with p - 1 | r or p - 1 | s: then p must not divide psi
            step = 1 if r % (p - 1) == 0 else p - 1
            failures.extend(
                f"(r={r}, s={s}): p={p} divides psi"
                for s in range(max(2, step), max_s + 1, step)
                if sums[s] % p == 0
            )
    return len(ranks) * (max_s - 1), failures, []


def _sweep_denom_divisibility(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """Structural facts about denom(B[r,s]), counted per part over the rectangle.

    Symmetry in (r, s); the r = 0 row is the classical denominator; the
    closed form of the r = 1 row; oddness for r, s >= 2; divisibility by 3
    for r, s >= 1; the forced primes p - 1 | r for even ranks; squarefree
    with every prime factor <= r + s + 1; and denominator 1 exactly at
    (0, 0) and the exceptional zeros.
    """
    from bisect import bisect_right
    from operator import mul

    from .bernoulli import bernoulli_denominator
    from .exact_arith import _lowest_terms, clausen_primes, primes_up_to

    scale, _, steps = _walk(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s, rows, mirror=True)
    sieve = primes_up_to(max_r + max_s + 1)
    primorials = list(accumulate(sieve, mul, initial=1))  # [k]: the product of the first k primes
    counts = dict.fromkeys(
        (
            "symmetry",
            "row0-classical",
            "row1-closed-form",
            "odd-for-rank2+",
            "three-divides",
            "even-rank-forced-primes",
            "squarefree-bounded",
            "unit-exceptions",
        ),
        0,
    )
    failures: list[str] = []

    def check(part: str, ok: bool, witness: str) -> None:
        counts[part] += 1
        if not ok:
            failures.append(f"{part} at {witness}")

    bound = min(max_r, max_s)
    for r, row, mirror in steps:
        if r >= 2 and r % 2 == 0:
            forced = clausen_primes(r)[1:]  # the odd ones
        for s in range(max_s + 1):
            d = _lowest_terms(row[s], scale)[1]
            if r <= bound and s <= bound:
                # mirror[s] = +-D * B[s,r]; equal to row[s], its denominator is d, so only another value is reduced
                d_swapped = d if mirror[s] == row[s] else _lowest_terms(mirror[s], scale)[1]
                check("symmetry", d == d_swapped, f"(r={r}, s={s}): {d} != {d_swapped}")
            if r == 0:
                check("row0-classical", d == bernoulli_denominator(s), f"(0, s={s}): {d}")
            if r == 1:
                if s == 0:
                    expected = 2
                elif s == 1:
                    expected = 3
                else:  # the classical denominator at s rounded up to even
                    expected = bernoulli_denominator(s + s % 2)
                check("row1-closed-form", d == expected, f"(1, s={s}): {d} != {expected}")
            if r >= 2 and s >= 2:
                check("odd-for-rank2+", d % 2 == 1, f"(r={r}, s={s}): {d} is even")
            if r >= 1 and s >= 1:
                check("three-divides", d % 3 == 0, f"(r={r}, s={s}): 3 does not divide {d}")
            if r >= 2 and r % 2 == 0:
                check(
                    "even-rank-forced-primes",
                    all(d % p == 0 for p in forced),
                    f"(r={r}, s={s}): {d} misses one of {forced}",
                )
            # squarefree with every prime factor <= r + s + 1: the divisors of those primes' product
            check(
                "squarefree-bounded",
                primorials[bisect_right(sieve, r + s + 1)] % d == 0,
                f"(r={r}, s={s}): {d} has a square factor or a prime factor > {r + s + 1}",
            )
            unit_expected = (r, s) == (0, 0) or _exceptional_zero(r, s)
            check(
                "unit-exceptions",
                (d == 1) == unit_expected,
                f"(r={r}, s={s}): denominator {d} vs expected-unit={unit_expected}",
            )
    notes = [f"{part}: {count} checks" for part, count in sorted(counts.items())]
    return sum(counts.values()), failures, notes
