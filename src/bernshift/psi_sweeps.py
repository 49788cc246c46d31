"""The psi and classical sweeps: psi and hermite-stern read integers only,
loading neither umbral nor bernoulli; staudt-clausen reads the B_n cache's
integer pairs.  None loads fractions, not even to word a failure.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .errors import InvariantViolation
from .verify import SweepResult


def _sweep_psi_matrix(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .denom import psi_matrix
    from .exact_arith import primes_up_to

    instances, failures = 0, []
    for p in primes_up_to(max(max_r, max_s))[2:]:  # p >= 5
        instances += (p - 2) ** 2
        try:
            psi_matrix(p)
        except InvariantViolation as exc:
            failures.append(str(exc))
    return instances, failures, []


def _sweep_psi_congruences(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .denom import _psi_sum_seed
    from .exact_arith import _lockstep, _mirror_rows, _triangle_rows, primes_up_to

    bound = max(max_r, max_s)
    instances, failures = 0, []
    for p in primes_up_to(min(37, bound + 1))[1:]:  # p >= 3
        step = p - 1
        _, seed = _psi_sum_seed((p,), 2 * bound)  # chi_p
        held = deque(maxlen=p)  # rows r - step..r: the only rows kept
        for r, row, mirror in _lockstep(range(1, bound + 1), _triangle_rows(seed), _mirror_rows(seed)):
            held.append(row)
            for s in range(bound + 1):
                if s > step:
                    instances += 1
                    if row[s] != row[s - step]:  # exact in the shift
                        failures.append(f"p={p}: shift periodicity fails at (r={r}, s={s})")
                if r > step:
                    instances += 1
                    if (row[s] - held[0][s]) % p:  # mod p in the rank
                        failures.append(f"p={p}: rank periodicity fails at (r={r}, s={s})")
                if r <= s:
                    instances += 1
                    if (row[s] - mirror[s]) % p:  # (-1)^r psi(r,s) against (-1)^s psi(s,r), times (-1)^r
                        failures.append(f"p={p}: reciprocity fails at (r={r}, s={s})")
    return instances, failures, []


def _sweep_hermite_stern(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """Reads C(m, 0..m) for every m <= max_r from one walk of exact_arith._pascal_rows, one row held."""
    from .exact_arith import _hermite_stern_residue, _pascal_rows, primes_up_to

    primes = primes_up_to(max_s)
    instances, failures = 0, []
    for m, row in enumerate(_pascal_rows(max_r)):
        if m == 0 or m not in rows:  # C(0, 0) alone: no v with 0 < v < m
            continue
        for p in primes:
            instances += 1
            residue = _hermite_stern_residue(row, p)
            if residue != 0:
                failures.append(f"(m={m}, p={p}): residue {residue}")
    return instances, failures, []


def _sweep_staudt_clausen(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .bernoulli import BernoulliCache, bernoulli_denominator, von_staudt_clausen_witness

    bound = max(max_r, max_s)
    cache = BernoulliCache(bound)
    instances, failures = 0, []
    for n in range(2, bound + 1, 2):
        instances += 1
        try:
            von_staudt_clausen_witness(cache, n)
        except InvariantViolation as exc:
            failures.append(str(exc))
    for n in range(bound + 1):
        instances += 1
        closed = bernoulli_denominator(n)
        exact = cache.pair(n)[1]
        if closed != exact:
            failures.append(f"n={n}: closed form {closed} != exact {exact}")
    return instances, failures, []
