"""Exhaustive property sweeps over index rectangles, reported pass/fail.

Each property is swept over an explicit range and every failing instance is
recorded with its witness key, so a report either certifies the range or
names a counterexample.  Sweeps are pure; the parallel path partitions rows
across worker processes and merges, with results independent of the split.

The table sweeps walk the rows of D * B[r,s] from their seed as they are
made, and read a transposed key (s, r) from the mirror walk beside them
(exact_arith._mirror_rows); only poly-reciprocity holds rows.  Each runner
imports the layers it reads when it runs, so a request loads only its own
sweep's: the psi sweeps load no Bernoulli number and no fractions, and the
table sweeps that use no psi do not load denom.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import accumulate, islice
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InvariantViolation, WorkerDied

SweepResult = tuple[int, list[str], list[str]]  # instances, failures, notes


class VerifyReport(NamedTuple):
    property_name: str
    max_r: int
    max_s: int
    instances: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]
    seconds: float
    workers: int = 1  # processes the sweep ran in: 1 when it stayed in this one

    @property
    def ok(self) -> bool:
        return not self.failures


def _seed(max_r: int, max_s: int) -> tuple[int, list[int]]:
    """(D, D * B_0..D * B_n), n = max_r + max_s: the seed of every table sweep's walk and of its mirror."""
    from .bernoulli import BernoulliCache
    from .umbral import _scaled_bernoulli

    return _scaled_bernoulli(BernoulliCache(max_r + max_s + 2), max_r + max_s)


def _exceptional_zero(r: int, s: int) -> bool:
    """The keys where B[r,s] = 0: (n, 0) and (0, n) with odd n >= 3."""
    return (s == 0 and r >= 3 and r % 2 == 1) or (r == 0 and s >= 3 and s % 2 == 1)


def _sweep_reciprocity(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from fractions import Fraction

    from .exact_arith import _mirror_rows
    from .umbral import _triangle_rows

    d, seed = _seed(max_r, max_s)
    failures = []
    for r, row, mirror in zip(range(max_r + 1), _triangle_rows(seed), _mirror_rows(seed)):
        for s in range(max_s + 1):
            if row[s] != mirror[s]:  # (-1)^r B[r,s] against (-1)^s B[s,r], times (-1)^r D
                swapped = -mirror[s] if (r + s) % 2 else mirror[s]  # D * B[s,r]
                failures.append(f"(r={r}, s={s}): {Fraction(row[s], d)} vs {Fraction(swapped, d)}")
    return (max_r + 1) * (max_s + 1), failures, []


def _sweep_antidiagonal(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .bernoulli import BernoulliCache
    from .umbral import antidiagonal_sums

    cache = BernoulliCache(max_r + max_s + 2)
    instances, failures = 0, []
    for n, total in enumerate(antidiagonal_sums(cache, max_r + max_s)):
        instances += 1
        expected = 1 if n == 0 else 0
        if total != expected:
            failures.append(f"n={n}: sum is {total}, expected {expected}")
    return instances, failures, []


def _sweep_paths(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """Defining sum, table and both difference forms, each computed apart in integers over D."""
    from fractions import Fraction

    from .bernoulli import BernoulliCache
    from .umbral import _defining_sum, _difference_forms, _scaled_bernoulli, _triangle_rows

    bound = max(max_r, max_s)  # the keys checked are those with r + s <= bound
    d, seed = _scaled_bernoulli(BernoulliCache(bound + 2), bound)
    signed = [-x if n % 2 else x for n, x in enumerate(seed)]  # D * (-1)^n B_n
    instances, failures = 0, []
    for r, row in zip(range(max_r + 1), _triangle_rows(seed)):
        if r not in rows:
            continue
        for s in range(min(max_s, bound - r) + 1):
            instances += 1
            direct = _defining_sum(seed, r, s)
            rank_form, shift_form = _difference_forms(signed.__getitem__, r, s)
            if rank_form != shift_form:
                failures.append(
                    f"difference forms disagree at (r={r}, s={s}): "
                    f"{Fraction(rank_form, d)} != {Fraction(shift_form, d)}"
                )
            elif not (direct == row[s] == rank_form):
                failures.append(
                    f"(r={r}, s={s}): direct={Fraction(direct, d)}, table={Fraction(row[s], d)}, "
                    f"difference={Fraction(rank_form, d)}"
                )
    return instances, failures, []


def _sweep_poly_reciprocity(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """[x^k]: (-1)^r c_k(r,s) = (-1)^(s+k) c_k(s,r), compared as integers over the shared D."""
    from fractions import Fraction

    from .umbral import _scaled_polynomial, _triangle_rows

    d, seed = _seed(max_r, max_s)
    table = list(islice(_triangle_rows(seed), max(max_r, max_s) + 1))  # held: the sums reread both key orders
    failures = []
    for r in rows:
        for s in range(max_s + 1):
            mirrored = s in rows and r <= max_s  # the key (s, r) is also this chunk's
            if mirrored and s < r:
                continue  # the key (s, r) made both polynomials
            lhs = _scaled_polynomial(table[: r + 1], r, s, d)
            rhs = lhs if r == s else _scaled_polynomial(table[: s + 1], s, r, d)
            pairs = enumerate(zip(lhs, rhs))
            k = next((k for k, (a, b) in pairs if a != (-b if (r + s + k) % 2 else b)), None)
            if k is not None:  # the first power of x where the sides differ, as for the key (s, r)
                for i, j, a, b in [(r, s, lhs, rhs), (s, r, rhs, lhs)][: 2 if mirrored and r != s else 1]:
                    failures.append(
                        f"(r={i}, s={j}): [x^{k}] {Fraction(a[k], d)} in B[{i},{j}](x) "
                        f"vs {Fraction(b[k], d)} in B[{j},{i}](x)"
                    )
    return len(rows) * (max_s + 1), failures, []


def _sweep_nonvanishing(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from fractions import Fraction

    from .umbral import _triangle_rows

    d, seed = _seed(max_r, max_s)
    instances, failures, notes = 0, [], []
    for r, row in zip(range(max_r + 1), _triangle_rows(seed)):
        for s, value in enumerate(row[: max_s + 1]):
            instances += 1
            if _exceptional_zero(r, s):
                if value != 0:
                    failures.append(f"(r={r}, s={s}): expected 0, got {Fraction(value, d)}")
                else:
                    notes.append(f"zero at (r={r}, s={s})")
            elif value == 0:
                failures.append(f"(r={r}, s={s}): unexpected zero")
    return instances, failures, notes


def _sweep_denominators(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from math import gcd

    from .bernoulli import BernoulliCache
    from .denom import _denom_formula, _psi_sum_rows
    from .exact_arith import primes_up_to
    from .umbral import reduced_rows

    sieve = primes_up_to(max_r + max_s + 1)
    # p divides the sum exactly when p divides psi(r, s, p); 2 never divides the denominator
    odd, psi_sums = _psi_sum_rows(sieve[1:], max_r, max_s)
    table = reduced_rows(BernoulliCache(max_r + max_s + 2), max_r, max_s)
    instances, failures = 0, []
    for r, (row, sums) in enumerate(zip(table, psi_sums)):
        if r not in rows:
            continue
        for s, (_, d) in enumerate(row):
            instances += 1
            formula = _denom_formula(r, s, sieve).value
            if formula != d:
                failures.append(f"(r={r}, s={s}): formula {formula} != exact {d}")
            if _denom_formula(s, r, sieve).value != formula:  # computed apart, not read back
                failures.append(f"(r={r}, s={s}): formula not symmetric")
            if r >= 2 and s >= 2:
                via_psi = odd // gcd(sums[s], odd)  # the odd primes that do not divide psi
                if via_psi != d:
                    failures.append(f"(r={r}, s={s}): psi product {via_psi} != exact {d}")
    return instances, failures, []


def _sweep_integrality(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """B[r,s] + sum(psi/p) over D, and psi divisibility, read from one walk of the psi sums."""
    from .denom import _integral, _psi_rows, _psi_sum_rows
    from .exact_arith import primes_up_to
    from .umbral import _triangle_rows

    d, seed = _seed(max_r, max_s)
    primes = primes_up_to(max_r + max_s + 1)
    _, psi_sums = _psi_sum_rows(primes, max_r, max_s)  # over P = D: D * sum(psi/p)
    walks = zip(_triangle_rows(seed), psi_sums, _psi_rows(2, max_r, max_s), _psi_rows(3, max_r, max_s))
    failures = []
    for r, (row, sums, psi2, psi3) in enumerate(walks):
        if r < 2 or r not in rows:
            continue
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
    return sum(r >= 2 for r in rows) * max(0, max_s - 1), failures, []


def _sweep_psi_matrix(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .denom import psi_matrix
    from .exact_arith import primes_up_to

    instances, failures = 0, []
    for p in primes_up_to(max(max_r, max_s)):
        if p < 5:
            continue
        instances += (p - 2) ** 2
        try:
            psi_matrix(p)
        except InvariantViolation as exc:
            failures.append(str(exc))
    return instances, failures, []


def _sweep_psi_congruences(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .denom import _psi_reciprocal, _psi_seed
    from .exact_arith import _mirror_rows, _triangle_rows, primes_up_to

    bound = max(max_r, max_s)
    instances, failures = 0, []
    for p in primes_up_to(min(37, bound + 1)):
        if p < 3:
            continue
        step = p - 1
        seed = _psi_seed(p, 2 * bound)
        held = deque(maxlen=p)  # rows r - step..r: the only rows kept
        for r, row, mirror in islice(zip(range(bound + 1), _triangle_rows(seed), _mirror_rows(seed)), 1, None):
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
                    if not _psi_reciprocal(r, s, row[s], -mirror[s] if (r + s) % 2 else mirror[s], p):
                        failures.append(f"p={p}: reciprocity fails at (r={r}, s={s})")
    return instances, failures, []


def _sweep_hermite_stern(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .exact_arith import _binomial_row, _hermite_stern_residue, primes_up_to

    primes = primes_up_to(max_s)
    instances, failures = 0, []
    for m in [m for m in rows if m >= 1]:
        row = _binomial_row(m)
        for p in primes:
            instances += 1
            residue = _hermite_stern_residue(row, p)
            if residue != 0:
                failures.append(f"(m={m}, p={p}): residue {residue}")
    return instances, failures, []


def _sweep_staudt_clausen(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .bernoulli import BernoulliCache, bernoulli_denominator, von_staudt_clausen_witness

    bound = max(max_r, max_s)
    cache = BernoulliCache(bound + 2)
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
        exact = cache[n].denominator
        if closed != exact:
            failures.append(f"n={n}: closed form {closed} != exact {exact}")
    return instances, failures, []


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
    from .exact_arith import _mirror_rows, clausen_primes, primes_up_to
    from .umbral import _lowest_terms, _triangle_rows

    scale, seed = _seed(max_r, max_s)
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
    for r, row, mirror in zip(range(max_r + 1), _triangle_rows(seed), _mirror_rows(seed)):
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


class PropertySpec(NamedTuple):
    runner: Callable[[int, int, Sequence[int]], SweepResult]
    parallel: bool
    default_r: int
    default_s: int
    # The fewest keys (max_r + 1) * (max_s + 1) at which a parallel sweep's
    # rows go to a process pool.  Below it one process is faster: the pool's
    # import and fork, and each worker rebuilding the sweep's data, cost more
    # than the split saves.  Measured as --jobs 2 against --jobs 1 wall time
    # (see CHANGES.md); unused when parallel is False.
    pool_from: int = 0


PROPERTIES: dict[str, PropertySpec] = {
    "reciprocity": PropertySpec(_sweep_reciprocity, False, 80, 80),
    "antidiagonal": PropertySpec(_sweep_antidiagonal, False, 50, 50),
    "paths": PropertySpec(
        _sweep_paths, True, 80, 80,
        pool_from=101 * 101,  # from 100 x 100
    ),
    "poly-reciprocity": PropertySpec(
        _sweep_poly_reciprocity, True, 25, 25,
        pool_from=46 * 46,  # from 45 x 45
    ),
    "nonvanishing": PropertySpec(_sweep_nonvanishing, False, 60, 60),
    "denominators": PropertySpec(
        _sweep_denominators, True, 80, 80,
        pool_from=96 * 96,  # from 95 x 95
    ),
    "integrality": PropertySpec(
        _sweep_integrality, True, 80, 80,
        pool_from=206 * 206,  # from 205 x 205
    ),
    "psi-matrix": PropertySpec(_sweep_psi_matrix, False, 19, 19),
    "psi-congruences": PropertySpec(_sweep_psi_congruences, False, 60, 60),
    "hermite-stern": PropertySpec(_sweep_hermite_stern, False, 200, 31),
    "staudt-clausen": PropertySpec(_sweep_staudt_clausen, False, 200, 200),
    "denom-divisibility": PropertySpec(_sweep_denom_divisibility, False, 40, 40),
}


def _chunk_worker(name: str, max_r: int, max_s: int, rows: list[int]) -> SweepResult:
    return PROPERTIES[name].runner(max_r, max_s, rows)


def plan_chunks(max_r: int, jobs: int, cpus: int) -> list[list[int]]:
    """Rows 0..max_r dealt round-robin to min(jobs, cpus) workers; empty chunks dropped."""
    workers = max(1, min(jobs, cpus))
    chunks = (list(range(k, max_r + 1, workers)) for k in range(workers))
    return [c for c in chunks if c]


def merge_results(parts: Iterable[SweepResult]) -> SweepResult:
    """Chunk results as one: instances summed, failures and notes sorted, so the split cannot show."""
    instances, failures, notes = 0, [], []
    for got_instances, got_failures, got_notes in parts:
        instances += got_instances
        failures.extend(got_failures)
        notes.extend(got_notes)
    return instances, sorted(failures), sorted(notes)


def run_verify(name: str, max_r: int, max_s: int, jobs: int = 1) -> VerifyReport:
    """Run one property sweep, in one process or, from its pool_from keys up, in up to jobs.

    jobs is an upper bound: the pool also has at most os.cpu_count() workers.
    """
    spec = PROPERTIES[name]
    start = perf_counter()
    pays = spec.parallel and (max_r + 1) * (max_s + 1) >= spec.pool_from
    chunks = plan_chunks(max_r, jobs, os.cpu_count() or 1) if pays else []
    workers = max(1, len(chunks))
    if workers == 1:
        parts = [spec.runner(max_r, max_s, range(max_r + 1))]
    else:
        # Imported here: concurrent.futures pulls in logging and multiprocessing,
        # which no other request needs.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [pool.submit(_chunk_worker, name, max_r, max_s, c) for c in chunks]
                parts = [future.result() for future in futures]
        except BrokenExecutor as exc:
            raise WorkerDied(str(exc)) from exc
    instances, failures, notes = merge_results(parts)
    return VerifyReport(
        property_name=name,
        max_r=max_r,
        max_s=max_s,
        instances=instances,
        failures=tuple(failures),
        notes=tuple(notes),
        seconds=perf_counter() - start,
        workers=workers,
    )


def report_text(report: VerifyReport) -> str:
    status = "PASS" if report.ok else "FAIL"
    lines = [
        f"{report.property_name}: r <= {report.max_r}, s <= {report.max_s}: "
        f"{report.instances} instances, {len(report.failures)} failures, "
        f"{report.seconds:.2f}s: {status}"
    ]
    for note in report.notes:
        lines.append(f"  note: {note}")
    for failure in report.failures:
        lines.append(f"  FAIL {failure}")
    return "\n".join(lines) + "\n"


def report_payload(report: VerifyReport) -> dict:
    return {
        "property": report.property_name,
        "max_r": report.max_r,
        "max_s": report.max_s,
        "instances": report.instances,
        "failures": list(report.failures),
        "notes": list(report.notes),
        "pass": report.ok,
        # everything above is deterministic; the timing below is not
        "timing": {"wall_ms": int(report.seconds * 1000), "workers": report.workers},
    }
