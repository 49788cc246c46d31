"""Exhaustive property sweeps over index rectangles, reported pass/fail.

Each property is swept over an explicit range and every failing instance is
recorded with its witness key, so a report either certifies the range or
names a counterexample.  Sweeps are pure; the parallel path partitions rows
across worker processes and merges, with results independent of the split.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .bernoulli import (
    BernoulliCache,
    bernoulli_denominator,
    hermite_stern_check,
    von_staudt_clausen_witness,
)
from .denom import (
    _denom_formula,
    _divides_denominator,
    _integral,
    _psi_periodic,
    _psi_reciprocal,
    _psi_table,
    psi_matrix,
)
from .errors import InvariantViolation, WorkerDied
from .exact_arith import clausen_primes, primes_up_to
from .umbral import (
    BsTable,
    _defining_sum,
    _difference_forms,
    _scaled_bernoulli,
    antidiagonal_sums,
    bs_table_recursive,
)

SweepResult = tuple[int, list[str], list[str]]  # instances, failures, notes
Rows = Optional[Sequence[int]]


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


def _rows(rows: Rows, max_r: int, start: int = 0) -> Sequence[int]:
    if rows is None:
        return range(start, max_r + 1)
    return [r for r in rows if r >= start]


def _table(max_r: int, max_s: int) -> BsTable:
    """B[r,s] for the whole rectangle, filled once by the recurrence."""
    return bs_table_recursive(BernoulliCache(max_r + max_s + 2), max_r, max_s)


def _exceptional_zero(r: int, s: int) -> bool:
    """The keys where B[r,s] = 0: (n, 0) and (0, n) with odd n >= 3."""
    return (s == 0 and r >= 3 and r % 2 == 1) or (r == 0 and s >= 3 and s % 2 == 1)


def _sweep_reciprocity(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    table = _table(max_r, max_s)
    swapped = table if max_r == max_s else _table(max_s, max_r)
    instances, failures = 0, []
    for r in range(max_r + 1):
        for s in range(max_s + 1):
            instances += 1
            # both tables share D = product(primes <= max_r + max_s + 1)
            a = table.scaled[r][s]
            b = swapped.scaled[s][r]
            if (a if r % 2 == 0 else -a) != (b if s % 2 == 0 else -b):
                failures.append(f"(r={r}, s={s}): {table[r, s]} vs {swapped[s, r]}")
    return instances, failures, []


def _sweep_antidiagonal(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    cache = BernoulliCache(max_r + max_s + 2)
    instances, failures = 0, []
    for n, total in enumerate(antidiagonal_sums(cache, max_r + max_s)):
        instances += 1
        expected = 1 if n == 0 else 0
        if total != expected:
            failures.append(f"n={n}: sum is {total}, expected {expected}")
    return instances, failures, []


def _sweep_paths(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    """Defining sum, table and both difference forms, each computed apart in integers over D."""
    bound = max(max_r, max_s)
    cache = BernoulliCache(max_r + max_s + 2)
    table = bs_table_recursive(cache, max_r, max_s)
    d, seed = _scaled_bernoulli(cache, max_r + max_s)
    signed = [-x if n % 2 else x for n, x in enumerate(seed)]  # D * (-1)^n B_n
    instances, failures = 0, []
    for r in _rows(rows, max_r):
        for s in range(min(max_s, bound - r) + 1):
            instances += 1
            direct = _defining_sum(seed, r, s)
            rank_form, shift_form = _difference_forms(signed.__getitem__, r, s)
            if rank_form != shift_form:
                failures.append(
                    f"difference forms disagree at (r={r}, s={s}): "
                    f"{Fraction(rank_form, d)} != {Fraction(shift_form, d)}"
                )
            elif not (direct == table.scaled[r][s] == rank_form):
                failures.append(
                    f"(r={r}, s={s}): direct={Fraction(direct, d)}, table={table[r, s]}, "
                    f"difference={Fraction(rank_form, d)}"
                )
    return instances, failures, []


def _sweep_poly_reciprocity(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    """[x^k]: (-1)^r c_k(r,s) = (-1)^(s+k) c_k(s,r), compared as integers over the shared D."""
    table = _table(max_r, max_s)
    swapped = table if max_r == max_s else _table(max_s, max_r)
    # one scaled_polynomial per ordered key: on a square range (s, r) is also a row key
    lhs_at = functools.cache(table.scaled_polynomial)
    rhs_at = lhs_at if swapped is table else swapped.scaled_polynomial
    instances, failures = 0, []
    for r in _rows(rows, max_r):
        for s in range(max_s + 1):
            instances += 1
            lhs = lhs_at(r, s)
            rhs = rhs_at(s, r)
            pairs = enumerate(zip(lhs, rhs))
            k = next((k for k, (a, b) in pairs if a != (-b if (r + s + k) % 2 else b)), None)
            if k is not None:  # the first power of x where the two sides differ
                d = table.denominator
                failures.append(
                    f"(r={r}, s={s}): [x^{k}] {Fraction(lhs[k], d)} in B[{r},{s}](x) "
                    f"vs {Fraction(rhs[k], d)} in B[{s},{r}](x)"
                )
    return instances, failures, []


def _sweep_nonvanishing(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    table = _table(max_r, max_s)
    instances, failures, notes = 0, [], []
    for r in range(max_r + 1):
        for s in range(max_s + 1):
            instances += 1
            value = table.scaled[r][s]
            if _exceptional_zero(r, s):
                if value != 0:
                    failures.append(f"(r={r}, s={s}): expected 0, got {table[r, s]}")
                else:
                    notes.append(f"zero at (r={r}, s={s})")
            elif value == 0:
                failures.append(f"(r={r}, s={s}): unexpected zero")
    return instances, failures, notes


def _sweep_denominators(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    exact = _table(max_r, max_s).denominators()
    sieve = primes_up_to(max_r + max_s + 1)
    ranks = _rows(rows, max_r)
    # for r, s >= 2: the product of the primes that psi(r, s, p) puts in the denominator
    via_psi = {r: [1] * (max_s + 1) for r in ranks if r >= 2}
    for p in sieve:  # one prime's psi table alive at a time
        psi_p = _psi_table(p, max_r, max_s)
        for r, product in via_psi.items():
            row = psi_p[r]
            for s in range(2, max_s + 1):
                if _divides_denominator(p, row[s]):
                    product[s] *= p
    # one evaluation per ordered key: F(r, s) and F(s, r) are still computed apart
    formula_at = functools.cache(lambda r, s: _denom_formula(r, s, sieve).value)
    instances, failures = 0, []
    for r in ranks:
        for s in range(max_s + 1):
            instances += 1
            d = exact[r][s]
            formula = formula_at(r, s)
            if formula != d:
                failures.append(f"(r={r}, s={s}): formula {formula} != exact {d}")
            if formula_at(s, r) != formula:
                failures.append(f"(r={r}, s={s}): formula not symmetric")
            if r >= 2 and s >= 2 and via_psi[r][s] != d:
                failures.append(f"(r={r}, s={s}): psi product {via_psi[r][s]} != exact {d}")
    return instances, failures, []


def _sweep_integrality(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    """B[r,s] + sum(psi/p) summed over D one prime's psi table at a time, plus psi divisibility."""
    table = _table(max_r, max_s)
    d, ranks = table.denominator, _rows(rows, max_r, start=2)
    # D * (B[r,s] + the psi/p terms so far) for s = 2..max_s, one list per rank
    totals = [list(table.scaled[r][2:]) for r in ranks]
    del table  # its values live on in totals only
    failures = []
    psi_two: list[list[int]] = []
    for p in primes_up_to(max_r + max_s + 1):  # one prime's psi table alive at a time
        psi_p, share = _psi_table(p, max_r, max_s), d // p
        for i, r in enumerate(ranks):
            row = psi_p[r]
            totals[i] = [total + value * share for total, value in zip(totals[i], row[2:])]
            if p == 3:
                for s in range(2, max_s + 1):
                    psi2, psi3 = psi_two[r][s], row[s]
                    if not (psi2 == psi3 == 2 ** (r - 1) and psi2 % 2 == 0 and psi3 % 3 != 0):
                        failures.append(f"(r={r}, s={s}): psi(2)={psi2}, psi(3)={psi3}")
            elif p >= 5:
                # p - 1 | r or p - 1 | s: then p must not divide psi
                step = 1 if r % (p - 1) == 0 else p - 1
                failures.extend(
                    f"(r={r}, s={s}): p={p} divides psi"
                    for s in range(max(2, step), max_s + 1, step)
                    if row[s] % p == 0
                )
        psi_two = psi_p if p == 2 else []
    for r, row in zip(ranks, totals):
        for s, total in enumerate(row, start=2):
            try:
                _integral(r, s, total, d)
            except InvariantViolation as exc:
                failures.append(f"(r={r}, s={s}): {exc}")
    return sum(map(len, totals)), failures, []


def _sweep_psi_matrix(max_r: int, max_s: int, rows: Rows) -> SweepResult:
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


def _sweep_psi_congruences(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    bound = max(max_r, max_s)
    instances, failures = 0, []
    for p in primes_up_to(min(37, bound + 1)):
        if p < 3:
            continue
        step = p - 1
        psi_p = _psi_table(p, bound, bound)
        for r in range(1, bound + 1):
            row = psi_p[r]
            for s in range(bound + 1):
                if s > step:
                    instances += 1
                    v, v2 = row[s], row[s - step]
                    if not _psi_periodic(v, v2, v, v2, p):
                        failures.append(f"p={p}: shift periodicity fails at (r={r}, s={s})")
                if r > step:
                    instances += 1
                    v, v2 = row[s], psi_p[r - step][s]
                    if not _psi_periodic(v, v, v2, v2, p):
                        failures.append(f"p={p}: rank periodicity fails at (r={r}, s={s})")
                if r <= s:
                    instances += 1
                    if not _psi_reciprocal(r, s, row[s], psi_p[s][r], p):
                        failures.append(f"p={p}: reciprocity fails at (r={r}, s={s})")
    return instances, failures, []


def _sweep_hermite_stern(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    instances, failures = 0, []
    for m in _rows(rows, max_r, start=1):
        for p in primes_up_to(max_s):
            instances += 1
            residue = hermite_stern_check(m, p)
            if residue != 0:
                failures.append(f"(m={m}, p={p}): residue {residue}")
    return instances, failures, []


def _sweep_staudt_clausen(max_r: int, max_s: int, rows: Rows) -> SweepResult:
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


def _sweep_denom_divisibility(max_r: int, max_s: int, rows: Rows) -> SweepResult:
    """Structural facts about denom(B[r,s]), counted per part over the rectangle.

    Symmetry in (r, s); the r = 0 row is the classical denominator; the
    closed form of the r = 1 row; oddness for r, s >= 2; divisibility by 3
    for r, s >= 1; the forced primes p - 1 | r for even ranks; squarefree
    with every prime factor <= r + s + 1; and denominator 1 exactly at
    (0, 0) and the exceptional zeros.
    """
    denoms = _table(max_r, max_s).denominators()
    sieve = primes_up_to(max_r + max_s + 1)
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
    for r in range(max_r + 1):
        for s in range(max_s + 1):
            d = denoms[r][s]
            if r <= bound and s <= bound:
                d_swapped = denoms[s][r]
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
                forced = [p for p in clausen_primes(r) if p >= 3]
                check(
                    "even-rank-forced-primes",
                    all(d % p == 0 for p in forced),
                    f"(r={r}, s={s}): {d} misses one of {forced}",
                )
            rest = d
            square_ok = True
            for p in sieve:
                if p > r + s + 1:
                    break
                if rest % p == 0:
                    rest //= p
                    if rest % p == 0:
                        square_ok = False
            check(
                "squarefree-bounded",
                square_ok and rest == 1,
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
    runner: Callable[[int, int, Rows], SweepResult]
    parallel: bool
    default_r: int
    default_s: int
    description: str
    # The fewest keys (max_r + 1) * (max_s + 1) at which a parallel sweep's
    # rows go to a process pool.  Below it one process is faster: the pool's
    # import and fork, and each worker rebuilding the sweep's table, cost more
    # than the split saves.  Measured as --jobs 2 against --jobs 1 wall time
    # (see CHANGES.md); unused when parallel is False.
    pool_from: int = 0


PROPERTIES: dict[str, PropertySpec] = {
    "reciprocity": PropertySpec(
        _sweep_reciprocity, False, 80, 80, "sign-flipped symmetry of B[r,s] under swapping rank and shift"
    ),
    "antidiagonal": PropertySpec(
        _sweep_antidiagonal, False, 50, 50, "sum of B[r,s] over r+s = n vanishes for n >= 1"
    ),
    "paths": PropertySpec(
        _sweep_paths, True, 80, 80, "defining sum, recurrence table, and both difference forms agree",
        pool_from=101 * 101,  # from 100 x 100
    ),
    "poly-reciprocity": PropertySpec(
        _sweep_poly_reciprocity, True, 25, 25, "(-1)^r B[r,s](x) equals (-1)^s B[s,r](-x) coefficientwise",
        pool_from=46 * 46,  # from 45 x 45
    ),
    "nonvanishing": PropertySpec(
        _sweep_nonvanishing, False, 60, 60, "B[r,s] = 0 only at rank-0/shift-0 odd-index keys"
    ),
    "denominators": PropertySpec(
        _sweep_denominators, True, 80, 80, "exact, psi-product, and closed-formula denominators agree",
        pool_from=121 * 121,  # from 120 x 120
    ),
    "integrality": PropertySpec(
        _sweep_integrality, True, 80, 80, "B[r,s] + sum(psi/p) is an integer; psi divisibility holds",
        pool_from=121 * 121,  # from 120 x 120
    ),
    "psi-matrix": PropertySpec(
        _sweep_psi_matrix, False, 19, 19, "zero / one / binomial trichotomy of the psi grid per prime"
    ),
    "psi-congruences": PropertySpec(
        _sweep_psi_congruences, False, 60, 60, "psi periodicity in shift and rank, and its reciprocity mod p"
    ),
    "hermite-stern": PropertySpec(
        _sweep_hermite_stern, True, 200, 31, "binomial sums over multiples of p-1 vanish mod p",
        pool_from=301 * 32,  # from 300 x 31
    ),
    "staudt-clausen": PropertySpec(
        _sweep_staudt_clausen, False, 200, 200, "classical witness integrality and closed Bernoulli denominators"
    ),
    "denom-divisibility": PropertySpec(
        _sweep_denom_divisibility, False, 40, 40, "structural divisibility properties of denom(B[r,s])"
    ),
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
        parts = [spec.runner(max_r, max_s, None)]
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
