"""Acceptance gate: eleven exact criteria swept at full published scale.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts with the witness on failure.  All comparisons are exact
rational identities; nothing is sampled, every index in the stated range is
checked.
"""

from fractions import Fraction
from math import comb

from bernshift.bernoulli import (
    bernoulli_denominator,
    hermite_stern_check,
    von_staudt_clausen_witness,
)
from bernshift.denom import _psi_reciprocal, denom_formula, denom_via_psi, psi, psi_matrix
from bernshift.exact_arith import primes_up_to
from bernshift.umbral import (
    antidiagonal_sums,
    bs_direct,
    bs_table_recursive,
    bs_via_difference,
)
from oracles import bernoulli_polynomial, evaluate, psi_periodic, reflect
from reference_grid import REFERENCE_GRID


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_01_reference_table_reproduction(cache):
    mismatches = []
    table = bs_table_recursive(cache, 8, 8)
    for r in range(9):
        for s in range(9):
            expected = REFERENCE_GRID[r][s]
            if bs_direct(cache, r, s) != expected or table[r, s] != expected:
                mismatches.append((r, s))
    _report(
        "9x9 reference table",
        not mismatches,
        "81 cells exact" if not mismatches else f"mismatch at {mismatches}",
    )


def test_02_nonvanishing(grid80):
    bad = []
    for r in range(61):
        for s in range(61):
            expected_zero = (s == 0 and r >= 3 and r % 2 == 1) or (
                r == 0 and s >= 3 and s % 2 == 1
            )
            if (grid80[r, s] == 0) != expected_zero:
                bad.append((r, s))
    _report(
        "non-vanishing, r,s <= 60",
        not bad,
        "zeros exactly at odd-index borders" if not bad else f"witness {bad[:5]}",
    )


def test_03_denominator_formula(grid80):
    bad = []
    for r in range(81):
        for s in range(81):
            if denom_formula(r, s).value != grid80[r, s].denominator:
                bad.append((r, s))
    _report(
        "closed denominator formula, r,s <= 80",
        not bad,
        "6561 keys incl. rank/shift-1 borders" if not bad else f"witness {bad[:5]}",
    )


def test_04_integrality_and_psi_product(grid80):
    bad = []
    checked = 0
    for r in range(2, 81):
        for s in range(2, 81):
            value = grid80[r, s]
            total = value
            for p in primes_up_to(r + s + 1):
                total += Fraction(psi(r, s, p).value, p)
            psi2 = psi(r, s, 2).value
            psi3 = psi(r, s, 3).value
            ok = (
                total.denominator == 1
                and denom_via_psi(r, s) == value.denominator
                and psi2 == psi3 == 2 ** (r - 1)
                and psi2 % 2 == 0
                and psi3 % 3 != 0
                and all(
                    psi(r, s, p).value % p != 0
                    for p in primes_up_to(r + s + 1)
                    if p >= 5 and (r % (p - 1) == 0 or s % (p - 1) == 0)
                )
            )
            checked += 1
            if not ok:
                bad.append((r, s))
    _report(
        "integrality + psi product + divisibility, 2 <= r,s <= 80",
        not bad,
        f"{checked} keys" if not bad else f"witness {bad[:5]}",
    )


def test_05_antidiagonal_sums(cache):
    sums = antidiagonal_sums(cache, 100)
    bad = [n for n in range(1, 101) if sums[n] != 0]
    ok = not bad and sums[0] == 1
    _report(
        "anti-diagonal sums, n <= 100",
        ok,
        "zero for 1 <= n <= 100, one at n = 0" if ok else f"witness n = {bad[:5]}",
    )


def test_06_reciprocity(cache, grid80):
    bad = []
    for r in range(81):
        for s in range(81):
            lhs = grid80[r, s] if r % 2 == 0 else -grid80[r, s]
            rhs = grid80[s, r] if s % 2 == 0 else -grid80[s, r]
            if lhs != rhs:
                bad.append((r, s))
    poly_bad = []
    table = bs_table_recursive(cache, 25, 25)
    for r in range(26):
        for s in range(26):
            # (-1)^r B[r,s](x) = (-1)^s B[s,r](-x), both over the table's D
            sign = -1 if (r + s) % 2 else 1
            rhs = [sign * c for c in reflect(table.scaled_polynomial(s, r))]
            if table.scaled_polynomial(r, s) != rhs:
                poly_bad.append((r, s))
    ok = not bad and not poly_bad
    _report(
        "reciprocity (values <= 80, polynomials <= 25)",
        ok,
        "6561 + 676 keys" if ok else f"witness {(bad + poly_bad)[:5]}",
    )


def test_07_path_equivalence(cache, grid80):
    table = bs_table_recursive(cache, 80, 80)
    bad = []
    checked = 0
    for r in range(81):
        for s in range(81 - r):
            checked += 1
            direct = grid80[r, s]
            if not (direct == table[r, s] == bs_via_difference(cache, r, s)):
                bad.append((r, s))
    _report(
        "path equivalence on r + s <= 80",
        not bad,
        f"{checked} keys x 4 paths" if not bad else f"witness {bad[:5]}",
    )


def test_08_hermite_stern():
    bad = [
        (m, p)
        for m in range(1, 201)
        for p in primes_up_to(31)
        if hermite_stern_check(m, p) != 0
    ]
    _report(
        "binomial congruence, m <= 200, p <= 31",
        not bad,
        "2200 sums vanish mod p" if not bad else f"witness {bad[:5]}",
    )


def test_09_psi_matrix_trichotomy():
    bad = []
    cells = 0
    for p in (5, 7, 11, 13, 17, 19):
        grid = psi_matrix(p)  # raises InvariantViolation on structure violation
        for r in range(1, p - 1):
            for s in range(1, p - 1):
                cells += 1
                value = grid[r - 1][s - 1]
                if r + s < p - 1:
                    ok = value == 0
                elif r + s == p - 1:
                    ok = value == 1
                else:
                    ok = value == comb(r, p - 1 - s) and value % p != 0
                if not ok:
                    bad.append((p, r, s))
    _report(
        "psi matrix trichotomy, p in {5..19}",
        not bad,
        f"{cells} cells" if not bad else f"witness {bad[:5]}",
    )


def test_10_psi_congruences():
    bad = []
    checked = 0
    for p in primes_up_to(37):
        if p < 3:
            continue
        step = p - 1
        vals = {
            (r, s): psi(r, s, p).value for r in range(1, 61) for s in range(61)
        }
        for r in range(1, 61):
            for s in range(1, 61):
                if s + step <= 60:
                    checked += 1
                    if vals[r, s] != vals[r, s + step]:
                        bad.append(("shift", p, r, s))
                if r + step <= 60:
                    checked += 1
                    if (vals[r, s] - vals[r + step, s]) % p != 0:
                        bad.append(("rank", p, r, s))
                if r <= s:
                    checked += 1
                    if not _psi_reciprocal(r, s, vals[r, s], vals[s, r], p):
                        bad.append(("reciprocity", p, r, s))
        # rank periodicity also holds at shift 0
        for r in range(1, 61 - step):
            checked += 1
            if (vals[r, 0] - vals[r + step, 0]) % p != 0:
                bad.append(("rank", p, r, 0))
    spot_ok = (
        psi_periodic(2, 2, 1, 5, 5)
        and psi_periodic(2, 6, 3, 3, 5)
        and psi_periodic(1, 5, 2, 2, 5)
        and psi_periodic(3, 39, 7, 43, 37)
    )
    if not spot_ok:
        bad.append(("spot", 0, 0, 0))
    _report(
        "psi periodicity + extended reciprocity, indices <= 60, p <= 37",
        not bad,
        f"{checked} congruences" if not bad else f"witness {bad[:5]}",
    )


def test_11_classical_layer(cache):
    bad = []
    for n in range(2, 201, 2):
        if not isinstance(von_staudt_clausen_witness(cache, n), int):
            bad.append(("witness", n))
    for n in range(201):
        if bernoulli_denominator(n) != cache[n].denominator:
            bad.append(("denominator", n))
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
    polys = [bernoulli_polynomial(cache, n) for n in range(41)]
    for n in range(21):
        for x in points:
            for y in points:
                rhs = sum(comb(n, v) * evaluate(polys[n - v], x) * y**v for v in range(n + 1))
                if evaluate(polys[n], x + y) != rhs:
                    bad.append(("translation", n))
    # degree n: agreement of B_n(1 - x) and (-1)^n B_n(x) at n + 1 points is identity
    for n in range(41):
        sign = 1 if n % 2 == 0 else -1
        for k in range(n + 1):
            x = Fraction(k - n // 2, 3)
            if evaluate(polys[n], 1 - x) != sign * evaluate(polys[n], x):
                bad.append(("reflection", n))
    _report(
        "classical layer (witnesses, denominators, translation, reflection)",
        not bad,
        "n <= 200 / n <= 20 / n <= 40" if not bad else f"witness {bad[:5]}",
    )
