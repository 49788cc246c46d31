"""The table sweeps: each walks the rows of D * B[r,s] through umbral._walk, and a
transposed key from the mirror walk beside them; none uses psi, so none loads denom.
Each compares integers over D and names a failure by exact_arith._quotient_text.
"""

from __future__ import annotations

from typing import Sequence

from . import bernoulli
from .exact_arith import _pascal_rows, _quotient_text
from .umbral import _walk
from .verify import SweepResult, _exceptional_zero


def _sweep_reciprocity(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    d, _, steps = _walk(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s, rows, mirror=True)
    failures = []
    for r, row, mirror in steps:
        for s in range(max_s + 1):
            if row[s] != mirror[s]:  # (-1)^r B[r,s] against (-1)^s B[s,r], times (-1)^r D
                swapped = -mirror[s] if (r + s) % 2 else mirror[s]  # D * B[s,r]
                failures.append(f"(r={r}, s={s}): {_quotient_text(row[s], d)} vs {_quotient_text(swapped, d)}")
    return len(rows) * (max_s + 1), failures, []


def _sweep_antidiagonal(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    from .umbral import _antidiagonal_totals

    d, sums = _antidiagonal_totals(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s)
    failures = []
    for n, total in enumerate(sums):  # D times each sum
        expected = 1 if n == 0 else 0
        if total != expected * d:
            failures.append(f"n={n}: sum is {_quotient_text(total, d)}, expected {expected}")
    return len(sums), failures, []


def _sweep_paths(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """Defining sum, table and both difference forms, each computed apart in integers over D."""
    from .umbral import _defining_sum, _difference_forms

    bound = max(max_r, max_s)  # the keys checked are those with r + s <= bound
    d, seed, steps = _walk(bernoulli.BernoulliCache(bound), bound, rows)
    signed = [-x if n % 2 else x for n, x in enumerate(seed)]  # D * (-1)^n B_n
    binoms = list(_pascal_rows(bound))  # C(m, 0..m) for every order m <= bound, read at many keys
    instances, failures = 0, []
    for r, row in steps:
        for s in range(min(max_s, bound - r) + 1):
            instances += 1
            direct = _defining_sum(seed, s, binoms[r])
            rank_form, shift_form = _difference_forms(signed, binoms[r], binoms[s])
            if rank_form != shift_form:
                failures.append(
                    f"difference forms disagree at (r={r}, s={s}): "
                    f"{_quotient_text(rank_form, d)} != {_quotient_text(shift_form, d)}"
                )
            elif not (direct == row[s] == rank_form):
                failures.append(
                    f"(r={r}, s={s}): direct={_quotient_text(direct, d)}, table={_quotient_text(row[s], d)}, "
                    f"difference={_quotient_text(rank_form, d)}"
                )
    return instances, failures, []


def _sweep_poly_reciprocity(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    """[x^k]: (-1)^r c_k(r,s) = (-1)^(s+k) c_k(s,r), compared as integers over the shared D."""
    from .umbral import _scaled_polynomial

    d, _, steps = _walk(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s, range(max(max_r, max_s) + 1))
    table = [row for _, row in steps]  # held: the sums reread both key orders
    binoms = list(_pascal_rows(max(max_r, max_s)))  # and C(m, 0..m) for every order m they read
    failures = []
    for r in rows:
        for s in range(max_s + 1):
            mirrored = s <= max_r and r <= max_s  # the key (s, r) is also in the rectangle
            if mirrored and s < r:
                continue  # the chunk holding rank s makes both polynomials at the key (s, r)
            lhs = _scaled_polynomial(table[: r + 1], binoms[r], binoms[s], d)
            rhs = lhs if r == s else _scaled_polynomial(table[: s + 1], binoms[s], binoms[r], d)
            pairs = enumerate(zip(lhs, rhs))
            k = next((k for k, (a, b) in pairs if a != (-b if (r + s + k) % 2 else b)), None)
            if k is not None:  # the first power of x where the sides differ, as for the key (s, r)
                for i, j, a, b in [(r, s, lhs, rhs), (s, r, rhs, lhs)][: 2 if mirrored and r != s else 1]:
                    failures.append(
                        f"(r={i}, s={j}): [x^{k}] {_quotient_text(a[k], d)} in B[{i},{j}](x) "
                        f"vs {_quotient_text(b[k], d)} in B[{j},{i}](x)"
                    )
    return len(rows) * (max_s + 1), failures, []


def _sweep_nonvanishing(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
    d, _, steps = _walk(bernoulli.BernoulliCache(max_r + max_s), max_r + max_s, rows)
    failures, notes = [], []
    for r, row in steps:
        for s, value in enumerate(row[: max_s + 1]):
            if _exceptional_zero(r, s):
                if value != 0:
                    failures.append(f"(r={r}, s={s}): expected 0, got {_quotient_text(value, d)}")
                else:
                    notes.append(f"zero at (r={r}, s={s})")
            elif value == 0:
                failures.append(f"(r={r}, s={s}): unexpected zero")
    return len(rows) * (max_s + 1), failures, notes
