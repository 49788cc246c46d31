"""Pins of the failing reports: each sweep run under one deliberate mutation.

test_cli_golden pins only passing output.  Here each case patches one value
the library computes, runs a sweep that must fail, and pins the sha256 of its
JSON report without ``timing``, in the form of ``VERIFY_GOLDEN``.  The value
mutations change what every route reads -- a D * B_n of the seed, a B_n of
the cache, a von Staudt-Clausen indicator chi_p, one factor of the closed denominator formula,
one polynomial coefficient, one binomial coefficient -- so a change of route
that keeps the mathematics keeps their digests.  The parallel sweeps are pinned at --jobs 1 and as a
3-way split whose chunk results are merged.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

import bernshift.bernoulli as bernoulli
import bernshift.denom as denom
import bernshift.exact_arith as exact_arith
import bernshift.umbral as umbral
from bernshift.verify import PROPERTIES, VerifyReport, merge_results, plan_chunks, report_payload, run_verify


def seed_b11(monkeypatch):
    """D * B_11 + 1 in the seed of every table triangle: B_11 reads 1/D, not 0."""
    real = umbral._scaled_bernoulli

    def mutated(cache, n):
        d, seed = real(cache, n)
        if n >= 11:
            seed[11] += 1
        return d, seed

    monkeypatch.setattr(umbral, "_scaled_bernoulli", mutated)


def chi_7_12(monkeypatch):
    """chi_7(12) read as 0 in every psi seed, though 7 - 1 divides 12."""
    real = denom._psi_sum_seed

    def mutated(primes, n):
        big, seed = real(primes, n)
        if 7 in primes and n >= 12:
            seed[12] -= big // 7  # chi_7(12)'s share taken back out of the sum
        return big, seed

    monkeypatch.setattr(denom, "_psi_sum_seed", mutated)


def chi_2_6(monkeypatch):
    """chi_2(6) read as 0 in every psi seed, though 2 - 1 divides 6: psi(r, s, 2) is no longer 2^(r-1)."""
    real = denom._psi_sum_seed

    def mutated(primes, n):
        big, seed = real(primes, n)
        if 2 in primes and n >= 6:
            seed[6] -= big // 2  # chi_2(6)'s share taken back out of the sum
        return big, seed

    monkeypatch.setattr(denom, "_psi_sum_seed", mutated)


def formula_factor(monkeypatch):
    """F(2, 7) times 3 in the closed denominator formula; F(7, 2) is left right."""
    real = denom._denom_formula

    def mutated(r, s, primes):
        value = real(r, s, primes).value
        return SimpleNamespace(value=3 * value if (r, s) == (2, 7) else value)

    monkeypatch.setattr(denom, "_denom_formula", mutated)


def coefficient(monkeypatch):
    """[x^2] of D * B[3,5](x) plus 1."""
    real = umbral._scaled_polynomial

    def mutated(rows, comb_r, comb_s, d):
        coeffs = real(rows, comb_r, comb_s, d)
        if (len(comb_r), len(comb_s)) == (4, 6):  # the rows C(3, 0..3) and C(5, 0..5)
            coeffs[2] += 1
        return coeffs

    monkeypatch.setattr(umbral, "_scaled_polynomial", mutated)


def binomial_12_6(monkeypatch):
    """C(12, 6) + 1 in the order-12 row that every Hermite-Stern residue is taken from."""
    real = exact_arith._hermite_stern_residue

    def mutated(row, p):
        if len(row) == 13:
            row = [*row[:6], row[6] + 1, *row[7:]]
        return real(row, p)

    monkeypatch.setattr(exact_arith, "_hermite_stern_residue", mutated)


def triangle_entry(monkeypatch):
    """D * B[5,4] + 1 in the triangle walked from umbral, the rows after it left right.

    Route-level, unlike the others: it edits one walk's entry, not a value
    every route reads.  reciprocity reads the transposed B[5,4] at (4, 5)
    from the unedited mirror walk, so its report names (5, 4) alone.
    """
    real = umbral._triangle_rows

    def edited(seed):
        for r, row in enumerate(real(seed)):
            yield [*row[:4], row[4] + 1, *row[5:]] if r == 5 else row

    monkeypatch.setattr(umbral, "_triangle_rows", edited)


def b12_plus_seventh(monkeypatch):
    """B_12 read as B_12 + 1/7 = -43/390 from the cache's pairs, which the seed and the witness both read."""
    real = bernoulli.BernoulliCache.pair

    def mutated(self, n):
        if n == 12:
            return -43, 390  # -691/2730 + 390/2730 in lowest terms
        return real(self, n)

    monkeypatch.setattr(bernoulli.BernoulliCache, "pair", mutated)


# (mutation, property, max_r, max_s, jobs, sha256 of the JSON report without "timing");
# jobs 3 is the chunks of plan_chunks(max_r, 3, cpus=3) run one by one and merged
MUTATION_GOLDEN = (
    (seed_b11, "reciprocity", 12, 12, 1, "a0396d09c56844723638e1837332a476e2547cf0924f2073c0ebcb9db6109397"),
    (seed_b11, "poly-reciprocity", 8, 8, 1, "08df15309db0b1cdd5f5d48cd74645415906ddd54a51373c785134cdf76ef1e6"),
    (seed_b11, "poly-reciprocity", 8, 8, 3, "08df15309db0b1cdd5f5d48cd74645415906ddd54a51373c785134cdf76ef1e6"),
    (seed_b11, "denom-divisibility", 12, 12, 1, "174e5ab2e7baa5aaebc93fa9082dce637d8adcd31a3e994aa8640a2ea9b4c0fe"),
    (seed_b11, "nonvanishing", 12, 12, 1, "9454503307c0d2376f14119bf007cacbff6eb6f5475926f8ef1fba1867f7ce21"),
    (chi_7_12, "psi-congruences", 20, 20, 1, "847980ab348d38e79aad7b118f6fe6d83a207f11fdab2d704757bf47fd8a3e11"),
    (chi_7_12, "integrality", 20, 20, 1, "d06b87a60f6278b790ea6088e213095ab4d04fd321b00f49a3db517a99148dff"),
    (chi_7_12, "integrality", 20, 20, 3, "d06b87a60f6278b790ea6088e213095ab4d04fd321b00f49a3db517a99148dff"),
    (chi_2_6, "integrality", 10, 10, 1, "5c8c4326105a8b5a3739dc32479e640c31346203f18aae0dd38d7d3011c1e930"),
    (chi_2_6, "integrality", 10, 10, 3, "5c8c4326105a8b5a3739dc32479e640c31346203f18aae0dd38d7d3011c1e930"),
    (chi_7_12, "denominators", 20, 20, 1, "9ec1ebc831ed6928efc21c83213726a8710fdd5a12655eb4a36f372da032cc89"),
    (chi_7_12, "denominators", 20, 20, 3, "9ec1ebc831ed6928efc21c83213726a8710fdd5a12655eb4a36f372da032cc89"),
    (formula_factor, "denominators", 10, 10, 1, "7b432985f89544299fda2d09538a6ca7f2e26e73f88f3698d7db749a2043bba9"),
    (formula_factor, "denominators", 10, 10, 3, "7b432985f89544299fda2d09538a6ca7f2e26e73f88f3698d7db749a2043bba9"),
    (coefficient, "poly-reciprocity", 8, 8, 1, "de5f3ae7158be5cc6e83ea07efd87a83cc26530a88f0640ec82c739437e46c71"),
    (coefficient, "poly-reciprocity", 8, 8, 3, "de5f3ae7158be5cc6e83ea07efd87a83cc26530a88f0640ec82c739437e46c71"),
    (binomial_12_6, "hermite-stern", 30, 13, 1, "4afabe6e050e736054c15a78e9ff3a37ac3b5d43005a77f1ac421c2222b37f39"),
    (triangle_entry, "reciprocity", 10, 10, 1, "7a7ff416b73c12e6dfe34a5d73d0824d80e53c531152e39d786677844d5f577d"),
    (seed_b11, "paths", 12, 12, 1, "4f008b96e6621e1e036b11b9fe98a2ade28bb88e0cb06be607fa3182894d5269"),
    (seed_b11, "paths", 12, 12, 3, "4f008b96e6621e1e036b11b9fe98a2ade28bb88e0cb06be607fa3182894d5269"),
    (triangle_entry, "paths", 10, 10, 1, "5bea737e2968600bfb1b3161728e4aadaa07379cfa6d52f2515818cde75f4c60"),
    (seed_b11, "antidiagonal", 12, 12, 1, "d8e6796a663f5dabf95df88f61a4fe5795b79ee30002a716266cea628e95bdbc"),
    (b12_plus_seventh, "staudt-clausen", 20, 20, 1, "10c1c79298e83f65387037fdd8790da4497f5d5a8830be6f377e138bf75711d2"),
)


def _case_id(case):
    mutation, name, max_r, max_s, jobs, _ = case
    return f"{mutation.__name__}-{name}-{max_r}x{max_s}-jobs{jobs}"


@pytest.mark.parametrize(
    ("mutation", "name", "max_r", "max_s", "jobs", "digest"), MUTATION_GOLDEN, ids=map(_case_id, MUTATION_GOLDEN)
)
def test_failing_report_is_pinned(monkeypatch, mutation, name, max_r, max_s, jobs, digest):
    mutation(monkeypatch)
    if jobs == 1:
        report = run_verify(name, max_r, max_s, jobs=1)
    else:
        assert PROPERTIES[name].parallel
        runner = PROPERTIES[name].runner
        parts = (runner(max_r, max_s, rows) for rows in plan_chunks(max_r, jobs, cpus=jobs))
        instances, failures, notes = merge_results(parts)
        report = VerifyReport(name, max_r, max_s, instances, tuple(failures), tuple(notes), 0.0)
    payload = report_payload(report)
    del payload["timing"]
    assert payload["pass"] is False and payload["failures"]
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
