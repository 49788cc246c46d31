import copy
import pickle
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import comb, gcd, prod

import pytest

import bernshift.exact_arith as exact_arith
from bernshift.bernoulli import bernoulli_denominator
from bernshift.denom import (
    DenomFactorization,
    _psi_indices,
    _psi_sum_seed,
    _psi_value,
    denom_exact,
    denom_formula,
    denom_via_psi,
    integrality_witness,
    psi,
    psi_matrix,
)
from bernshift.errors import InvariantViolation
from bernshift.exact_arith import _triangle_rows, primes_up_to
from bernshift.umbral import BsTable, _scaled_bernoulli, bs_table_recursive
from oracles import least_positive_residue, psi_periodic, psi_reciprocal


def psi_sum_rows(primes, max_r, max_s):
    """(P, the rows S[r, 0..max_s] for r <= max_r): _psi_sum_seed's triangle, walked as umbral._walk walks it."""
    big, seed = _psi_sum_seed(primes, max_r + max_s)
    return big, [row[: max_s + 1] for row in islice(_triangle_rows(seed), max_r + 1)]


def psi_rows(p, max_r, max_s):
    """psi(r, 0..max_s, p) for r <= max_r: the triangle of the one-prime seed chi_p, n = max_r + max_s."""
    return psi_sum_rows((p,), max_r, max_s)[1]


@pytest.fixture(scope="module")
def table20(cache):
    return bs_table_recursive(cache, 20, 20)


class TestPsi:
    def test_examples(self):
        assert psi(2, 2, 7).value == 0
        assert psi(2, 2, 2).value == 2
        assert psi(2, 2, 5).value == 1
        assert psi(3, 3, 5).value == 3

    def test_index_sets(self):
        assert psi(2, 2, 5).index_set == (2,)
        assert psi(3, 3, 5).index_set == (1,)
        assert psi(2, 2, 7).index_set == ()

    def test_index_set_characterization(self):
        for r in range(13):
            for s in range(13):
                for p in primes_up_to(r + s + 4):
                    result = psi(r, s, p)
                    members = set(result.index_set)
                    expected_value = 0
                    for v in range(r + 1):
                        t = s + v
                        admissible = t > 0 and t % 2 == 0 and t % (p - 1) == 0
                        assert (v in members) == admissible
                        if admissible:
                            expected_value += comb(r, v)
                    assert result.value == expected_value

    def test_vanishes_beyond_support(self):
        big_primes = primes_up_to(250)
        for r in range(31):
            for s in range(31):
                checked = 0
                for p in big_primes:
                    if p > r + s + 1:
                        assert psi(r, s, p).value == 0
                        checked += 1
                        if checked == 10:
                            break

    def test_unchecked_value_and_indices_match_psi(self):
        for r in range(31):
            for s in range(31):
                for p in primes_up_to(37):
                    result = psi(r, s, p)
                    assert _psi_value(r, s, p) == result.value
                    assert tuple(_psi_indices(r, s, p)) == result.index_set

    def test_walk_matches_comb_sum(self):
        # the oracle takes math.comb afresh at each admissible index
        def comb_sum(r, s, p):
            return sum(comb(r, v) for v in _psi_indices(r, s, p))

        for p in [*primes_up_to(67), 1_000_003, 10**11 + 3]:
            for r in range(60):
                for s in range(60):
                    assert _psi_value(r, s, p) == comb_sum(r, s, p), (r, s, p)
        for r, s, p in ((2000, 3, 2), (2000, 2000, 3), (2001, 7, 5), (1500, 0, 1499)):
            assert _psi_value(r, s, p) == comb_sum(r, s, p), (r, s, p)

    def test_empty_index_set_does_no_work(self, monkeypatch):
        import bernshift.denom as denom

        monkeypatch.setattr(denom, "_binomials", None)  # any binomial run would raise
        assert _psi_value(5, 3, 101) == 0
        assert _psi_value(10**6, 1, 10**11 + 3) == 0

    def test_large_rank_holds_one_binomial_at_a_time(self):
        # a whole row of order 20,000 takes about 39 MB; the run holds one binomial of about 2.5 KB
        tracemalloc.start()
        try:
            value = _psi_value(20000, 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 2**19999  # the odd v, half of the row's sum 2^20000
        assert peak < 1 << 20, peak

    def test_tables_match_binomial_sum(self):
        # psi by the recurrence seeded with chi_p, for every prime that can be nonzero
        for p in primes_up_to(61):
            table = psi_rows(p, 60, 60)
            for r in range(61):
                for s in range(61 - r):
                    assert table[r][s] == _psi_value(r, s, p), (p, r, s)
        assert psi_rows(5, 3, 2) == [[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 3]]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            psi(2, 2, 4)
        with pytest.raises(ValueError):
            psi(-1, 0, 5)

    def test_two_and_three_collapse_to_power(self):
        for r in range(2, 21):
            for s in range(2, 21):
                two, three = psi(r, s, 2).value, psi(r, s, 3).value
                assert two == three == 2 ** (r - 1)
                assert two % 2 == 0
                assert three % 3 != 0

    def test_divisibility_for_aligned_residues(self):
        for r in range(2, 31):
            for s in range(2, 31):
                for p in primes_up_to(r + s + 1):
                    if p >= 5 and (r % (p - 1) == 0 or s % (p - 1) == 0):
                        assert psi(r, s, p).value % p != 0

    def test_residue_criterion(self):
        # p divides psi(r,s,p) exactly when <r>_{p-1} + <s>_{p-1} < p - 1
        for p in primes_up_to(37):
            if p < 5:
                continue
            for r in range(1, 81):
                for s in range(1, 81):
                    doesnt_divide = psi(r, s, p).value % p != 0
                    residues = least_positive_residue(r, p - 1) + least_positive_residue(s, p - 1)
                    assert doesnt_divide == (residues >= p - 1)


class TestPsiSumRows:
    @pytest.mark.parametrize("max_r, max_s", [(0, 0), (1, 6), (6, 1), (7, 3), (20, 20)])
    @pytest.mark.parametrize("first", [0, 1], ids=["all-primes", "odd-primes"])
    def test_rows_are_the_weighted_psi_tables(self, max_r, max_s, first):
        primes = primes_up_to(max_r + max_s + 1)[first:]
        big, rows = psi_sum_rows(primes, max_r, max_s)
        assert big == prod(primes)
        expected = [[0] * (max_s + 1) for _ in range(max_r + 1)]
        for p in primes:
            for r, row in enumerate(psi_rows(p, max_r, max_s)):
                for s, value in enumerate(row):
                    expected[r][s] += big // p * value
        assert rows == expected

    def test_product_of_the_primes_not_dividing_the_sum_is_denom_via_psi(self):
        odd = primes_up_to(61)[1:]
        big, rows = psi_sum_rows(odd, 30, 30)
        for r, row in enumerate(islice(rows, 2, None), start=2):
            for s in range(2, 31):
                # past r + s + 1 psi is 0, so the prime divides the sum and stays out
                assert big // gcd(row[s], big) == denom_via_psi(r, s), (r, s)

    def test_sum_over_d_completes_the_integrality_witness(self, table20):
        d = table20.denominator
        big, rows = psi_sum_rows(primes_up_to(41), 20, 20)
        assert big == d
        for r, row in enumerate(islice(rows, 2, None), start=2):
            for s in range(2, 21):
                whole, rest = divmod(table20.scaled[r][s] + row[s], d)
                assert rest == 0 and whole == integrality_witness(table20, r, s), (r, s)

    @pytest.mark.parametrize("max_r, max_s", [(0, 0), (1, 6), (6, 1), (20, 20)])
    def test_all_primes_give_the_table_denominator(self, cache, max_r, max_s):
        n = max_r + max_s
        assert _psi_sum_seed(primes_up_to(n + 1), n)[0] == _scaled_bernoulli(cache, n)[0]

    @pytest.mark.parametrize("n", [0, 1, 12, 40, 600])
    def test_one_prime_seeds_its_own_psi(self, n):
        # chi_p(t) = 1 exactly when t > 0 is even and p divides denom(B_t), read from the divisors of t
        clausen = [exact_arith.clausen_primes(t) if t > 0 and t % 2 == 0 else [] for t in range(n + 1)]
        for p in primes_up_to(n + 1):
            assert _psi_sum_seed((p,), n) == (p, [int(p in primes) for primes in clausen]), (p, n)


class TestIntegralityWitness:
    def test_examples(self, table20):
        assert integrality_witness(table20, 2, 2) == 2
        assert integrality_witness(table20, 2, 3) == 2
        assert isinstance(integrality_witness(table20, 8, 8), int)

    def test_matches_hand_sum(self, table20):
        # 2/15 + psi(2)/2 + psi(3)/3 + psi(5)/5 = 2/15 + 1 + 2/3 + 1/5 = 2
        total = Fraction(2, 15) + 1 + Fraction(2, 3) + Fraction(1, 5)
        assert integrality_witness(table20, 2, 2) == total == 2

    def test_matches_per_prime_sum(self, table20):
        for r in range(2, 21):
            for s in range(2, 21):
                total = table20[r, s]
                for p in primes_up_to(r + s + 1):
                    total += Fraction(psi(r, s, p).value, p)
                assert total.denominator == 1
                assert integrality_witness(table20, r, s) == total

    def test_rejects_small_indices(self, table20):
        with pytest.raises(ValueError):
            integrality_witness(table20, 1, 5)
        with pytest.raises(ValueError):
            integrality_witness(table20, 5, 1)

    def test_rejects_keys_outside_the_table_as_the_table_does(self, cache):
        table = bs_table_recursive(cache, 3, 3)
        for r, s in ((5, 2), (2, 5)):
            with pytest.raises(ValueError, match=rf"^B\[{r},{s}\] lies outside the 3x3 table$"):
                table[r, s]
            with pytest.raises(ValueError, match=rf"^B\[{r},{s}\] lies outside the 3x3 table$"):
                integrality_witness(table, r, s)


class TestDenominators:
    def test_exact_examples(self, cache):
        assert denom_exact(cache, 2, 2) == 15
        assert denom_exact(cache, 3, 0) == 1
        assert denom_exact(cache, 8, 8) == 36465

    def test_via_psi_examples(self):
        assert denom_via_psi(2, 2) == 15
        assert denom_via_psi(3, 3) == 105
        assert denom_via_psi(2, 5) == 21

    def test_via_psi_rejects_borders(self):
        with pytest.raises(ValueError):
            denom_via_psi(1, 5)
        with pytest.raises(ValueError):
            denom_via_psi(5, 0)

    def test_formula_examples(self):
        assert denom_formula(1, 1).value == 3
        assert denom_formula(1, 1).eps2 == 0
        assert denom_formula(1, 2).value == 6
        assert denom_formula(1, 2).eps2 == 1
        assert denom_formula(8, 8).value == 36465
        assert denom_formula(8, 8).primes == (3, 5, 11, 13, 17)
        assert denom_formula(0, 7).value == 1
        assert denom_formula(1, 3).value == 30 == bernoulli_denominator(4)
        assert denom_formula(0, 12).value == 2730

    @pytest.mark.parametrize("r, s", [(-1, 0), (0, -1)])
    def test_formula_rejects_a_negative_key(self, r, s):
        with pytest.raises(ValueError, match="non-negative"):
            denom_formula(r, s)

    @pytest.mark.parametrize("r, s", [(0, 50), (50, 0)])
    def test_formula_sieves_nothing_at_a_border_key(self, r, s):
        exact_arith._TALLY.clear()
        value = denom_formula(r, s).value
        assert exact_arith._TALLY["sieves"] == 0  # clausen_primes(50) lists the divisors of 50: no sieve at all
        assert value == bernoulli_denominator(50)

    def test_formula_symmetric(self):
        for r in range(21):
            for s in range(21):
                fact = denom_formula(r, s)
                assert fact.value == denom_formula(s, r).value
                assert DenomFactorization(eps2=fact.eps2, primes=fact.primes) == fact

    def test_three_routes_agree(self, cache):
        for r in range(25):
            for s in range(25):
                exact = denom_exact(cache, r, s)
                assert denom_formula(r, s).value == exact
                if r >= 2 and s >= 2:
                    assert denom_via_psi(r, s) == exact

    def test_factorization_validation(self):
        fact = DenomFactorization(eps2=1, primes=(3, 5))
        assert fact.value == 30
        with pytest.raises(ValueError):
            DenomFactorization(eps2=2, primes=())
        with pytest.raises(ValueError):
            DenomFactorization(eps2=0, primes=(4,))
        with pytest.raises(ValueError):
            DenomFactorization(eps2=0, primes=(9,))
        for primes in [(5, 3), (3, 3), (3, 5, 5)]:  # strictly increasing: no prime out of order or repeated
            with pytest.raises(ValueError):
                DenomFactorization(eps2=0, primes=primes)

    def test_factorization_normalises_primes(self):
        from_list = DenomFactorization(1, [3, 5])
        from_tuple = DenomFactorization(1, (3, 5))
        assert from_list.primes == (3, 5)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert {from_list, from_tuple} == {from_tuple}
        assert DenomFactorization(0, iter([7, 11])).value == 77

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_factorization_survives_copy_and_pickle(self, clone):
        # __getnewargs__ hands __new__ its two arguments; without it copy passes all three fields
        fact = denom_formula(8, 8)
        twin = clone(fact)
        assert type(twin) is DenomFactorization
        assert twin == fact and (twin.eps2, twin.primes, twin.value) == (0, (3, 5, 11, 13, 17), 36465)

    def test_formula_structure(self):
        for r in range(1, 31):
            for s in range(1, 31):
                fact = denom_formula(r, s)
                assert 3 in fact.primes
                assert all(p <= r + s + 1 for p in fact.primes)
                assert fact.eps2 == (1 if (r == 1 or s == 1) and r != s else 0)


class TestPsiCongruences:
    def test_reciprocity_examples(self):
        assert psi_reciprocal(2, 2, 5)
        assert psi_reciprocal(3, 4, 5)
        assert psi_reciprocal(1, 6, 7)

    def test_reciprocity_sweep(self):
        # extension to rank/shift 1 holds for odd p; p = 2 needs r, s >= 2
        for p in primes_up_to(19):
            start = 2 if p == 2 else 1
            for r in range(start, 31):
                for s in range(start, 31):
                    assert psi_reciprocal(r, s, p)

    def test_reciprocity_boundary_at_two(self):
        # at p = 2 the extension down to rank or shift 1 fails: 1 vs 2 mod 2
        assert not psi_reciprocal(1, 2, 2)
        assert psi_reciprocal(1, 1, 2)

    def test_reciprocity_rejects_zero_index(self):
        # the relation is stated for r, s >= 1: at p = 2 index 0 breaks it, 0 vs -3 mod 2
        assert not psi_reciprocal(0, 3, 2)
        with pytest.raises(ValueError):
            psi_reciprocal(-1, 3, 5)

    def test_reciprocity_rejects_composite(self):
        with pytest.raises(ValueError):
            psi_reciprocal(3, 3, 4)

    def test_periodicity_examples(self):
        assert psi_periodic(2, 2, 1, 5, 5)
        assert psi_periodic(2, 6, 3, 3, 5)
        assert psi_periodic(1, 5, 2, 2, 5)

    def test_periodicity_sweep(self):
        for p in (3, 5, 7, 11):
            for r in range(1, 16):
                for s in range(1, 16):
                    assert psi_periodic(r, r + (p - 1), s, s + 2 * (p - 1), p)

    def test_periodicity_matches_four_call_form(self, monkeypatch):
        import bernshift.denom as denom

        def value(r, s, p):  # not periodic, so both outcomes occur
            return (r * r + 3 * s) % p

        monkeypatch.setattr(denom, "_psi_value", value)
        outcomes = set()
        for p in (3, 5, 7):
            for r in range(1, 9):
                for r2 in (r, r + p - 1):
                    for s in range(9):
                        for s2 in (s, s + p - 1):
                            got = psi_periodic(r, r2, s, s2, p)
                            v_rs, v_rs2 = value(r, s, p), value(r, s2, p)
                            v_r2s, v_r2s2 = value(r2, s, p), value(r2, s2, p)
                            four_calls = v_rs == v_rs2 and v_r2s == v_r2s2 and (v_rs - v_r2s) % p == 0
                            assert got == four_calls
                            outcomes.add(got)
        assert outcomes == {True, False}

    def test_periodicity_rejects_bad_preconditions(self):
        # each precondition is needed: without it the relation has a counterexample
        assert not psi_periodic(2, 3, 1, 1, 5)  # ranks not congruent mod 4
        assert not psi_periodic(2, 2, 1, 2, 5)  # shifts not congruent mod 4
        assert not psi_periodic(0, 4, 1, 1, 5)  # rank must be >= 1
        assert not psi_periodic(1, 2, 1, 2, 2)  # p must be an odd prime


class TestPsiMatrix:
    def test_p5_grid(self):
        assert psi_matrix(5) == ((0, 0, 1), (0, 1, 2), (1, 3, 3))

    def test_entry_examples(self):
        assert psi_matrix(5)[2][2] == 3 == comb(3, 1)
        assert psi_matrix(7)[1][3] == 1  # (r,s) = (2,4), on the anti-diagonal

    def test_structure_holds_through_19(self):
        for p in (5, 7, 11, 13, 17, 19):
            grid = psi_matrix(p)
            assert len(grid) == p - 2
            for r in range(1, p - 1):
                for s in range(1, p - 1):
                    value = grid[r - 1][s - 1]
                    if r + s < p - 1:
                        assert value == 0
                    elif r + s == p - 1:
                        assert value == 1
                    else:
                        assert value == comb(r, p - 1 - s)
                        assert value % p != 0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            psi_matrix(4)
        with pytest.raises(ValueError):
            psi_matrix(3)


def test_integrality_violation_reports_witness():
    # every entry is 30 / (30 * 7919) = 1/7919; 2, 3 and 5 divide the denominator
    wrong = BsTable(2, 2, 30 * 7919, ((30,) * 3,) * 3)
    with pytest.raises(InvariantViolation, match=r"B\[2,2\]"):
        integrality_witness(wrong, 2, 2)
