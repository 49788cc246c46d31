import concurrent.futures
import inspect
import os
import re
import sys
import textwrap
import tracemalloc
import weakref
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

import bernshift.bernoulli as bernoulli
import bernshift.cli as cli
import bernshift.denom as denom
import bernshift.exact_arith as exact_arith
import bernshift.umbral as umbral
import bernshift.verify as verify
from bernshift.errors import InvariantViolation
from bernshift.render import FORMATS
from bernshift.verify import (
    PROPERTIES,
    VerifyReport,
    merge_results,
    plan_chunks,
    report_payload,
    report_text,
    run_verify,
)


SMALL = {
    "reciprocity": (10, 10),
    "antidiagonal": (10, 10),
    "paths": (10, 10),
    "poly-reciprocity": (8, 8),
    "nonvanishing": (10, 10),
    "denominators": (10, 10),
    "integrality": (10, 10),
    "psi-matrix": (11, 11),
    "psi-congruences": (10, 10),
    "hermite-stern": (30, 13),
    "staudt-clausen": (30, 30),
    "denom-divisibility": (10, 10),
}

# (instances, notes) at the SMALL ranges: a change to what any sweep checks,
# or how it counts, shows up here.
PINNED = {
    "reciprocity": (121, ()),
    "antidiagonal": (21, ()),
    "paths": (66, ()),
    "poly-reciprocity": (81, ()),
    "nonvanishing": (
        121,
        (
            "zero at (r=0, s=3)",
            "zero at (r=0, s=5)",
            "zero at (r=0, s=7)",
            "zero at (r=0, s=9)",
            "zero at (r=3, s=0)",
            "zero at (r=5, s=0)",
            "zero at (r=7, s=0)",
            "zero at (r=9, s=0)",
        ),
    ),
    "denominators": (121, ()),
    "integrality": (81, ()),
    "psi-matrix": (115, ()),
    "psi-congruences": (598, ()),
    "hermite-stern": (180, ()),
    "staudt-clausen": (46, ()),
    "denom-divisibility": (
        621,
        (
            "even-rank-forced-primes: 55 checks",
            "odd-for-rank2+: 81 checks",
            "row0-classical: 11 checks",
            "row1-closed-form: 11 checks",
            "squarefree-bounded: 121 checks",
            "symmetry: 121 checks",
            "three-divides: 100 checks",
            "unit-exceptions: 121 checks",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_each_property_passes_at_small_scale(name):
    max_r, max_s = SMALL[name]
    report = run_verify(name, max_r, max_s)
    assert report.ok
    assert report.failures == ()
    assert report.instances > 0
    assert report.property_name == name


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_pinned_instances_and_notes(name):
    report = run_verify(name, *SMALL[name])
    assert (report.instances, report.notes) == PINNED[name]


def test_instance_counts():
    assert run_verify("reciprocity", 8, 8).instances == 81
    assert run_verify("antidiagonal", 8, 8).instances == 17
    # triangle r + s <= 8 has 45 keys
    assert run_verify("paths", 8, 8).instances == 45


def test_nonvanishing_notes_list_expected_zeros():
    report = run_verify("nonvanishing", 10, 10)
    assert "zero at (r=3, s=0)" in report.notes
    assert "zero at (r=0, s=9)" in report.notes
    assert len(report.notes) == 8  # (3,0),(5,0),(7,0),(9,0) and mirrored


def test_jobs_do_not_change_results():
    # A three-way split, run chunk by chunk in this process and merged as
    # run_verify merges its workers' results; no pool is started.
    cases = [(name, *SMALL[name]) for name, spec in PROPERTIES.items() if spec.parallel]
    cases.append(("denominators", 16, 16))
    for name, max_r, max_s in cases:
        chunks = plan_chunks(max_r, 3, cpus=3)
        assert len(chunks) == 3
        runner = PROPERTIES[name].runner
        merged = merge_results(runner(max_r, max_s, rows) for rows in chunks)
        solo = run_verify(name, max_r, max_s, jobs=1)
        assert merged == (solo.instances, list(solo.failures), list(solo.notes)), name


def test_merge_results_sums_and_sorts():
    parts = [(2, ["b"], ["y"]), (0, [], []), (3, ["a", "c"], ["x"])]
    assert merge_results(parts) == (5, ["a", "b", "c"], ["x", "y"])
    assert merge_results([]) == (0, [], [])


@pytest.mark.parametrize("name", sorted(n for n, spec in PROPERTIES.items() if spec.parallel))
def test_two_jobs_match_one(name, monkeypatch):
    # the SMALL ranges lie below every crossover: lower it, so the pool really runs
    monkeypatch.setitem(PROPERTIES, name, PROPERTIES[name]._replace(pool_from=0))
    solo = run_verify(name, *SMALL[name], jobs=1)
    split = run_verify(name, *SMALL[name], jobs=2)
    assert (solo.instances, solo.failures, solo.notes) == (
        split.instances,
        split.failures,
        split.notes,
    )


def test_plan_chunks_deals_rows_round_robin():
    for max_r in range(6):
        for jobs in range(1, 5):
            expected = [list(range(k, max_r + 1, jobs)) for k in range(jobs)]
            assert plan_chunks(max_r, jobs, cpus=4) == [c for c in expected if c]


def test_plan_chunks_clamps_absurd_jobs_to_cpus():
    chunks = plan_chunks(80, 10**9, cpus=2)
    assert chunks == [list(range(0, 81, 2)), list(range(1, 81, 2))]
    assert plan_chunks(80, 10**9, cpus=1) == [list(range(81))]


def test_denom_divisibility_parts_at_desk_scale():
    report = run_verify("denom-divisibility", 16, 16)
    assert report.ok
    assert report.failures == ()
    counts = {}
    for note in report.notes:
        part, _, rest = note.partition(": ")
        counts[part] = int(rest.removesuffix(" checks"))
    assert report.instances == sum(counts.values())
    assert set(counts) == {
        "symmetry",
        "row0-classical",
        "row1-closed-form",
        "odd-for-rank2+",
        "three-divides",
        "even-rank-forced-primes",
        "squarefree-bounded",
        "unit-exceptions",
    }
    assert all(count > 0 for count in counts.values())


def test_report_text_and_payload():
    report = run_verify("reciprocity", 6, 6)
    text = report_text(report)
    assert text.startswith("reciprocity: r <= 6, s <= 6: 49 instances, 0 failures")
    assert text.rstrip().endswith("PASS")
    payload = report_payload(report)
    assert payload["property"] == "reciprocity"
    assert payload["pass"] is True
    assert payload["failures"] == []
    assert list(payload) == [
        "property",
        "max_r",
        "max_s",
        "instances",
        "failures",
        "notes",
        "pass",
        "timing",
    ]
    assert list(payload["timing"]) == ["wall_ms", "workers", *verify.BUILT]
    assert verify.BUILT == ("walk_rows", "walk_cells", "cache_capacity", "seeds", "sieves", "binomial_rows")
    assert isinstance(payload["timing"]["wall_ms"], int)
    # rows 0..6 of the triangle r + s <= 12 and of its mirror, the mirror's column walk of all 13 rows, B_0..B_12,
    # and one seed D * B_0..D * B_12, its D from one sieve; reciprocity reads no binomial row
    assert list(payload["timing"].values())[1:] == [1, 7 + 7 + 13, 70 + 70 + 91, 12, 1, 1, 0]


class InlinePool:
    """A ProcessPoolExecutor stand-in that runs each chunk here, at submit."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class NoPool:
    def __init__(self, max_workers):
        raise AssertionError("a process pool was started")


def test_default_ranges_stay_in_one_process(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name, spec in PROPERTIES.items():
        if spec.parallel:
            report = run_verify(name, spec.default_r, spec.default_s, jobs=2)
            assert (report.ok, report.workers) == (True, 1), name


def test_pool_starts_at_the_crossover(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = PROPERTIES["paths"]
    for pool_from, workers in ((121, 2), (122, 1)):  # 10 x 10 is 121 keys
        monkeypatch.setitem(PROPERTIES, "paths", spec._replace(pool_from=pool_from))
        report = run_verify("paths", 10, 10, jobs=2)
        assert (report.instances, report.workers) == (66, workers)  # the triangle r + s <= 10
        assert report_payload(report)["timing"]["workers"] == workers
    assert run_verify("paths", 10, 10, jobs=1).workers == 1


def test_unknown_property_raises():
    with pytest.raises(KeyError):
        run_verify("bogus", 5, 5)


@pytest.mark.parametrize("name", sorted(PROPERTIES))
@pytest.mark.parametrize("max_r, max_s", [(-1, 5), (5, -1), (-1, -1)])
def test_negative_bounds_raise_before_any_sweep(monkeypatch, name, max_r, max_s):
    def refuse(*args):
        raise AssertionError("a runner started")

    monkeypatch.setitem(PROPERTIES, name, PROPERTIES[name]._replace(runner=refuse, pool_from=0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(ValueError, match="non-negative"):
        run_verify(name, max_r, max_s, jobs=2)


def test_failures_are_reported_with_witnesses(monkeypatch):
    def fake_rows(seed):  # every D * B[r,s] read as r + 1
        return ([r + 1] * (len(seed) - r) for r in range(len(seed)))

    # the key order's own walk; the transposed keys come from exact_arith's mirror walk, left right
    monkeypatch.setattr(umbral, "_triangle_rows", fake_rows)
    report = PROPERTIES["reciprocity"].runner(3, 3, range(4))
    instances, failures, _notes = report
    assert instances == 16
    assert failures
    assert any("(r=0, s=1)" in f for f in failures)
    # D * B[1,0] rebuilt from the mirror walk's (-1)^(0+1) * D * B[1,0], over D = 2 * 3 * 5 * 7
    assert "(r=0, s=1): 1/210 vs 1/2" in failures


def test_poly_reciprocity_failure_names_a_witness(monkeypatch):
    def wrong_polynomial(rows, comb_r, comb_s, d):
        return [len(comb_r), 0, 1]  # r + 1

    monkeypatch.setattr(umbral, "_scaled_polynomial", wrong_polynomial)
    instances, failures, _notes = PROPERTIES["poly-reciprocity"].runner(3, 3, range(4))
    assert instances == 16
    # [x^0]: (-1)^0 * 1/D against (-1)^1 * 2/D, over D = 2 * 3 * 5 * 7
    assert "(r=0, s=1): [x^0] 1/210 in B[0,1](x) vs 1/105 in B[1,0](x)" in failures


def test_denominators_evaluate_each_ordered_key_twice(monkeypatch):
    real, calls = denom._denom_formula, []

    def counted(r, s, primes):  # F(2, 7) wrong, F(7, 2) right
        calls.append((r, s))
        value = real(r, s, primes).value
        return SimpleNamespace(value=3 * value if (r, s) == (2, 7) else value)

    monkeypatch.setattr(denom, "_denom_formula", counted)
    instances, failures, _notes = PROPERTIES["denominators"].runner(10, 10, range(11))
    assert instances == 121
    # no memo: F(r, s) at its own key and again as the mirror of the key (s, r)
    assert len(calls) == 242 and len(set(calls)) == 121
    assert all(calls.count(key) == 2 for key in set(calls))
    # the symmetry check still compares the two keys computed apart, from both sides
    assert sorted(f.split(":")[0] for f in failures if f.endswith("formula not symmetric")) == [
        "(r=2, s=7)",
        "(r=7, s=2)",
    ]
    exact = real(2, 7, [2, 3, 5, 7]).value
    assert [f for f in failures if "!= exact" in f] == [f"(r=2, s=7): formula {3 * exact} != exact {exact}"]


def test_poly_reciprocity_computes_each_ordered_key_once(monkeypatch):
    real, calls = umbral._scaled_polynomial, []

    def counted(rows, comb_r, comb_s, d):
        calls.append((len(comb_r) - 1, len(comb_s) - 1))
        return real(rows, comb_r, comb_s, d)

    monkeypatch.setattr(umbral, "_scaled_polynomial", counted)
    runner = PROPERTIES["poly-reciprocity"].runner
    # at 5 x 8: the 54 keys, and the mirrors (s, r) of the 18 keys with s > 5, each made once
    for max_r, max_s, made in ((8, 8, 81), (5, 8, 54 + 18)):
        instances = (max_r + 1) * (max_s + 1)
        calls.clear()
        assert runner(max_r, max_s, range(max_r + 1)) == (instances, [], [])
        assert len(calls) == len(set(calls)) == made
        solo, calls[:] = set(calls), []
        # split three ways, a pair whose ranks fall in two chunks is still made once
        chunks = plan_chunks(max_r, 3, cpus=3)
        assert merge_results(runner(max_r, max_s, rows) for rows in chunks) == (instances, [], [])
        assert len(calls) == len(set(calls)) == made and set(calls) == solo


class _Polynomial(list):
    __hash__ = object.__hash__  # by identity, so that a WeakSet can hold it


@pytest.mark.parametrize("max_r, max_s", [(8, 8), (5, 8), (8, 5)])
def test_poly_reciprocity_holds_at_most_four_polynomials(monkeypatch, max_r, max_s):
    # each pair of keys is made, compared and dropped: no polynomial is kept for later
    real, alive, counts = umbral._scaled_polynomial, weakref.WeakSet(), []

    def tracked(rows, comb_r, comb_s, d):
        counts.append(len(alive))
        polynomial = _Polynomial(real(rows, comb_r, comb_s, d))
        alive.add(polynomial)
        return polynomial

    monkeypatch.setattr(umbral, "_scaled_polynomial", tracked)
    instances = (max_r + 1) * (max_s + 1)
    assert PROPERTIES["poly-reciprocity"].runner(max_r, max_s, range(max_r + 1)) == (instances, [], [])
    assert counts and max(counts) <= 4, max(counts)


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_a_sweep_builds_at_most_one_bernoulli_cache(name):
    # a non-square range: reciprocity and poly-reciprocity read both key orders from one cache of B_0..B_15
    report = run_verify(name, 6, 9)
    assert report.ok and dict(zip(verify.BUILT, report.built))["cache_capacity"] <= 6 + 9, report.built


@pytest.mark.parametrize("name", ["denominators", "integrality", "reciprocity", "psi-congruences", "denom-divisibility"])
def test_streamed_sweeps_hold_no_whole_rectangle(name):
    # the table rows, every prime's psi and the transposed keys' mirror rows all come from
    # walks held one row at a time (psi-congruences keeps p rows for its rank periodicity)
    runner = PROPERTIES[name].runner
    runner(4, 4, range(5))  # imports outside the trace
    tracemalloc.start()
    try:
        assert runner(120, 120, range(121))[1] == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.2-0.35 MB; held whole, per-prime psi tables take about 3 MB, both key orders of
    # D * B[r,s] 1.9 MB and psi-congruences' tables 1.3 MB, every denominator 0.75 MB
    assert peak < 600_000, peak


def test_a_denominators_chunk_reduces_only_its_own_ranks(monkeypatch):
    real, calls = exact_arith._lowest_terms, []

    def counted(x, d):
        calls.append(x)
        return real(x, d)

    monkeypatch.setattr(exact_arith, "_lowest_terms", counted)
    even = plan_chunks(10, 2, cpus=2)[0]
    assert PROPERTIES["denominators"].runner(10, 10, even) == (66, [], [])
    assert len(calls) == 66  # ranks 0, 2, .., 10: not one gcd for the 5 rows the chunk skips


def test_runners_are_always_given_their_ranks(monkeypatch):
    seen = []
    for name, spec in list(PROPERTIES.items()):

        def spy(max_r, max_s, rows, runner=spec.runner):
            seen.append(rows)
            return runner(max_r, max_s, rows)

        monkeypatch.setitem(PROPERTIES, name, spec._replace(runner=spy, pool_from=0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name in PROPERTIES:
        max_r, max_s = SMALL[name]
        for jobs in (1, 2):
            seen.clear()
            assert run_verify(name, max_r, max_s, jobs=jobs).ok
            assert None not in seen, name
            assert sorted(r for rows in seen for r in rows) == list(range(max_r + 1)), name


WITNESS = re.compile(r"\(r=\d+, s=\d+\)")


def _solo_and_split(name, max_r, max_s):
    """The report at --jobs 1, and the runner's results over a 3-way split, merged."""
    solo = run_verify(name, max_r, max_s, jobs=1)
    runner = PROPERTIES[name].runner
    merged = merge_results(runner(max_r, max_s, rows) for rows in plan_chunks(max_r, 3, cpus=3))
    assert merged == (solo.instances, list(solo.failures), list(solo.notes)), name
    return solo


def _psi_seeds(count, n):
    """The seeds chi_p(0..n) of the first `count` of the primes 2, 3, 5."""
    return [denom._psi_sum_seed((p,), n)[1] for p in (2, 3, 5)[:count]]


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize(("max_r", "max_s"), [(6, 6), (4, 9), (9, 4)])
def test_walk_matches_the_explicit_frame(max_r, max_s, count, mirror):
    for n in (max_r + max_s, max(max_r, max_s)):  # the five sums' triangle, and paths' r + s <= bound
        cache = bernoulli.BernoulliCache(n)
        d, seed = umbral._scaled_bernoulli(cache, n)
        for rows in [range(max_r + 1), *plan_chunks(max_r, 3, cpus=3)]:
            mirrored = [exact_arith._mirror_rows(seed)] if mirror else []
            beside = map(exact_arith._triangle_rows, _psi_seeds(count, n))
            frame = zip(range(max_r + 1), umbral._triangle_rows(seed), *mirrored, *beside)
            expected = [step for step in frame if step[0] in rows]
            got_d, got_seed, steps = umbral._walk(cache, n, rows, *_psi_seeds(count, n), mirror=mirror)
            assert (got_d, got_seed, list(steps)) == (d, seed, expected), (n, list(rows))


@pytest.mark.parametrize("mirror", [False, True])
def test_walk_makes_no_row_past_its_last_rank(mirror):
    seeds = {tag: [tag] * 21 for tag in (1, 2, 3)}  # row r of a seed's triangle is [tag * 2^r] * (21 - r)
    cache = bernoulli.BernoulliCache(20)
    for rows in plan_chunks(10, 3, cpus=3):  # [0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8]: each skips ranks
        exact_arith._TALLY.clear()
        steps = list(umbral._walk(cache, 20, rows, *seeds.values(), mirror=mirror)[2])
        assert [step[0] for step in steps] == rows
        assert all(list(step[-3:]) == [[tag * 2 ** step[0]] * (21 - step[0]) for tag in seeds] for step in steps)
        # D * B, [its mirror,] the three beside seeds to the last rank; and the mirror's column, a whole walk
        walks, last = 4 + mirror, max(rows)
        assert exact_arith._TALLY["walk_rows"] == walks * (last + 1) + 21 * mirror
        assert exact_arith._TALLY["walk_cells"] == walks * sum(21 - r for r in range(last + 1)) + 231 * mirror


@pytest.mark.parametrize(("max_r", "ranks"), [(1, []), (2, [2]), (10, list(range(2, 11)))])
def test_integrality_walks_only_the_ranks_it_checks(max_r, ranks):
    # four triangles over r + s <= n (D * B, the psi sums, psi(2), psi(3)), each walked to the last rank checked
    # from its one seed; the sweep sieves the primes <= n + 1 for the psi sums, and D sieves them again
    report = run_verify("integrality", max_r, 30)
    assert report.ok and report.instances == len(ranks) * 29
    n, last = max_r + 30, max(ranks, default=-1)  # a --max-r 1 run builds nothing at all
    walked = (4 * (last + 1), 4 * sum(n + 1 - r for r in range(last + 1)), n, 4, 2, 0)
    assert report.built == (walked if ranks else (0,) * len(verify.BUILT))


@pytest.mark.parametrize(("max_r", "max_s"), [(1, 1200), (5, 1)])
def test_integrality_builds_nothing_when_it_checks_no_key(max_r, max_s):
    report = run_verify("integrality", max_r, max_s)
    assert (report.ok, report.instances, report.built) == (True, 0, (0,) * len(verify.BUILT))


# the runners that read D * B[r,s] through umbral._walk; the psi and classical sweeps keep their own walks
WALKED = {
    "reciprocity", "antidiagonal", "paths", "poly-reciprocity", "nonvanishing",
    "denominators", "integrality", "denom-divisibility",
}

# The report's built counts (walk rows, walk cells, cache capacity, seeds, sieves, binomial rows) at each
# default range: in one process, and summed over a 3-way split.  A second walk, cache, seed, sieve or Pascal
# walk (a whole BsTable beside the walk, a mirror from its own seed), a walk past the last rank or an oversized
# cache moves one.  Runners that ignore their ranks (antidiagonal, the psi and classical sweeps) build it all
# in each chunk, which is why run_verify never splits them; paths and poly-reciprocity read binomial rows of
# every order at any rank, so each chunk makes them all.
BUILT_AT_DEFAULTS = {
    "antidiagonal": ((101, 5151, 100, 1, 1, 0), (303, 15453, 300, 3, 3, 0)),
    "denom-divisibility": ((163, 8323, 80, 1, 2, 0), (483, 24721, 240, 3, 6, 0)),
    "denominators": ((162, 19602, 160, 2, 2, 0), (480, 58318, 480, 6, 6, 0)),
    "hermite-stern": ((0, 0, 0, 0, 1, 201), (0, 0, 0, 0, 3, 603)),
    "integrality": ((324, 39204, 160, 4, 2, 0), (960, 116636, 480, 12, 6, 0)),
    "nonvanishing": ((61, 5551, 120, 1, 1, 0), (180, 16469, 360, 3, 3, 0)),
    "paths": ((81, 3321, 80, 1, 1, 81), (240, 9959, 240, 3, 3, 243)),
    "poly-reciprocity": ((26, 1001, 50, 1, 1, 26), (78, 3003, 150, 3, 3, 78)),
    "psi-congruences": ((2673, 203313, 0, 11, 1, 0), (8019, 609939, 0, 33, 3, 0)),
    "psi-matrix": ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 3, 0)),
    "reciprocity": ((323, 32643, 160, 1, 1, 0), (963, 97441, 480, 3, 3, 0)),
    "staudt-clausen": ((0, 0, 200, 0, 0, 0), (0, 0, 600, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_the_table_sweeps_walk_once_per_call(monkeypatch, name):
    spec = PROPERTIES[name]
    # the split runs after the solo in this process: the solo's tally must not show in it
    solo = run_verify(name, spec.default_r, spec.default_s)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setitem(PROPERTIES, name, spec._replace(parallel=True, pool_from=0))
    split = run_verify(name, spec.default_r, spec.default_s, jobs=3)
    assert (solo.ok, split.ok, split.workers) == (True, True, 3)
    assert (solo.built, split.built) == BUILT_AT_DEFAULTS[name]


def test_pooled_workers_built_counts_are_summed(monkeypatch):
    # three real worker processes: each clears and reads its own tally, and run_verify adds them up
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setitem(PROPERTIES, "denominators", PROPERTIES["denominators"]._replace(pool_from=0))
    report = run_verify("denominators", 80, 80, jobs=3)
    assert (report.ok, report.workers, report.built) == (True, 3, BUILT_AT_DEFAULTS["denominators"][1])


# the library's readers of the table, each with the walk (n, ranks) it should make
LIBRARY_READERS = {
    **{
        f"table-{fmt}": (lambda fmt=fmt: cli.main(["table", "12", "9", "--format", fmt]), 21, range(13))
        for fmt in FORMATS
    },
    "table-denoms": (lambda: cli.main(["table", "12", "9", "--denoms"]), 21, range(13)),
    "value-poly": (lambda: cli.main(["value", "7", "5", "--poly"]), 12, range(8)),
    "bs_table_recursive": (lambda: umbral.bs_table_recursive(bernoulli.BernoulliCache(21), 12, 9), 21, range(13)),
    "antidiagonal_sums": (lambda: umbral.antidiagonal_sums(bernoulli.BernoulliCache(21), 21), 21, range(22)),
}


@pytest.mark.parametrize("reader", sorted(LIBRARY_READERS))
def test_the_library_readers_walk_once(capsys, reader):
    read, n, ranks = LIBRARY_READERS[reader]
    exact_arith._TALLY.clear()
    read()
    # one walk of D * B over r + s <= n to its last rank, with no mirror or beside walk, from one seed and sieve
    built = [exact_arith._TALLY[key] for key in ("walk_rows", "walk_cells", "seeds", "sieves")]
    assert built == [len(ranks), sum(n + 1 - r for r in ranks), 1, 1]


def test_every_walk_of_the_table_is_umbral_walk(monkeypatch, capsys):
    real, callers = umbral._triangle_rows, []

    def spy(seed):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(seed)

    monkeypatch.setattr(umbral, "_triangle_rows", spy)
    for read, _, _ in LIBRARY_READERS.values():
        read()
    for name in sorted(WALKED):
        assert run_verify(name, *SMALL[name]).ok, name
    assert callers == ["_walk"] * (len(LIBRARY_READERS) + len(WALKED))  # one walk of D * B[r,s] each


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_every_lockstep_walk_is_exact_arith_lockstep(monkeypatch, name):
    real, widths = exact_arith._lockstep, []

    def spy(ranks, *walks):
        widths.append(len(walks))
        return real(ranks, *walks)

    monkeypatch.setattr(exact_arith, "_lockstep", spy)
    assert run_verify(name, *SMALL[name]).ok
    if name == "psi-congruences":  # a triangle and its mirror for each prime 3..11
        assert widths == [2] * 4
    else:
        assert len(widths) == (name in WALKED)


def _edit_triangle(monkeypatch, r, s, value):
    """Every triangle umbral streams has D * B[r,s] replaced by value(D * B[r,s]).

    That is the triangle umbral._walk streams to the table, the library routes
    and the eight table sweeps.  The edited row is a copy, so the rows made
    after it are right.
    """
    real = umbral._triangle_rows

    def edited(seed):
        for i, row in enumerate(real(seed)):
            yield [*row[:s], value(row[s]), *row[s + 1 :]] if i == r else row

    monkeypatch.setattr(umbral, "_triangle_rows", edited)


@pytest.mark.parametrize("name", ["paths", "integrality", "denominators"])
def test_one_wrong_table_entry_is_named(monkeypatch, name):
    _edit_triangle(monkeypatch, 5, 4, lambda x: x + 1)
    solo = _solo_and_split(name, 10, 10)
    assert solo.failures
    assert all("(r=5, s=4)" in f for f in solo.failures), solo.failures


def test_nonvanishing_names_a_lost_and_a_stray_zero(monkeypatch):
    _edit_triangle(monkeypatch, 5, 4, lambda x: 0)
    assert run_verify("nonvanishing", 10, 10).failures == ("(r=5, s=4): unexpected zero",)
    monkeypatch.undo()
    _edit_triangle(monkeypatch, 3, 0, lambda x: 1)  # D * B[3,0] = 1: B[3,0] = 1/D
    d = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19  # the primes <= 21
    report = run_verify("nonvanishing", 10, 10)
    assert report.failures == (f"(r=3, s=0): expected 0, got {Fraction(1, d)}",)
    assert "zero at (r=3, s=0)" not in report.notes


@pytest.mark.parametrize("name", ["integrality", "denominators", "psi-congruences"])
def test_one_wrong_psi_seed_is_named(monkeypatch, name):
    real = denom._psi_sum_seed

    def flipped(primes, n):  # chi_7(12) = 1 read as 0
        big, seed = real(primes, n)
        if 7 in primes and n >= 12:
            seed[12] -= big // 7
        return big, seed

    monkeypatch.setattr(denom, "_psi_sum_seed", flipped)
    if PROPERTIES[name].parallel:
        report = _solo_and_split(name, 10, 10)
    else:
        report = run_verify(name, 10, 10)
    assert report.failures
    assert all(WITNESS.search(f) for f in report.failures), report.failures


@pytest.mark.parametrize("r, s", [(1, 2), (2, 4), (4, 5)])  # above, on and below the anti-diagonal
def test_one_wrong_psi_matrix_entry_is_named(monkeypatch, r, s):
    real = denom._psi_value

    def bumped(r2, s2, p):  # psi(r, s, 7) off by one
        return real(r2, s2, p) + ((r2, s2, p) == (r, s, 7))

    monkeypatch.setattr(denom, "_psi_value", bumped)
    expected = comb(r, 6 - s)
    witness = f"psi matrix p=7: entry ({r},{s}) is {expected + 1}, expected C({r},{6 - s}) = {expected}"
    with pytest.raises(InvariantViolation, match=re.escape(witness)):
        denom.psi_matrix(7)
    report = run_verify("psi-matrix", 7, 7)
    assert report.instances == 3 * 3 + 5 * 5  # p = 5 passes, p = 7 fails at its first bad entry
    assert len(report.failures) == 1 and report.failures[0].startswith(witness), report.failures


def _one_wrong_binomial(monkeypatch, order, index):
    """The table sweeps' Pascal walks yield C(order, index) off by one; every row after it is still made right."""
    real = exact_arith._pascal_rows

    def wrong(n):
        for m, row in enumerate(real(n)):
            yield row[:index] + (row[index] + 1,) + row[index + 1 :] if m == order else row

    monkeypatch.setattr("bernshift.table_sweeps._pascal_rows", wrong)


def test_one_wrong_binomial_row_fails_paths_at_its_rank(monkeypatch):
    # the defining sum and both difference forms read rows; the table does not
    _one_wrong_binomial(monkeypatch, 7, 3)
    solo = _solo_and_split("paths", 10, 10)
    keys = [tuple(map(int, re.search(r"\(r=(\d+), s=(\d+)\)", f).groups())) for f in solo.failures]
    assert any(r == 7 for r, _ in keys), solo.failures
    assert all(7 in key for key in keys), solo.failures


def test_one_wrong_binomial_row_fails_hermite_stern_at_its_m(monkeypatch):
    # C(12, 6) + 1 in the row the residues read: the sums over multiples of 1, 2 and 6 move,
    # so p = 2, 3 and 7 fail
    real = exact_arith._hermite_stern_residue

    def wrong(row, p):
        return real([*row[:6], row[6] + 1, *row[7:]] if len(row) == 13 else row, p)

    monkeypatch.setattr(exact_arith, "_hermite_stern_residue", wrong)
    solo = _solo_and_split("hermite-stern", *SMALL["hermite-stern"])
    assert [f.split(":")[0] for f in solo.failures] == ["(m=12, p=2)", "(m=12, p=3)", "(m=12, p=7)"]


def test_hermite_stern_walks_pascals_rule_past_the_kept_rows(monkeypatch):
    # the sweep makes its rows by additions, one walk to order 450: no math.comb call, and no row made twice
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(exact_arith, "comb", counted)
    report = run_verify("hermite-stern", 450, 31)
    assert (report.ok, report.instances) == (True, 450 * 11)  # 11 primes <= 31
    assert calls == [] and dict(zip(verify.BUILT, report.built))["binomial_rows"] == 451


def test_paths_makes_each_pascal_row_once():
    # one Pascal walk to the largest order read, here 410: no row is made twice, however high the order
    report = run_verify("paths", 410, 0)
    assert report.ok and dict(zip(verify.BUILT, report.built))["binomial_rows"] == 411


def test_paths_builds_one_cache_and_one_seed_at_the_size_it_checks():
    # the keys checked have r + s <= max(max_r, max_s), so no B_n past that is needed
    for max_r, max_s in ((6, 9), (10, 10), (9, 4)):
        report = run_verify("paths", max_r, max_s)
        bound = max(max_r, max_s)
        walked = (max_r + 1, sum(bound + 1 - r for r in range(max_r + 1)), bound, 1, 1, bound + 1)
        assert report.ok and report.built == walked


def test_denom_divisibility_names_a_square_factor_and_a_large_prime(monkeypatch):
    # 25 puts a square factor in denom(B[5,6]); 11 is a prime above r + s + 1 = 8 at (2, 5)
    table = umbral.bs_table_recursive(bernoulli.BernoulliCache(22), 10, 10)
    factors = {table.scaled[5][6]: 25, table.scaled[2][5]: 11}  # keyed by D * B[r,s], so by value:
    values = [x for row in table.scaled for x in row]
    assert all(values.count(x) == 1 for x in factors)  # these two occur once in the rectangle
    real = exact_arith._lowest_terms

    def edited(x, d):  # at (r, s) the mirror walk gives (-1)^(r+s) * D * B[s,r], which is D * B[r,s] again
        numerator, denominator = real(x, d)
        return numerator, denominator * factors.get(x, 1)

    monkeypatch.setattr(exact_arith, "_lowest_terms", edited)
    report = run_verify("denom-divisibility", 10, 10)
    assert report.instances == PINNED["denom-divisibility"][0]
    assert [f for f in report.failures if f.startswith("squarefree-bounded")] == [
        f"squarefree-bounded at (r=2, s=5): {11 * table[2, 5].denominator} has a square factor or a prime factor > 8",
        f"squarefree-bounded at (r=5, s=6): {25 * table[5, 6].denominator} has a square factor or a prime factor > 12",
    ]
    assert not [f for f in report.failures if f.startswith("symmetry")]  # both orders read the edit


def test_a_one_prime_slip_in_the_residue_test_is_named(monkeypatch):
    # the inline test with p = 7's bound one too low: 7 is wrongly counted where
    # (r - 1) % 6 + (s - 1) % 6 == 3 and 7 <= r + s + 1
    source = textwrap.dedent(inspect.getsource(denom._denom_formula))
    slipped = source.replace(">= p - 3", ">= p - 3 - (p == 7)")
    assert slipped != source
    namespace = dict(vars(denom))
    exec(compile(slipped, denom.__file__, "exec"), namespace)
    monkeypatch.setattr(denom, "_denom_formula", namespace["_denom_formula"])
    solo = _solo_and_split("denominators", 10, 10)
    expected = {
        f"(r={r}, s={s})"
        for r in range(1, 11)
        for s in range(1, 11)
        if r + s + 1 >= 7 and (r - 1) % 6 + (s - 1) % 6 == 3
    }
    assert expected
    assert {f.split(":")[0] for f in solo.failures} == expected
    assert all(" != exact " in f for f in solo.failures), solo.failures


def test_default_sweeps_pass_with_benchmark_counts(workloads):
    assert set(workloads.PROPERTY_INSTANCES) == set(PROPERTIES)
    for name, prop in PROPERTIES.items():
        report = run_verify(name, prop.default_r, prop.default_s, jobs=1)
        assert report.ok, (name, report.failures[:3])
        assert report.instances == workloads.PROPERTY_INSTANCES[name], name


def test_report_text_shows_failures():
    report = VerifyReport(
        property_name="reciprocity",
        max_r=1,
        max_s=1,
        instances=4,
        failures=("(r=0, s=1): 1 vs 2",),
        notes=("context",),
        seconds=0.5,
    )
    assert not report.ok
    text = report_text(report)
    assert "FAIL (r=0, s=1): 1 vs 2" in text
    assert "note: context" in text
    assert report_payload(report)["pass"] is False


def test_defaults_are_positive():
    for spec in PROPERTIES.values():
        assert spec.default_r >= 1
        assert spec.default_s >= 1
