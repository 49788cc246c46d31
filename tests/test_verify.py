import concurrent.futures
import importlib.util
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bernshift.denom as denom
import bernshift.verify as verify
from bernshift.umbral import BsTable
from bernshift.verify import (
    PROPERTIES,
    VerifyReport,
    merge_results,
    plan_chunks,
    report_payload,
    report_text,
    run_verify,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

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
    assert list(payload["timing"]) == ["wall_ms", "workers"]
    assert isinstance(payload["timing"]["wall_ms"], int)
    assert payload["timing"]["workers"] == 1


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


def test_failures_are_reported_with_witnesses(monkeypatch):
    def fake_table(cache, max_r, max_s):
        rows = tuple(tuple(r + 1 for _ in range(max_s + 1)) for r in range(max_r + 1))
        return BsTable(max_r, max_s, 1, rows)

    monkeypatch.setattr(verify, "bs_table_recursive", fake_table)
    report = verify._sweep_reciprocity(3, 3, None)
    instances, failures, _notes = report
    assert instances == 16
    assert failures
    assert any("(r=0, s=1)" in f for f in failures)


def test_poly_reciprocity_failure_names_a_witness(monkeypatch):
    def wrong_polynomial(self, r, s):
        return [r + 1, 0, 1]

    monkeypatch.setattr(BsTable, "scaled_polynomial", wrong_polynomial)
    instances, failures, _notes = PROPERTIES["poly-reciprocity"].runner(3, 3, None)
    assert instances == 16
    # [x^0]: (-1)^0 * 1/D against (-1)^1 * 2/D, over D = 2 * 3 * 5 * 7
    assert "(r=0, s=1): [x^0] 1/210 in B[0,1](x) vs 1/105 in B[1,0](x)" in failures


def test_denominators_evaluate_each_ordered_key_once(monkeypatch):
    real, calls = verify._denom_formula, []

    def counted(r, s, primes):  # F(2, 7) wrong, F(7, 2) right
        calls.append((r, s))
        value = real(r, s, primes).value
        return SimpleNamespace(value=3 * value if (r, s) == (2, 7) else value)

    monkeypatch.setattr(verify, "_denom_formula", counted)
    instances, failures, _notes = verify._sweep_denominators(10, 10, None)
    assert instances == 121
    assert len(calls) == len(set(calls)) == 121
    # the symmetry check still compares the two keys computed apart, from both sides
    assert sorted(f.split(":")[0] for f in failures if f.endswith("formula not symmetric")) == [
        "(r=2, s=7)",
        "(r=7, s=2)",
    ]
    exact = real(2, 7, [2, 3, 5, 7]).value
    assert [f for f in failures if "!= exact" in f] == [f"(r=2, s=7): formula {3 * exact} != exact {exact}"]


def test_poly_reciprocity_computes_each_ordered_key_once(monkeypatch):
    real, calls = BsTable.scaled_polynomial, []

    def counted(self, r, s):
        calls.append((self.max_r, self.max_s, r, s))
        return real(self, r, s)

    monkeypatch.setattr(BsTable, "scaled_polynomial", counted)
    assert PROPERTIES["poly-reciprocity"].runner(8, 8, None) == (81, [], [])
    assert len(calls) == len(set(calls)) == 81
    calls.clear()
    assert PROPERTIES["poly-reciprocity"].runner(5, 8, None) == (54, [], [])
    assert len(calls) == len(set(calls)) == 2 * 54  # two tables, each key once


WITNESS = re.compile(r"\(r=\d+, s=\d+\)")


def _solo_and_split(name, max_r, max_s):
    """The report at --jobs 1, and the runner's results over a 3-way split, merged."""
    solo = run_verify(name, max_r, max_s, jobs=1)
    runner = PROPERTIES[name].runner
    merged = merge_results(runner(max_r, max_s, rows) for rows in plan_chunks(max_r, 3, cpus=3))
    assert merged == (solo.instances, list(solo.failures), list(solo.notes)), name
    return solo


@pytest.mark.parametrize("name", ["paths", "integrality", "denominators"])
def test_one_wrong_table_entry_is_named(monkeypatch, name):
    real = verify.bs_table_recursive

    def bumped(cache, max_r, max_s):  # D * B[5,4] off by one
        table = real(cache, max_r, max_s)
        rows = [list(row) for row in table.scaled]
        rows[5][4] += 1
        return BsTable(max_r, max_s, table.denominator, tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "bs_table_recursive", bumped)
    solo = _solo_and_split(name, 10, 10)
    assert solo.failures
    assert all("(r=5, s=4)" in f for f in solo.failures), solo.failures


@pytest.mark.parametrize("name", ["integrality", "denominators", "psi-congruences"])
def test_one_wrong_psi_seed_is_named(monkeypatch, name):
    real = denom._psi_seed

    def flipped(p, n):  # chi_7(12) = 1 read as 0
        seed = real(p, n)
        if p == 7 and n >= 12:
            seed[12] = 0
        return seed

    monkeypatch.setattr(denom, "_psi_seed", flipped)
    if PROPERTIES[name].parallel:
        report = _solo_and_split(name, 10, 10)
    else:
        report = run_verify(name, 10, 10)
    assert report.failures
    assert all(WITNESS.search(f) for f in report.failures), report.failures


def test_default_sweeps_pass_with_benchmark_counts(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up here
    spec.loader.exec_module(workloads)
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
        assert spec.description
