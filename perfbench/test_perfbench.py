"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bernshift import PROPERTIES, psi, umbral  # noqa: E402


@pytest.mark.parametrize(
    "n, q", [(1, None), (12, None), (19, None), (20, 50), (40, 75), (50, 80), (100, 90), (1000, 99)]
)
def test_tail_percentile_examples(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_is_the_highest_with_ten_beyond():
    def beyond(n, q):
        return n - -(-q * n // 100)  # samples above the nearest-rank q-th percentile

    for n in range(20, 3000):
        q = run.tail_percentile(n)
        assert beyond(n, q) >= 10
        assert q == 99 or beyond(n, q + 1) < 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 80) == 8
    assert run.percentile(values, 100) == 10
    assert run.percentile(values, 1) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    for index in range(3):
        first = workloads.block(name, 7, index)
        assert first == workloads.block(name, 7, index)
        assert len(first) == workloads.WORKLOADS[name].block_size


@pytest.mark.parametrize("name", ["cli", "deep"])
def test_seed_changes_arguments_but_not_the_mix(name):
    a, b = workloads.block(name, 1, 0), workloads.block(name, 2, 0)
    assert a != b
    assert sorted(r.kind for r in a) == sorted(r.kind for r in b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deep_block_covers_both_ends_of_each_range(seed):
    reqs = workloads.block("deep", seed, 0)
    sums = [int(r.argv[1]) + int(r.argv[2]) for r in reqs if r.kind == "value"]
    sizes = [int(r.argv[1]) for r in reqs if r.kind == "table-csv"]
    assert min(sums) == 200 and max(sums) == 400 and len(set(sums)) == 20
    assert min(sizes) == 60 and max(sizes) == 160 and len(set(sizes)) == 20
    first = workloads.block("deep", 1, 0)
    assert sorted(sums) == sorted(int(r.argv[1]) + int(r.argv[2]) for r in first if r.kind == "value")


def test_large_p_requests_use_large_primes():
    reqs = [r for r in workloads.block("cli", 5, 0) if r.kind == "psi-large-p"]
    assert len(reqs) == 5
    for r in reqs:
        p = r.expect["p"]
        assert workloads.LARGE_P[0] <= p < workloads.LARGE_P[1] + 1000
        assert workloads.is_probable_prime(p)


def test_probable_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if workloads.is_probable_prime(n)] == [
        n for n in range(3000) if trial(n)
    ]
    assert not workloads.is_probable_prime(3215031751)  # strong pseudoprime to 2, 3, 5, 7


def test_pinned_counts_cover_every_property():
    assert set(workloads.PROPERTY_INSTANCES) == set(PROPERTIES)


@pytest.mark.parametrize("name", sorted(n for n, spec in PROPERTIES.items() if spec.parallel))
def test_chunk_replay_matches_jobs1_count(name):
    parts = tracing.replay_chunks(name, jobs=2)
    assert len(parts) == 2
    assert sum(part[0] for part in parts) == workloads.PROPERTY_INSTANCES[name]
    assert not any(part[1] for part in parts)


def test_chunk_rows_partition_the_rows():
    for max_r in range(6):
        for jobs in range(1, 4):
            rows = tracing.chunk_rows(max_r, jobs)
            assert sorted(r for chunk in rows for r in chunk) == list(range(max_r + 1))


def test_psi_reference_matches_library():
    for p in (2, 3, 5, 7, 11):
        for r in range(12):
            for s in range(12):
                assert workloads.psi_by_binomial_sum(r, s, p) == psi(r, s, p).value


@pytest.fixture(scope="module")
def ref():
    return workloads.Reference(160)


@pytest.mark.parametrize("name", ["cli", "deep"])
def test_checks_accept_the_real_responses(name, ref):
    reqs = workloads.block(name, 11, 0)
    if name == "deep":
        reqs = [r for r in reqs if int(r.argv[1]) + int(r.argv[2]) <= 160][:4]
    for req in reqs:
        code, out, err = tracing.call_main(req.argv)
        assert workloads.check(req, code, out, err, ref) is None, req


@pytest.mark.parametrize(
    "fmt, right, wrong",
    [
        ("plain", "2/15", "3/15"),
        ("csv", "2/15", "3/15"),
        ("json", '"den": 15', '"den": 16'),
        ("latex", "\\frac{2}{15}", "\\frac{3}{15}"),
    ],
)
def test_table_check_rejects_a_wrong_cell(fmt, right, wrong, ref):  # B[2,2] = 2/15
    req = workloads.Request(
        f"table-{fmt}", ("table", "4", "5", "--format", fmt), 10.0,
        {"max_r": 4, "max_s": 5, "fmt": fmt, "cells": [(2, 2)]},
    )
    code, out, err = tracing.call_main(req.argv)
    assert workloads.check(req, code, out, err, ref) is None
    tampered = out.replace(right, wrong, 1)
    assert tampered != out
    assert workloads.check(req, code, tampered, err, ref) is not None


def test_other_checks_reject_wrong_responses(ref):
    value = workloads.Request("value", ("value", "2", "2"), 10.0, {"r": 2, "s": 2})
    assert workloads.check(value, 0, "2/15\n", "", ref) is None
    assert workloads.check(value, 0, "1/15\n", "", ref) is not None
    assert workloads.check(value, None, "", "", ref) == "timed out"
    assert workloads.check(value, 1, "", "boom", ref) is not None
    poly = workloads.Request("value-poly", ("value", "1", "0", "--poly"), 10.0,
                             {"r": 1, "s": 0, "poly": True})
    assert workloads.check(poly, 0, "1/2, 1\n", "", ref) is None
    assert workloads.check(poly, 0, "-1/2, 1\n", "", ref) is not None
    denom = workloads.Request("denom", ("denom", "8", "8", "--factor"), 10.0, {"r": 8, "s": 8})
    assert workloads.check(denom, 0, "36465 = 3 * 5 * 11 * 13 * 17\n", "", ref) is None
    assert workloads.check(denom, 0, "36465 = 15 * 11 * 13 * 17\n", "", ref) is not None
    invalid = workloads.Request("invalid", ("psi", "3", "3", "4"), 10.0)
    assert workloads.check(invalid, 2, "", "error: p must be prime\n", ref) is None
    assert workloads.check(invalid, 0, "3\n", "", ref) is not None
    sweep = workloads.Request("verify", (), 60.0, {"property": "paths", "instances": 3321})
    good = '{"property": "paths", "instances": 3321, "failures": [], "pass": true}'
    assert workloads.check(sweep, 0, good, "", ref) is None
    assert workloads.check(sweep, 0, good.replace("3321", "3320"), "", ref) is not None


def test_tracer_records_nested_spans_and_restores_bindings():
    original = umbral.bs_direct
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert umbral.bs_direct is not original
        code, out, _ = tracing.call_main(["value", "3", "4"])
    finally:
        tracer.uninstall()
    assert umbral.bs_direct is original
    assert code == 0
    per_name, per_layer = tracer.summary()
    assert per_name["cli.main"][0] == 1
    assert per_name["umbral.bs_direct"][0] == 1
    assert per_name["bernoulli.cache_build"][0] == 1
    assert tracer.counters["bernoulli.cache_build.capacity_max"] == 9
    assert tracer.counters["render.bytes"] == len(out)
    main_calls, main_total, main_self = per_name["cli.main"]
    children = sum(v[1] for k, v in per_name.items() if k != "cli.main")
    assert main_self == pytest.approx(main_total - children, abs=1e-9)
    assert per_layer["cli"] == pytest.approx(main_total)
    tree = {row["path"]: row for row in tracer.call_tree()}
    assert tree["cli.main > umbral.bs_direct"]["calls"] == 1


def test_launcher_runs_and_times_out():
    with run.Launcher() as launcher:
        done = launcher.run([sys.executable, "-c", "print('hi'); import sys; sys.exit(3)"], 30.0)
        assert (done.code, done.out, done.err) == (3, "hi\n", "")
        assert done.maxrss_kb > 0 and 0 < done.seconds < 30
        hung = launcher.run([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
        assert hung.code is None
        assert 0.5 <= hung.seconds < 30


def test_speed_gauge_scales_by_the_trimmed_mean_and_by_neighbours():
    gauge = run.SpeedGauge()
    gauge.samples = [0.5, 0.02, 0.02, 0.02, 0.02, 0.01, 0.02, 0.02, 0.02, 0.02]
    assert gauge.mean() == pytest.approx(0.02)
    assert gauge.factor() == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.02)
    assert gauge.around(0) == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.26)
    assert gauge.around(4) == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.015)
    gauge.sample()
    assert len(gauge.samples) == 11 and gauge.samples[-1] > 0
