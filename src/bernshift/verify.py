"""Exhaustive property sweeps over index rectangles, reported pass/fail.

Each property is swept over an explicit range and every failing instance is
recorded with its witness key, so a report either certifies the range or
names a counterexample.  Sweeps are pure; the parallel path partitions rows
across worker processes and merges, with results independent of the split.

This module holds the registry, the split and merge, and the reports.  The
runners live in three modules, by the layer they read: table_sweeps,
denom_sweeps and psi_sweeps.  A runner in PROPERTIES imports its module at
its first call, so a request compiles only its own sweep's module; the
runner then imports the layers it reads when it runs, so the psi sweeps
load no Bernoulli number, and the table sweeps that use no psi do not load
denom.  Every sweep compares integers, and words a failure from integers
by exact_arith._quotient_text, so no sweep loads fractions.
"""

from __future__ import annotations

import os
from importlib import import_module
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import WorkerDied
from .exact_arith import _TALLY

SweepResult = tuple[int, list[str], list[str]]  # instances, failures, notes
BUILT = ("walk_rows", "walk_cells", "cache_capacity", "seeds", "sieves", "binomial_rows")  # the _TALLY counts reported


class VerifyReport(NamedTuple):
    property_name: str
    max_r: int
    max_s: int
    instances: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]
    seconds: float
    workers: int = 1  # processes the sweep ran in: 1 when it stayed in this one
    built: tuple[int, ...] = (0,) * len(BUILT)  # the BUILT counts, summed over those processes

    @property
    def ok(self) -> bool:
        return not self.failures


def _exceptional_zero(r: int, s: int) -> bool:
    """The keys where B[r,s] = 0: (n, 0) and (0, n) with odd n >= 3."""
    return (s == 0 and r >= 3 and r % 2 == 1) or (r == 0 and s >= 3 and s % 2 == 1)


def _lazy(module: str, name: str) -> Callable[[int, int, Sequence[int]], SweepResult]:
    """A runner that calls `name` in the sweep module `module`, importing it at the first call."""

    def runner(max_r: int, max_s: int, rows: Sequence[int]) -> SweepResult:
        return getattr(import_module(f"{__package__}.{module}"), name)(max_r, max_s, rows)

    return runner


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
    "reciprocity": PropertySpec(_lazy("table_sweeps", "_sweep_reciprocity"), False, 80, 80),
    "antidiagonal": PropertySpec(_lazy("table_sweeps", "_sweep_antidiagonal"), False, 50, 50),
    "paths": PropertySpec(
        _lazy("table_sweeps", "_sweep_paths"), True, 80, 80,
        pool_from=101 * 101,  # from 100 x 100
    ),
    "poly-reciprocity": PropertySpec(
        _lazy("table_sweeps", "_sweep_poly_reciprocity"), True, 25, 25,
        pool_from=46 * 46,  # from 45 x 45
    ),
    "nonvanishing": PropertySpec(_lazy("table_sweeps", "_sweep_nonvanishing"), False, 60, 60),
    "denominators": PropertySpec(
        _lazy("denom_sweeps", "_sweep_denominators"), True, 80, 80,
        pool_from=96 * 96,  # from 95 x 95
    ),
    "integrality": PropertySpec(
        _lazy("denom_sweeps", "_sweep_integrality"), True, 80, 80,
        pool_from=206 * 206,  # from 205 x 205
    ),
    "psi-matrix": PropertySpec(_lazy("psi_sweeps", "_sweep_psi_matrix"), False, 19, 19),
    "psi-congruences": PropertySpec(_lazy("psi_sweeps", "_sweep_psi_congruences"), False, 60, 60),
    "hermite-stern": PropertySpec(_lazy("psi_sweeps", "_sweep_hermite_stern"), False, 200, 31),
    "staudt-clausen": PropertySpec(_lazy("psi_sweeps", "_sweep_staudt_clausen"), False, 200, 200),
    "denom-divisibility": PropertySpec(_lazy("denom_sweeps", "_sweep_denom_divisibility"), False, 40, 40),
}


def _chunk_worker(name: str, max_r: int, max_s: int, rows: Sequence[int]) -> tuple[SweepResult, tuple[int, ...]]:
    _TALLY.clear()
    return PROPERTIES[name].runner(max_r, max_s, rows), tuple(_TALLY[key] for key in BUILT)


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
    A negative bound raises ValueError before any sweep runs.
    """
    spec = PROPERTIES[name]
    if max_r < 0 or max_s < 0:
        raise ValueError("verify bounds must be non-negative")
    start = perf_counter()
    pays = spec.parallel and (max_r + 1) * (max_s + 1) >= spec.pool_from
    chunks = plan_chunks(max_r, jobs, os.cpu_count() or 1) if pays else []
    workers = max(1, len(chunks))
    if workers == 1:
        parts = [_chunk_worker(name, max_r, max_s, range(max_r + 1))]
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
    instances, failures, notes = merge_results(result for result, _ in parts)
    return VerifyReport(
        property_name=name,
        max_r=max_r,
        max_s=max_s,
        instances=instances,
        failures=tuple(failures),
        notes=tuple(notes),
        seconds=perf_counter() - start,
        workers=workers,
        built=tuple(map(sum, zip(*(built for _, built in parts)))),
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
        "timing": {"wall_ms": int(report.seconds * 1000), "workers": report.workers}
        | dict(zip(BUILT, report.built)),
    }
