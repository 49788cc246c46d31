#!/usr/bin/env python3
"""Benchmark for the bernshift CLI.  Standard library only.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

It finds the package in ``src/`` beside this directory, and exits 2 without
printing a result when that is missing.

``--trace 0`` (end to end): every request is a fresh ``python -m bernshift``
process, started by ``launcher.py``, timed from spawn to exit and checked.
Requests run in whole blocks until ``--seconds`` have passed, at least one
block.  Set-up time is measured first, by spawning interpreters that only
import ``bernshift.cli``.  The timings are scaled to a reference machine
speed measured during the run (see "Machine speed" below); the raw figures
are printed beside them.

``--trace 1`` (per layer): the first block is replayed in this process
through ``bernshift.cli.main``, once plain and once with the tracer of
``tracing.py`` installed; the difference is the tracing overhead.  For
``acceptance-jobs2`` each parallel sweep's row chunks are replayed one after
another, and the real ``--jobs 2`` requests are spawned as well, to measure
the process pool.  The folded call tree is written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give every metric by name with its unit, and the run's conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"  # request output files and trace summaries

SETUP_SPAWNS = 21
# No request starts later than this after the run began, and none runs past
# it, so a run exits well inside three minutes even when requests hang.
RUN_DEADLINE_S = 150.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import bernshift.cli; "
    "print(t, time.perf_counter(), bernshift.cli.__file__)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_total_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class SetupError(Exception):
    """The package under test cannot be run; no result is printed."""


# ---------------------------------------------------------------------------
# Machine speed
#
# On a few vCPUs of a shared host the same pure-Python work runs up to half
# again as slow in one minute as in the next, on every vCPU at once, and CPU
# time moves with wall time: the cores run slower, this process does not
# wait.  The end-to-end timings are therefore reported at a fixed reference
# speed.  The run times a fixed calibration loop before the first and after
# every request and set-up spawn.  A single process's time is scaled by
# CALIBRATION_REFERENCE_S over the mean of the two samples around it: on
# recorded deep runs that cut the spread of one request's time across runs
# from 32% to 18%, where one factor for the whole run left 27%.  A block's
# total is scaled by one factor for the whole run, from the mean of all its
# request samples (the top and bottom tenth left out), which follows the
# totals better because it averages the loop's own noise.  The loop belongs to
# the benchmark, so a change to the program moves the scaled timings as it
# moves the raw ones.

CALIBRATION_STEPS = 100_000
# The scale of the reported timings: about the loop's mean time on a 2-vCPU
# x86-64 VM with CPython 3.11, so that there they read close to raw seconds.
CALIBRATION_REFERENCE_S = 0.017


def calibration_loop() -> int:
    """Fixed interpreter-bound work on small integers.

    Small integers keep the loop's speed independent of how much memory the
    benchmark process holds, which differs between workloads.  On recorded
    runs of the acceptance sweeps, their time moved in proportion to this
    loop's (log-log slope 1.06); a loop of Fraction arithmetic moved by more
    than they did (slope 0.75), so scaling by it over-corrected.
    """
    x = 0
    for i in range(1, CALIBRATION_STEPS):
        x = (x * 31 + i * i) % 1_000_003
    return x


class SpeedGauge:
    """Samples of the calibration loop's time, taken between requests."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - t0)

    def mean(self) -> float:
        """Mean sample with the top and bottom tenth left out."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def factor(self) -> float:
        """Multiply a total over this run by this to get it at the reference speed."""
        return CALIBRATION_REFERENCE_S / self.mean()

    def around(self, i: int) -> float:
        """The factor for one process timed between samples ``i`` and ``i + 1``."""
        return 2 * CALIBRATION_REFERENCE_S / (self.samples[i] + self.samples[i + 1])


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile q >= 50 with at least ten of n samples above it.

    Above the nearest-rank q-th percentile lie n - ceil(q n / 100) samples.
    With fewer than twenty samples no such q exists, and None is returned:
    the tail is then reported as the median.
    """
    for q in range(99, 49, -1):
        if n - ceil(q * n / 100) >= 10:
            return q
    return None


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile: the smallest sample with q% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered) / 100), 1) - 1]


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Response:
    code: Optional[int]  # None: killed at its timeout
    out: str
    err: str
    started: float  # perf_counter() at the spawn
    seconds: float  # spawn to exit
    maxrss_kb: int  # peak resident set of the command (and its workers)


class Launcher:
    """Runs commands through ``launcher.py``, a small process (its docstring says why)."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._out = OUT_DIR / f"stdout-{os.getpid()}"
        self._err = OUT_DIR / f"stderr-{os.getpid()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def run(self, argv: Sequence[str], timeout: float) -> Response:
        cmd = {"argv": list(argv), "timeout": timeout, "out": str(self._out), "err": str(self._err)}
        self._proc.stdin.write(json.dumps(cmd) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher exited with code {self._proc.wait()}")
        reply = json.loads(line)
        return Response(
            reply["code"],
            self._out.read_text(encoding="utf-8", errors="replace"),
            self._err.read_text(encoding="utf-8", errors="replace"),
            reply["started"],
            reply["seconds"],
            reply["maxrss_kb"],
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()
        self._out.unlink(missing_ok=True)
        self._err.unlink(missing_ok=True)


def cli_argv(argv: Sequence[str]) -> list[str]:
    return [sys.executable, "-m", "bernshift", *argv]


def measure_setup(launcher: Launcher, gauge: SpeedGauge) -> list[tuple[float, float]]:
    """(interpreter start, import of bernshift.cli) in seconds, per fresh interpreter.

    The child and the launcher read the same system-wide monotonic clock.  The
    first spawn is not counted: it may write the bytecode cache.  ``gauge`` is
    sampled after every spawn, so counted spawn ``j`` lies between samples
    ``j`` and ``j + 1``.
    """
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        resp = launcher.run([sys.executable, "-c", SETUP_CODE], 60.0)
        if resp.code != 0:
            raise SetupError(f"cannot import bernshift.cli from {SRC}: {resp.err.strip()[-300:]}")
        start, end, path = resp.out.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise SetupError(f"bernshift.cli was imported from {path}, not from {SRC}")
        if i:
            samples.append((float(start) - resp.started, float(end) - float(start)))
        gauge.sample()
    return samples


# ---------------------------------------------------------------------------
# Runs


class Tally:
    """Attempted and failed requests, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")


def run_end_to_end(
    launcher: Launcher, workload, seed: int, seconds: float, deadline: float
) -> tuple[Tally, dict, dict]:
    import workloads

    setup_gauge = SpeedGauge()
    setup = measure_setup(launcher, setup_gauge)
    ref = workloads.Reference(workload.reference_capacity)
    tally = Tally()
    raw_latencies: list[float] = []
    latencies: list[float] = []  # each at the reference speed
    sweeps: list[float] = []
    gauge = SpeedGauge()
    gauge.sample()
    peak_rss_kb = 0
    start = perf_counter()
    index = 0
    while (index == 0 or perf_counter() - start < seconds) and perf_counter() < deadline:
        total = 0.0
        for req in workloads.block(workload.name, seed, index):
            label = f"{req.kind} {' '.join(req.argv)}"
            remaining = deadline - perf_counter()
            if remaining <= 0:
                tally.record(label, "not run before the run deadline")
                continue
            resp = launcher.run(cli_argv(req.argv), min(req.timeout_s, remaining))
            gauge.sample()
            raw_latencies.append(resp.seconds)
            latencies.append(resp.seconds * gauge.around(len(gauge.samples) - 2))
            peak_rss_kb = max(peak_rss_kb, resp.maxrss_kb)
            total += resp.seconds
            tally.record(label, workloads.check(req, resp.code, resp.out, resp.err, ref))
        sweeps.append(total)
        index += 1
    factor = gauge.factor()
    scaled_sweeps = [total * factor for total in sweeps]
    if workload.per_sweep_latency:
        what = f"sweeps, each the summed time of its {workload.block_size} requests"
        raw_samples, samples, q = sweeps, scaled_sweeps, None
    else:
        what = "requests, spawn to exit"
        raw_samples, samples, q = raw_latencies, latencies, tail_percentile(workload.block_size)

    def timings(setup_s: list[float], sweep_s: list[float], latency_s: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "sweep_total_s": statistics.median(sweep_s),
            "latency_p50_s": statistics.median(latency_s),
            "latency_tail_s": percentile(latency_s, q) if q else statistics.median(latency_s),
        }

    raw = timings([i + m for i, m in setup], sweeps, raw_samples)
    metrics = timings(
        [(i + m) * setup_gauge.around(j) for j, (i, m) in enumerate(setup)], scaled_sweeps, samples
    )
    metrics["peak_rss_mb"] = peak_rss_kb / 1024
    metrics["success_ratio"] = (tally.attempted - len(tally.failures)) / tally.attempted
    notes = {
        "setup_s": f"median of {len(setup)} interpreters importing bernshift.cli",
        "sweep_total_s": f"median over {len(sweeps)} block(s) of {workload.block_size} requests",
        "latency_p50_s": f"median of {len(samples)} {what}",
        "latency_tail_s": f"p{q} of {len(samples)} {what}" if q else
        f"median of {len(samples)} {what}; too few for ten beyond a higher percentile",
        "peak_rss_mb": "largest resident set of any request process",
        "success_ratio": f"{tally.attempted - len(tally.failures)}/{tally.attempted} requests "
        f"correct; fail_ratio {len(tally.failures) / tally.attempted:g}",
    }
    for name, value in raw.items():
        notes[name] += f"; {value:.6g} s as timed"
    notes["speed_factor"] = (
        f"{factor:.4f} for block totals: timings above are at the reference speed, a "
        f"calibration loop taking {CALIBRATION_REFERENCE_S} s; it took {gauge.mean():.6g} s "
        f"over {len(gauge.samples)} samples between requests"
    )
    return tally, metrics, notes


def _replay(req, ref, jobs2: bool) -> tuple[float, Optional[str], Optional[list[float]]]:
    """One request replayed in this process: (seconds, problem, chunk seconds).

    A ``--jobs 2`` sweep that would use the pool has its chunks run one after
    another instead, so that the tracer sees inside them.
    """
    import tracing
    import workloads
    from bernshift import verify

    name = req.expect.get("property")
    if jobs2 and verify.PROPERTIES[name].parallel:
        t0 = perf_counter()
        parts = tracing.replay_chunks(name, jobs=2)
        seconds = perf_counter() - t0
        instances = sum(part[0] for part in parts)
        failed = sum(len(part[1]) for part in parts)
        problem = None
        if failed or instances != req.expect["instances"]:
            problem = f"{instances} instances, {failed} failures"
        return seconds, problem, [part[2] for part in parts]
    t0 = perf_counter()
    code, out, err = tracing.call_main(req.argv)
    seconds = perf_counter() - t0
    return seconds, workloads.check(req, code, out, err, ref), None


def run_traced(launcher: Launcher, workload, seed: int, deadline: float) -> tuple[Tally, dict, dict]:
    import tracing
    import workloads

    setup = measure_setup(launcher, SpeedGauge())
    ref = workloads.Reference(workload.reference_capacity)
    tally = Tally()
    reqs = workloads.block(workload.name, seed, 0)
    jobs2 = workload.name == "acceptance-jobs2"

    pool_wall: dict[str, float] = {}
    if jobs2:
        from bernshift import verify

        for req in reqs:
            name = req.expect["property"]
            if verify.PROPERTIES[name].parallel:
                resp = launcher.run(cli_argv(req.argv), min(req.timeout_s, deadline - perf_counter()))
                pool_wall[name] = resp.seconds
                tally.record(f"pool {' '.join(req.argv)}", workloads.check(req, resp.code, resp.out, resp.err, ref))

    # Each request runs once plain and once traced, in alternating order, so
    # that drift in the machine's speed cancels out of the overhead.
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    chunks: dict[str, list[float]] = {}
    for i, req in enumerate(reqs):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install()
            try:
                seconds, problem, parts = _replay(req, ref, jobs2)
            finally:
                tracer.uninstall()
            tally.record(f"{'traced' if traced else 'replay'} {req.kind} {' '.join(req.argv)}", problem)
            if traced:
                traced_s += seconds
            else:
                untraced_s += seconds
                if parts:
                    chunks[req.expect["property"]] = parts

    per_name, per_layer = tracer.summary()

    def calls(name: str) -> int:
        return per_name.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return per_name.get(name, (0, 0.0, 0.0))[1]

    metrics: dict[str, float] = {
        "bernoulli.cache_build.calls": calls("bernoulli.cache_build"),
        "bernoulli.cache_build.s": total("bernoulli.cache_build"),
        "bernoulli.cache_build.capacity_max": tracer.counters.get("bernoulli.cache_build.capacity_max", 0),
    }
    for fn in ("bs_direct", "bs_via_difference", "bs_polynomial", "bs_table_recursive"):
        metrics[f"umbral.{fn}.calls"] = calls(f"umbral.{fn}")
        metrics[f"umbral.{fn}.s"] = total(f"umbral.{fn}")
    metrics["umbral.value_bits_max"] = tracer.counters.get("umbral.value_bits_max", 0)
    metrics["denom.psi.calls"] = calls("denom.psi")
    for fn in ("psi", "denom_via_psi", "denom_formula", "integrality_witness"):
        metrics[f"denom.{fn}.s"] = total(f"denom.{fn}")
    for fn in ("is_prime", "primes_up_to"):
        metrics[f"exact_arith.{fn}.calls"] = calls(f"exact_arith.{fn}")
        metrics[f"exact_arith.{fn}.s"] = total(f"exact_arith.{fn}")
    metrics["exact_arith.poly.s"] = sum(
        v[1] for k, v in per_name.items() if k.startswith("exact_arith.poly.")
    )
    for name in workloads.PROPERTY_INSTANCES:
        metrics[f"verify.{name}.s"] = total(f"verify.{name}")
    metrics["verify.instances"] = tracer.counters.get("verify.instances", 0)

    # Pool: wall time of each real --jobs 2 request against its chunks run alone.
    busy = sum(sum(c) for c in chunks.values())
    slowest = sum(max(c) for c in chunks.values())
    mean = sum(sum(c) / len(c) for c in chunks.values())
    wall = sum(pool_wall.get(name, 0.0) for name in chunks)
    metrics["verify.pool.overhead_s"] = wall - slowest if chunks else 0.0
    metrics["verify.pool.imbalance"] = slowest / mean if chunks else 0.0
    metrics["verify.pool.efficiency"] = busy / (2 * wall) if wall else 0.0

    metrics["render.s"] = per_layer.get("render", 0.0)
    metrics["render.bytes"] = tracer.counters.get("render.bytes", 0)
    metrics["cli.interpreter_s"] = statistics.median(i for i, _ in setup)
    metrics["cli.import_s"] = statistics.median(m for _, m in setup)
    metrics["cli.main.s"] = total("cli.main")
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s

    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tree = tracer.call_tree()
    trace_file.write_text(json.dumps({"spans": len(tracer.names), "tree": tree}, indent=1) + "\n")
    notes = {
        "trace.overhead_s": f"{(traced_s - untraced_s) / untraced_s:+.1%} of the untraced replay; "
        f"{len(tracer.names)} spans, call tree in {trace_file.relative_to(ROOT)}",
        "verify.pool.overhead_s": "real --jobs 2 wall time minus the slowest chunk, parallel sweeps",
    }
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# Output


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".imbalance", ".efficiency")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(),
    }
    deadline = perf_counter() + RUN_DEADLINE_S
    try:
        with Launcher() as launcher:
            if trace:
                tally, metrics, notes = run_traced(launcher, workload, seed, deadline)
            else:
                tally, metrics, notes = run_end_to_end(launcher, workload, seed, seconds, deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_end"] = _loadavg()

    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit(name):6s} {notes.get(name, '')}".rstrip())
    if "speed_factor" in notes:
        print(f"speed factor {notes['speed_factor']}")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    if len(tally.failures) > 20:
        print(f"FAILED ... {len(tally.failures) - 20} more")
    print("meta " + json.dumps(meta))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool, names: Sequence[str]) -> int:
    """Each workload in its own process, so peak memory is per workload; then a summary."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {name}\n{proc.stdout}", end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("== summary")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "bernshift" / "cli.py").is_file():
        print(f"error: no bernshift package under {SRC}", file=sys.stderr)
        return 2
    # The benchmark's modules import bernshift, so they are imported, here and
    # in the functions above, only once src/ is on the path.
    sys.path.insert(0, str(SRC))
    import workloads

    names = tuple(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), names)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
