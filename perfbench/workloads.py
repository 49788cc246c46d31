"""Benchmark workloads: seeded request blocks and the checks on their responses.

Every workload is a closed loop with one client and one request in flight.
Requests come in fixed-size blocks.  Block ``i`` of a workload is generated
from ``(workload, seed, i)`` alone, so the same seed always gives the same
request list, and a run replays whole blocks only.  The block size fixes the
sample count of one run's smallest measurement, and with it the tail
percentile the run reports.

Each response is checked against a reference computed in the benchmark's own
process, outside the timed region, by a different route from the one the
request takes.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Optional

from bernshift import BernoulliCache, bs_direct, bs_table_recursive, denom_exact

# Instance counts of every default-range sweep, as `verify --jobs 1` reports them.
PROPERTY_INSTANCES = {
    "reciprocity": 6561,
    "antidiagonal": 101,
    "paths": 3321,
    "poly-reciprocity": 676,
    "nonvanishing": 3721,
    "denominators": 6561,
    "integrality": 6241,
    "psi-matrix": 750,
    "psi-congruences": 77726,
    "hermite-stern": 2200,
    "staudt-clausen": 301,
    "denom-divisibility": 9066,
}

FORMATS = ("plain", "csv", "json", "latex")
LARGE_P = (10**11, 10**13)


@dataclass(frozen=True)
class Request:
    """One CLI call: the arguments after ``python -m bernshift`` and how to judge them."""

    kind: str
    argv: tuple[str, ...]
    timeout_s: float
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    block_size: int
    # capacity of the BernoulliCache the reference checks need (0: none)
    reference_capacity: int
    # The block is one acceptance sweep, and its latency metrics time whole
    # sweeps: the median of twelve unlike sweeps is two of them, and swings
    # with the machine far more than their total does.
    per_sweep_latency: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("acceptance", len(PROPERTY_INSTANCES), 0, per_sweep_latency=True),
        Workload("acceptance-jobs2", len(PROPERTY_INSTANCES), 0, per_sweep_latency=True),
        Workload("cli", 50, 160),
        Workload("deep", 40, 400),
    )
}


def block(workload: str, seed: int, index: int) -> list[Request]:
    """Block ``index`` of ``workload`` for ``seed``; deterministic in all three."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "acceptance":
        reqs = _verify_block(jobs=1)
    elif workload == "acceptance-jobs2":
        reqs = _verify_block(jobs=2)
    elif workload == "cli":
        reqs = _cli_block(rng)
    elif workload == "deep":
        reqs = _deep_block(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def _verify_block(jobs: int) -> list[Request]:
    return [
        Request(
            "verify",
            ("verify", name, "--format", "json", "--jobs", str(jobs)),
            60.0,
            {"property": name, "instances": count},
        )
        for name, count in PROPERTY_INSTANCES.items()
    ]


def _cli_block(rng: random.Random) -> list[Request]:
    """Fifty small requests with a fixed mix of kinds and seeded arguments."""
    reqs = []
    for _ in range(8):
        r, s = rng.randint(0, 30), rng.randint(0, 30)
        reqs.append(Request("value", ("value", str(r), str(s)), 10.0, {"r": r, "s": s}))
    for _ in range(5):
        r, s = rng.randint(0, 12), rng.randint(0, 12)
        reqs.append(
            Request(
                "value-poly", ("value", str(r), str(s), "--poly"), 10.0, {"r": r, "s": s, "poly": True}
            )
        )
    for fmt in FORMATS:
        for _ in range(4):
            reqs.append(_table_request(rng, rng.randint(1, 24), rng.randint(1, 24), fmt, 10.0))
    for _ in range(8):
        r, s, p = rng.randint(0, 40), rng.randint(0, 40), rng.choice(_SMALL_PRIMES)
        reqs.append(_psi_request("psi", r, s, p))
    for _ in range(5):
        r, s = rng.randint(0, 40), rng.randint(0, 40)
        reqs.append(_psi_request("psi-large-p", r, s, random_prime(rng, *LARGE_P)))
    for _ in range(4):
        r, s = rng.randint(0, 80), rng.randint(0, 80)
        reqs.append(
            Request("denom", ("denom", str(r), str(s), "--factor"), 10.0, {"r": r, "s": s})
        )
    for template in rng.sample(_INVALID, 4):
        reqs.append(Request("invalid", template(rng), 10.0))
    return reqs


def _deep_block(rng: random.Random) -> list[Request]:
    """Twenty values and twenty CSV tables, evenly spaced over each index range.

    The sizes are the same in every block (r + s from 200 to 400, tables from
    60x60 to 160x160); the seed picks each value's split of r + s, the table
    cells the check samples, and the order.  A block's cost, which grows with
    the sizes, is then the same whatever the seed, and its median and tail
    move only with the program and the machine.
    """
    reqs = []
    for i in range(20):
        n = 200 + 200 * i // 19
        r = rng.randint(0, n)
        reqs.append(Request("value", ("value", str(r), str(n - r)), 30.0, {"r": r, "s": n - r}))
    for i in range(20):
        n = 60 + 100 * i // 19
        reqs.append(_table_request(rng, n, n, "csv", 30.0))
    return reqs


def _table_request(rng: random.Random, max_r: int, max_s: int, fmt: str, timeout: float) -> Request:
    cells = [(rng.randint(0, max_r), rng.randint(0, max_s)) for _ in range(8)]
    return Request(
        f"table-{fmt}",
        ("table", str(max_r), str(max_s), "--format", fmt),
        timeout,
        {"max_r": max_r, "max_s": max_s, "fmt": fmt, "cells": cells},
    )


def _psi_request(kind: str, r: int, s: int, p: int) -> Request:
    return Request(kind, ("psi", str(r), str(s), str(p)), 10.0, {"r": r, "s": s, "p": p})


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_COMPOSITES = (4, 6, 8, 9, 10, 12, 15, 21, 25, 27, 35, 49, 91, 1001)

_INVALID = (
    lambda rng: ("psi", str(rng.randint(0, 9)), str(rng.randint(0, 9)), str(rng.choice(_COMPOSITES))),
    lambda rng: ("psi", str(rng.randint(0, 9)), str(rng.randint(0, 9)), "1"),
    lambda rng: ("value", "--", str(-rng.randint(1, 9)), str(rng.randint(0, 9))),
    lambda rng: ("table", str(rng.randint(1, 9)), str(rng.randint(1, 9)), "--format", "xml"),
    lambda rng: ("verify", "paths", "--format", "csv"),
    lambda rng: ("verify", "no-such-property"),
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, low: int, high: int) -> int:
    """The first prime at or above a seeded point of [low, high)."""
    n = rng.randrange(low, high) | 1
    while not is_probable_prime(n):
        n += 2
    return n


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the response is right, else a reason.


class Reference:
    """Reference values from the library under test, by a route the request does not take."""

    def __init__(self, capacity: int) -> None:
        self.cache = BernoulliCache(capacity) if capacity else None

    def value(self, r: int, s: int) -> Fraction:
        return bs_table_recursive(self.cache, r, s)[r, s]

    def poly(self, r: int, s: int) -> list[Fraction]:
        """[x^k] B[r,s](x) = sum_j C(r,j) C(s,k-j) B[r-j, s-k+j], read off one table."""
        table = bs_table_recursive(self.cache, r, s)
        return [
            sum(
                (comb(r, j) * comb(s, k - j) * table[r - j, s - k + j]
                 for j in range(max(0, k - s), min(r, k) + 1)),
                Fraction(0),
            )
            for k in range(r + s + 1)
        ]

    def direct(self, r: int, s: int) -> Fraction:
        return bs_direct(self.cache, r, s)

    def denom(self, r: int, s: int) -> int:
        return denom_exact(self.cache, r, s)


def psi_by_binomial_sum(r: int, s: int, p: int) -> int:
    """psi(r, s; p) summed term by term over every v in 0..r."""
    return sum(
        comb(r, v)
        for v in range(r + 1)
        if s + v > 0 and (s + v) % 2 == 0 and (s + v) % (p - 1) == 0
    )


def check(req: Request, code: Optional[int], out: str, err: str, ref: Reference) -> Optional[str]:
    """None if the response to ``req`` is correct, else why it is not."""
    if code is None:
        return "timed out"
    if req.kind == "invalid":
        if code != 2 or out or not err:
            return f"expected a usage error (exit 2, message on stderr), got exit {code}"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}"
    try:
        return _CHECKS[req.kind.split("-")[0]](req.expect, out, ref)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc!r}"


def _check_verify(e: dict, out: str, ref: Reference) -> Optional[str]:
    payload = json.loads(out)
    if payload["property"] != e["property"]:
        return f"property {payload['property']!r}, expected {e['property']!r}"
    if payload["pass"] is not True or payload["failures"]:
        return f"{e['property']}: {len(payload['failures'])} failures"
    if payload["instances"] != e["instances"]:
        return f"{e['property']}: {payload['instances']} instances, expected {e['instances']}"
    return None


def _check_value(e: dict, out: str, ref: Reference) -> Optional[str]:
    r, s = e["r"], e["s"]
    if e.get("poly"):
        got = [Fraction(c) for c in out.rstrip("\n").split(", ")]
        want = ref.poly(r, s)
    else:
        got, want = Fraction(out.strip()), ref.value(r, s)
    return None if got == want else f"B[{r},{s}]: got {out.strip()[:80]}"


def _check_table(e: dict, out: str, ref: Reference) -> Optional[str]:
    grid = parse_table(out, e["fmt"])
    max_r, max_s = e["max_r"], e["max_s"]
    if len(grid) != max_r + 1 or any(len(row) != max_s + 1 for row in grid):
        return f"table shape is not {max_r + 1}x{max_s + 1}"
    for r, s in e["cells"]:
        if grid[r][s] != ref.direct(r, s):
            return f"cell ({r},{s}) is {grid[r][s]}"
    for n in range(min(max_r, max_s) + 1):
        total = sum((grid[r][n - r] for r in range(n + 1)), Fraction(0))
        if total != (1 if n == 0 else 0):
            return f"anti-diagonal {n} sums to {total}"
    return None


def _check_psi(e: dict, out: str, ref: Reference) -> Optional[str]:
    want = psi_by_binomial_sum(e["r"], e["s"], e["p"])
    return None if int(out) == want else f"psi({e['r']},{e['s']};{e['p']}) = {out.strip()}, expected {want}"


def _check_denom(e: dict, out: str, ref: Reference) -> Optional[str]:
    value, factors = out.rstrip("\n").split(" = ")
    primes = [int(f) for f in factors.split(" * ")]
    want = ref.denom(e["r"], e["s"])
    if int(value) != want or prod(primes) != want:
        return f"denom({e['r']},{e['s']}): got {out.strip()}, expected {want}"
    if want > 1 and (primes != sorted(set(primes)) or not all(map(is_probable_prime, primes))):
        return f"denom({e['r']},{e['s']}): {factors} is not a list of distinct primes"
    return None


_CHECKS = {
    "verify": _check_verify,
    "value": _check_value,
    "table": _check_table,
    "psi": _check_psi,
    "denom": _check_denom,
}

_LATEX_CELL = re.compile(r"\$(-?)\\frac\{(\d+)\}\{(\d+)\}\$|\$(-?\d+)\$")


def _latex_fraction(cell: str) -> Fraction:
    m = _LATEX_CELL.fullmatch(cell)
    if m is None:
        raise ValueError(f"bad latex cell {cell!r}")
    if m.group(4) is not None:
        return Fraction(int(m.group(4)))
    q = Fraction(int(m.group(2)), int(m.group(3)))
    return -q if m.group(1) else q


def parse_table(out: str, fmt: str) -> list[list[Fraction]]:
    """The grid of a ``table`` response in any of the four formats."""
    if fmt == "json":
        return [[Fraction(int(c["num"]), int(c["den"])) for c in row] for row in json.loads(out)]
    if fmt == "csv":
        return [[Fraction(c) for c in row] for row in csv.reader(io.StringIO(out, newline=""))]
    if fmt == "latex":
        lines = out.rstrip("\n").split("\n")[1:]  # first line is the column header
        rows = []
        for r, line in enumerate(lines):
            label, *cells = line.removesuffix(" \\\\").split(" & ")
            if label != f"${r}$":
                raise ValueError(f"row label {label!r} at row {r}")
            rows.append([_latex_fraction(c) for c in cells])
        return rows
    return [[Fraction(c) for c in line.split(", ")] for line in out.rstrip("\n").split("\n")]
