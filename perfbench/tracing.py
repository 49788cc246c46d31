"""In-process tracing of bernshift's layers, from the benchmark's own files.

A ``Tracer`` rebinds the public names of each layer -- in every bernshift
module that imported them -- to timing wrappers, so a call from anywhere in
the package records a span.  Spans (name, parent, start, end) stay in memory
in flat arrays and are summarised when the run ends.  A span's self time is
its duration minus the durations of its child spans.

Nothing here changes what bernshift computes; ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
from array import array
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional, Sequence

from bernshift import cli, verify

# (defining module, public name, span name).  A name a later version of the
# package no longer has is skipped, and its metrics read 0.
FUNCTIONS = (
    ("bernshift.umbral", "bs_direct", "umbral.bs_direct"),
    ("bernshift.umbral", "bs_via_difference", "umbral.bs_via_difference"),
    ("bernshift.umbral", "bs_polynomial", "umbral.bs_polynomial"),
    ("bernshift.umbral", "bs_table_recursive", "umbral.bs_table_recursive"),
    ("bernshift.denom", "psi", "denom.psi"),
    ("bernshift.denom", "denom_via_psi", "denom.denom_via_psi"),
    ("bernshift.denom", "denom_formula", "denom.denom_formula"),
    ("bernshift.denom", "integrality_witness", "denom.integrality_witness"),
    ("bernshift.exact_arith", "is_prime", "exact_arith.is_prime"),
    ("bernshift.exact_arith", "primes_up_to", "exact_arith.primes_up_to"),
    ("bernshift.render", "render_json", "render.render_json"),
    ("bernshift.render", "render_cells", "render.render_cells"),
    ("bernshift.render", "render_fraction_table", "render.render_fraction_table"),
    ("bernshift.render", "render_int_table", "render.render_int_table"),
    ("bernshift.render", "render_fraction_value", "render.render_fraction_value"),
    ("bernshift.render", "render_coefficients", "render.render_coefficients"),
    ("bernshift.cli", "main", "cli.main"),
)

# (defining module, class, method, span name): patched on the class itself.
METHODS = (
    ("bernshift.bernoulli", "BernoulliCache", "__init__", "bernoulli.cache_build"),
    ("bernshift.exact_arith", "Poly", "__add__", "exact_arith.poly.add"),
    ("bernshift.exact_arith", "Poly", "__radd__", "exact_arith.poly.add"),
    ("bernshift.exact_arith", "Poly", "__mul__", "exact_arith.poly.mul"),
    ("bernshift.exact_arith", "Poly", "compose_neg", "exact_arith.poly.compose_neg"),
)


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _result_bits(result: object) -> int:
    """Largest numerator or denominator bit length in an umbral route's result."""
    if isinstance(result, Fraction):
        return _bits(result)
    if hasattr(result, "entries"):  # BsTable
        return max((_bits(q) for row in result.entries for q in row), default=0)
    if hasattr(result, "coeffs"):  # Poly
        return max((_bits(q) for q in result.coeffs), default=0)
    return 0


class Tracer:
    """Spans and counters of one traced replay; ``install`` and ``uninstall`` may repeat."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _bump_max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _observer(self, span: str) -> Optional[Callable[[tuple, object, int], None]]:
        if span == "bernoulli.cache_build":
            return lambda args, result, parent: self._bump_max(
                "bernoulli.cache_build.capacity_max", args[1]
            )
        if span.startswith("umbral."):
            return lambda args, result, parent: self._bump_max(
                "umbral.value_bits_max", _result_bits(result)
            )
        if span.startswith("render."):
            return self._count_render_bytes
        if span.startswith("verify."):
            return self._count_instances
        return None

    def _count_render_bytes(self, args: tuple, result: object, parent: int) -> None:
        if parent < 0 or not self.names[parent].startswith("render."):
            key = "render.bytes"
            self.counters[key] = self.counters.get(key, 0) + len(str(result).encode())

    def _count_instances(self, args: tuple, result: object, parent: int) -> None:
        self.counters["verify.instances"] = self.counters.get("verify.instances", 0) + result[0]

    def wrap(self, span: str, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        observe = self._observer(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result, parents[idx])
            return result

        return traced

    def _rebind(self, original: object, replacement: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bernshift" and not mod_name.startswith("bernshift."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is not None:
                self._rebind(original, self.wrap(span, original))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is not None:
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(span, original))
        for name, spec in list(verify.PROPERTIES.items()):
            self._undo.append((verify.PROPERTIES, name, spec))
            verify.PROPERTIES[name] = spec._replace(runner=self.wrap(f"verify.{name}", spec.runner))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)

    def summary(self) -> tuple[dict[str, tuple[int, float, float]], dict[str, float]]:
        """Per span name (calls, total s, self s), and per layer its time outside itself.

        A layer's time sums the spans whose parent lies in another layer, so a
        layer calling itself is not counted twice.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        per_name: dict[str, list] = {}
        per_layer: dict[str, float] = {}
        for i in range(n):
            name, p = self.names[i], self.parents[i]
            dur = self.ends[i] - self.starts[i]
            entry = per_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            layer = name.split(".", 1)[0]
            if p < 0 or self.names[p].split(".", 1)[0] != layer:
                per_layer[layer] = per_layer.get(layer, 0.0) + dur
        return {k: tuple(v) for k, v in per_name.items()}, per_layer

    def call_tree(self) -> list[dict]:
        """Spans folded by their path from the root: calls, total and self seconds."""
        n = len(self.names)
        path_of: list[int] = []
        paths: dict[tuple[int, str], int] = {}
        labels: list[str] = []
        rows: list[list] = []
        for i in range(n):
            p = self.parents[i]
            key = (path_of[p] if p >= 0 else -1, self.names[i])
            pid = paths.get(key)
            if pid is None:
                pid = paths[key] = len(labels)
                labels.append(
                    (labels[key[0]] + " > " if key[0] >= 0 else "") + self.names[i]
                )
                rows.append([0, 0.0, 0.0])
            path_of.append(pid)
            dur = self.ends[i] - self.starts[i]
            rows[pid][0] += 1
            rows[pid][1] += dur
            rows[pid][2] += dur
            if p >= 0:
                rows[path_of[p]][2] -= dur
        return [
            {"path": labels[i], "calls": c, "total_s": t, "self_s": s}
            for i, (c, t, s) in enumerate(rows)
        ]


def call_main(argv: Sequence[str]) -> tuple[Optional[int], str, str]:
    """Run ``bernshift.cli.main`` in this process, capturing its output like a CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def chunk_rows(max_r: int, jobs: int) -> list[list[int]]:
    """The row split ``run_verify`` hands its workers."""
    return [rows for rows in (list(range(k, max_r + 1, jobs)) for k in range(jobs)) if rows]


def replay_chunks(name: str, jobs: int) -> list[tuple[int, list[str], float]]:
    """Each worker's chunk of a default-range sweep, run here one after another.

    Returns (instances, failures, seconds) per chunk.
    """
    spec = verify.PROPERTIES[name]
    out = []
    for rows in chunk_rows(spec.default_r, jobs):
        t0 = perf_counter()
        instances, failures, _ = spec.runner(spec.default_r, spec.default_s, rows)
        out.append((instances, failures, perf_counter() - t0))
    return out
