"""Deterministic text renderings: plain, csv, json, latex.

Fractions render as "num/den" with "/1" suppressed and the sign on the
numerator.  JSON output carries no floats; integers beyond 2**53 are encoded
as decimal strings so consumers that parse into doubles cannot silently lose
precision.  All output is byte-stable across runs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Union

PLAIN, CSV, JSON, LATEX = "plain", "csv", "json", "latex"
FORMATS = (PLAIN, CSV, JSON, LATEX)

_JSON_SAFE = 2**53

JsonInt = Union[int, str]


def json_int(n: int) -> JsonInt:
    """Decimal string beyond the double-exact range, plain int inside it."""
    return n if abs(n) <= _JSON_SAFE else str(n)


def fraction_record(q: Fraction) -> dict[str, JsonInt]:
    return {"num": json_int(q.numerator), "den": json_int(q.denominator)}


def render_json(payload: object) -> str:
    """Canonical JSON text: insertion-ordered keys, 2-space indent, no floats."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def latex_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return f"${q.numerator}$"
    sign = "-" if q.numerator < 0 else ""
    return f"${sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}$"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue()


def render_cells(grid: list[list[str]], fmt: str, latex_cells: list[list[str]] | None = None) -> str:
    """Render a grid of pre-formatted cells; latex adds index labels like a table body."""
    if fmt == CSV:
        return _csv_text(grid)
    if fmt == LATEX:
        cells = latex_cells if latex_cells is not None else [[f"${c}$" for c in row] for row in grid]
        width = len(grid[0]) if grid else 0
        lines = ["$r{\\backslash}s$ & " + " & ".join(f"${s}$" for s in range(width)) + " \\\\\\hline"]
        for r, row in enumerate(cells):
            lines.append(f"${r}$ & " + " & ".join(row) + " \\\\")
        return "\n".join(lines) + "\n"
    return "\n".join(", ".join(row) for row in grid) + "\n"


def render_fraction_table(grid: list[list[Fraction]], fmt: str) -> str:
    if fmt == JSON:
        return render_json([[fraction_record(q) for q in row] for row in grid])
    latex_cells = [[latex_fraction(q) for q in row] for row in grid] if fmt == LATEX else None
    return render_cells([[str(q) for q in row] for row in grid], fmt, latex_cells)


def render_int_table(grid: list[list[int]], fmt: str) -> str:
    if fmt == JSON:
        return render_json([[json_int(n) for n in row] for row in grid])
    return render_cells([[str(n) for n in row] for row in grid], fmt)


def render_fraction_value(q: Fraction, fmt: str) -> str:
    if fmt == JSON:
        return render_json(fraction_record(q))
    if fmt == CSV:
        return _csv_text([[str(q)]])
    if fmt == LATEX:
        return latex_fraction(q) + "\n"
    return str(q) + "\n"


def render_coefficients(coeffs: tuple[Fraction, ...], fmt: str) -> str:
    """Coefficient list, lowest power first."""
    if fmt == JSON:
        return render_json([fraction_record(c) for c in coeffs])
    if fmt == CSV:
        return _csv_text([[str(c) for c in coeffs]])
    if fmt == LATEX:
        return " & ".join(latex_fraction(c) for c in coeffs) + " \\\\\n"
    return ", ".join(str(c) for c in coeffs) + "\n"
