"""Deterministic text renderings: plain, csv, json, latex.

Every byte the CLI writes to stdout is built here.  Values are integers or
fractions; fractions render as "num/den" with "/1" suppressed and the sign on
the numerator, so a CSV cell holds only digits, "-" and "/" and never needs
quoting.  JSON output carries no floats; integers beyond 2**53 are encoded as
decimal strings so consumers that parse into doubles cannot silently lose
precision.  All output is byte-stable across runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

PLAIN, CSV, JSON, LATEX = "plain", "csv", "json", "latex"
FORMATS = (PLAIN, CSV, JSON, LATEX)

_JSON_SAFE = 2**53

JsonInt = Union[int, str]
Number = Union[int, "Fraction"]


def json_int(n: int) -> JsonInt:
    """Decimal string beyond the double-exact range, plain int inside it."""
    return n if abs(n) <= _JSON_SAFE else str(n)


def fraction_record(q: Number) -> dict[str, JsonInt]:
    return {"num": json_int(q.numerator), "den": json_int(q.denominator)}


def render_json(payload: object) -> str:
    """Canonical JSON text: insertion-ordered keys, 2-space indent, no floats."""
    import json  # here, not at the top: only the json format needs it

    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def latex_fraction(q: Number) -> str:
    if q.denominator == 1:
        return f"${q.numerator}$"
    sign = "-" if q.numerator < 0 else ""
    return f"${sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}$"


def _record(cells: Sequence[Number], fmt: str) -> str:
    """One row as a CRLF-terminated CSV record, or as a plain comma-separated line."""
    if fmt == CSV:
        return ",".join(map(str, cells)) + "\r\n"
    return ", ".join(map(str, cells)) + "\n"


def render_cells(grid: Iterable[Sequence[Number]], fmt: str) -> str:
    """Render a grid of values, reading its rows once; latex adds index labels like a table body."""
    if fmt == LATEX:
        body, width = [], 0
        for r, row in enumerate(grid):
            body.append(f"${r}$ & " + " & ".join(map(latex_fraction, row)) + " \\\\")
            width = len(row)
        header = "$r{\\backslash}s$ & " + " & ".join(f"${s}$" for s in range(width)) + " \\\\\\hline"
        return "\n".join([header, *body]) + "\n"
    return "".join(_record(row, fmt) for row in grid)


def render_fraction_table(grid: Iterable[Sequence[Fraction]], fmt: str) -> str:
    if fmt == JSON:
        return render_json([[fraction_record(q) for q in row] for row in grid])
    return render_cells(grid, fmt)


def render_int_table(grid: Sequence[Sequence[int]], fmt: str) -> str:
    if fmt == JSON:
        return render_json([[json_int(n) for n in row] for row in grid])
    return render_cells(grid, fmt)


def render_fraction_value(q: Number, fmt: str) -> str:
    """One value; an int renders as its own numerator."""
    if fmt == JSON:
        return render_json(fraction_record(q))
    if fmt == LATEX:
        return latex_fraction(q) + "\n"
    return _record((q,), fmt)


def render_coefficients(coeffs: Sequence[Fraction], fmt: str) -> str:
    """Coefficient list, lowest power first."""
    if fmt == JSON:
        return render_json([fraction_record(c) for c in coeffs])
    if fmt == LATEX:
        return " & ".join(map(latex_fraction, coeffs)) + " \\\\\n"
    return _record(coeffs, fmt)
