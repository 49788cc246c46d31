"""Deterministic text renderings: plain, csv, json, latex.

Every byte the CLI writes to stdout is built here.  Values are integers or
fractions; fractions render as "num/den" with "/1" suppressed and the sign on
the numerator, so a CSV cell holds only digits, "-" and "/" and never needs
quoting.  JSON output carries no floats; integers beyond 2**53 are encoded as
decimal strings so consumers that parse into doubles cannot silently lose
precision.  All output is byte-stable across runs.
"""

from __future__ import annotations

from itertools import starmap
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

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


def fraction_text(num: int, den: int) -> str:
    """The plain and CSV cell: "num/den", or num alone when den is 1, as str(Fraction) gives."""
    return str(num) if den == 1 else f"{num}/{den}"


def fraction_record(num: int, den: int) -> dict[str, JsonInt]:
    return {"num": json_int(num), "den": json_int(den)}


def render_json(payload: object) -> str:
    """Canonical JSON text: insertion-ordered keys, 2-space indent, no floats."""
    import json  # here, not at the top: only the json format needs it

    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def latex_fraction(num: int, den: int = 1) -> str:
    if den == 1:
        return f"${num}$"
    sign = "-" if num < 0 else ""
    return f"${sign}\\frac{{{abs(num)}}}{{{den}}}$"


# A value's cell in each format, from its numerator and denominator in lowest terms.
_FRACTION_CELL = {
    PLAIN: fraction_text, CSV: fraction_text, LATEX: latex_fraction, JSON: fraction_record
}
# An integer's cell in each format.
_INT_CELL = {PLAIN: str, CSV: str, LATEX: latex_fraction, JSON: json_int}


def _record(cells: Iterable[str], fmt: str) -> str:
    """One row as a CRLF-terminated CSV record, or as a plain comma-separated line."""
    if fmt == CSV:
        return ",".join(cells) + "\r\n"
    return ", ".join(cells) + "\n"


def _table_lines(rows: Iterable[list], fmt: str, width: int) -> Iterator[str]:
    """A table of rendered cells, one string per row plus the latex header or the json brackets.

    The text is that of render_json on the whole grid, or of the latex body
    under a header of column indices 0..width - 1, but only one row is
    rendered at a time.
    """
    if fmt == JSON:
        import json  # here, not at the top: only the json format needs it

        # json.dumps(grid, indent=2) is "[", each row's own text on a new line
        # and indented one level deeper, joined by ",", then "]" on a new line
        opening = "["
        for row in rows:
            text = json.dumps(row, indent=2, ensure_ascii=False)
            yield opening + "\n  " + text.replace("\n", "\n  ")
            opening = ","
        yield "[]\n" if opening == "[" else "\n]\n"
    elif fmt == LATEX:
        yield "$r{\\backslash}s$ & " + " & ".join(f"${s}$" for s in range(width)) + " \\\\\\hline\n"
        for r, row in enumerate(rows):
            yield f"${r}$ & " + " & ".join(row) + " \\\\\n"
    else:
        for row in rows:
            yield _record(row, fmt)


def fraction_table_lines(
    rows: Iterable[Sequence[tuple[int, int]]], fmt: str, width: int
) -> Iterator[str]:
    """Render rows of (numerator, denominator) pairs in lowest terms, as each row is reached."""
    cell = _FRACTION_CELL[fmt]
    return _table_lines((list(starmap(cell, row)) for row in rows), fmt, width)


def int_table_lines(rows: Iterable[Sequence[int]], fmt: str, width: int) -> Iterator[str]:
    """Render rows of integers, as each row is reached."""
    cell = _INT_CELL[fmt]
    return _table_lines((list(map(cell, row)) for row in rows), fmt, width)


def render_fraction_value(q: Number, fmt: str) -> str:
    """One value; an int renders as its own numerator."""
    cell = _FRACTION_CELL[fmt](q.numerator, q.denominator)
    if fmt == JSON:
        return render_json(cell)
    if fmt == LATEX:
        return cell + "\n"
    return _record((cell,), fmt)


def render_coefficients(coeffs: Sequence[Fraction], fmt: str) -> str:
    """Coefficient list, lowest power first."""
    cell = _FRACTION_CELL[fmt]
    cells = [cell(c.numerator, c.denominator) for c in coeffs]
    if fmt == JSON:
        return render_json(cells)
    if fmt == LATEX:
        return " & ".join(cells) + " \\\\\n"
    return _record(cells, fmt)
