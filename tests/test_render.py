"""Renderers against the standard library's CSV writer and the plain cell forms.

``bernshift.render`` joins CSV records itself, since a cell (digits, ``-`` and
``/``) never needs quoting.  ``csv.writer`` stays here as the oracle that the
bytes are those of a conforming writer with CRLF line ends.
"""

import csv
import io

import pytest

from bernshift import BernoulliCache, bs_direct, bs_polynomial, bs_table_recursive
from bernshift.render import (
    CSV,
    FORMATS,
    JSON,
    LATEX,
    PLAIN,
    fraction_record,
    fraction_table_lines,
    int_table_lines,
    json_int,
    render_coefficients,
    render_fraction_value,
    render_json,
)


def csv_oracle(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows([[str(c) for c in row] for row in rows])
    return buf.getvalue()


@pytest.fixture(scope="module")
def values():
    cache = BernoulliCache(24)
    table = bs_table_recursive(cache, 11, 11)
    return [[table[r, s] for s in range(12)] for r in range(12)]


@pytest.fixture(scope="module")
def denoms(values):
    return [[q.denominator for q in row] for row in values]


def fraction_table(values, fmt):
    pairs = ([(q.numerator, q.denominator) for q in row] for row in values)
    return "".join(fraction_table_lines(pairs, fmt, 12))


def int_table(denoms, fmt):
    return "".join(int_table_lines(denoms, fmt, 12))


def test_fraction_table_csv_matches_csv_writer(values):
    assert fraction_table(values, CSV) == csv_oracle(values)


def test_int_table_csv_matches_csv_writer(denoms):
    assert int_table(denoms, CSV) == csv_oracle(denoms)


def test_coefficients_csv_match_csv_writer():
    coeffs = bs_polynomial(BernoulliCache(14), 7, 5)
    assert len(coeffs) == 13
    assert render_coefficients(((c.numerator, c.denominator) for c in coeffs), CSV) == csv_oracle([coeffs])


def test_scalar_csv_matches_csv_writer(values, denoms):
    for row_q, row_n in zip(values, denoms):
        for q, n in zip(row_q, row_n):
            assert render_fraction_value(q.numerator, q.denominator, CSV) == csv_oracle([[q]])
            assert render_fraction_value(n, 1, CSV) == csv_oracle([[n]])


@pytest.mark.parametrize("fmt", FORMATS)
def test_integer_pairs_render_as_the_fractions_do(fmt):
    # the CLI renders the pairs of bs_direct; byte for byte they render as the numerator and
    # denominator of the Fractions the library returns, over keys with negative values,
    # zeros ((3, 0), (0, 5)) and denominator 1 ((0, 0))
    cache = BernoulliCache(24)
    seen = set()
    for r in range(13):
        for s in range(13):
            q = bs_direct(cache, r, s)
            seen.add((q < 0, q == 0, q.denominator == 1))
            expected = render_fraction_value(q.numerator, q.denominator, fmt)
            assert render_fraction_value(*bs_direct(cache, r, s, pair=True), fmt) == expected
    assert {(True, False, False), (False, True, True), (False, False, True)} <= seen


def test_int_table_cells_keep_their_plain_and_latex_forms(denoms):
    header = "$r{\\backslash}s$ & " + " & ".join(f"${s}$" for s in range(12)) + " \\\\\\hline"
    body = [f"${r}$ & " + " & ".join(f"${n}$" for n in row) + " \\\\" for r, row in enumerate(denoms)]
    assert int_table(denoms, LATEX) == "\n".join([header, *body]) + "\n"
    plain = "".join(", ".join(str(n) for n in row) + "\n" for row in denoms)
    assert int_table(denoms, PLAIN) == plain


def test_json_tables_stream_the_bytes_of_one_dump(values, denoms):
    # a row at a time, yet byte for byte json.dumps(grid, indent=2) of the whole grid
    records = [[fraction_record(q.numerator, q.denominator) for q in row] for row in values]
    assert fraction_table(values, JSON) == render_json(records)
    assert int_table(denoms, JSON) == render_json([[json_int(n) for n in row] for row in denoms])
    assert int_table([[2**60, -1]], JSON) == render_json([[str(2**60), -1]])
    assert int_table([], JSON) == render_json([]) == "[]\n"
