"""Renderers against the standard library's CSV writer and the plain cell forms.

``bernshift.render`` joins CSV records itself, since a cell (digits, ``-`` and
``/``) never needs quoting.  ``csv.writer`` stays here as the oracle that the
bytes are those of a conforming writer with CRLF line ends.
"""

import csv
import io

import pytest

from bernshift import BernoulliCache, bs_polynomial, bs_table_recursive
from bernshift.render import (
    CSV,
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
    return bs_table_recursive(cache, 11, 11).entries


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
    assert render_coefficients(coeffs, CSV) == csv_oracle([coeffs])


def test_scalar_csv_matches_csv_writer(values, denoms):
    for row_q, row_n in zip(values, denoms):
        for q, n in zip(row_q, row_n):
            assert render_fraction_value(q, CSV) == csv_oracle([[q]])
            assert render_fraction_value(n, CSV) == csv_oracle([[n]])


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
