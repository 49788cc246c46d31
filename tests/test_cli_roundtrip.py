"""CLI output in each of the four formats parses back to the library's exact value."""

import contextlib
import io
import json
import re
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from bernshift import BernoulliCache, bs_direct, bs_via_difference, denom_formula, psi
from bernshift.cli import main
from bernshift.render import FORMATS

_PLAIN = re.compile(r"-?\d+(?:/\d+)?")
_LATEX = re.compile(r"\$(-?)\\frac\{(\d+)\}\{(\d+)\}\$|\$(-?\d+)\$")

indices = st.integers(min_value=0, max_value=30)
formats = st.sampled_from(FORMATS)
small_primes = st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
examples = settings(max_examples=60, deadline=None)


def _json_number(v) -> int:
    """An int inside the double-exact range, a decimal string outside it."""
    assert isinstance(v, int) == (abs(int(v)) <= 2**53)
    return int(v)


def parse_scalar(out: str, fmt: str) -> Fraction:
    if fmt == "json":
        payload = json.loads(out)
        if "num" in payload:
            return Fraction(_json_number(payload["num"]), _json_number(payload["den"]))
        return Fraction(_json_number(payload["value"]))
    ending = "\r\n" if fmt == "csv" else "\n"
    assert out.endswith(ending) and out.count("\n") == 1
    text = out[: -len(ending)]
    if fmt == "latex":
        sign, num, den, whole = _LATEX.fullmatch(text).groups()
        return Fraction(int(whole)) if whole else Fraction(int(sign + num), int(den))
    assert _PLAIN.fullmatch(text)
    return Fraction(text)


def run(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


@examples
@given(indices, indices, formats)
def test_value_round_trips(cache, r, s, fmt):
    out = run("value", str(r), str(s), "--format", fmt)
    assert parse_scalar(out, fmt) == bs_direct(cache, r, s)


@examples
@given(indices, indices, small_primes, formats)
def test_psi_round_trips(r, s, p, fmt):
    out = run("psi", str(r), str(s), str(p), "--format", fmt)
    assert parse_scalar(out, fmt) == psi(r, s, p).value


@examples
@given(indices, indices, formats)
def test_denom_round_trips(r, s, fmt):
    out = run("denom", str(r), str(s), "--format", fmt)
    assert parse_scalar(out, fmt) == denom_formula(r, s).value


@pytest.fixture
def no_digit_limit():
    """Lift Python's int/str digit limit while a test parses huge outputs back."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_value_past_the_digit_limit_round_trips(no_digit_limit):
    # A 1001x1001 table is out of reach at r + s = 2000, so the oracle is the
    # forward-difference route, independent of the defining sum `value` uses.
    expected = bs_via_difference(BernoulliCache(2000), 1000, 1000)
    assert len(str(expected.numerator)) == 4735
    for fmt in ("plain", "json"):
        assert parse_scalar(run("value", "1000", "1000", "--format", fmt), fmt) == expected


def test_denom_past_the_digit_limit_round_trips(no_digit_limit):
    expected = denom_formula(100000, 100000).value
    assert len(str(expected)) > 4300
    for fmt in ("plain", "json"):
        assert parse_scalar(run("denom", "100000", "100000", "--format", fmt), fmt) == expected
    value, _, factors = run("denom", "100000", "100000", "--factor").rstrip("\n").partition(" = ")
    assert int(value) == prod(map(int, factors.split(" * "))) == expected
