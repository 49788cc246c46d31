"""Each fast route of routes.ROUTES against its oracle, and a slip in one found with a shrunk witness."""

import inspect
import re
import textwrap
import types

import pytest
from hypothesis import given, settings

import bernshift.cli as cli
import bernshift.exact_arith as exact_arith
from routes import ROUTES, SLIPS, main_args, parsed, parser, pascal_rows_at


def check(route):
    @settings(max_examples=route.examples)
    @given(route.strategy)
    def agrees(x):
        got, expected = route.fast(x), route.oracle(x)
        assert got == expected, f"{route.name}({x!r}) = {got}, expected {expected}"

    agrees()


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_fast_route_matches_its_oracle(name):
    check(ROUTES[name])


def test_the_shared_parser_reads_every_slip_as_a_fresh_one():
    # the cli-args row reads every line with one parser: no line it has read may change how it reads the next
    lines = [[slip] for slip in SLIPS]
    for command, (_, _, positionals, _) in cli.GRAMMAR.items():
        plain = [rule[0] if isinstance(rule, tuple) else "2" for _, rule in positionals]
        lines += [[command, *plain, slip] for slip in SLIPS] + [[command, slip, *plain] for slip in SLIPS]
    for argv in lines:
        assert parsed(parser().parse_args, argv) == parsed(cli.build_parser().parse_args, argv), argv


def test_a_divisor_walk_stopping_short_of_the_root_is_found_and_shrunk():
    # the low divisors taken while d * d < n: a square n loses its root, so clausen_primes(4) loses 3
    source = textwrap.dedent(inspect.getsource(exact_arith.clausen_primes))
    slipped = source.replace("range(1, isqrt(n) + 1)", "range(1, isqrt(n - 1) + 1)")
    assert slipped != source
    namespace = dict(vars(exact_arith))
    exec(compile(slipped, exact_arith.__file__, "exec"), namespace)
    with pytest.raises(AssertionError, match=re.escape("clausen_primes(4) = [2, 5], expected [2, 3, 5]")):
        check(ROUTES["clausen_primes"]._replace(fast=namespace["clausen_primes"]))


def test_a_pascal_walk_carrying_a_one_into_each_next_row_is_found_and_shrunk():
    # Pascal's rule pads the row with 0 at both ends; a 1 at its right end makes row 1 (1, 2)
    source = textwrap.dedent(inspect.getsource(exact_arith._pascal_rows))
    slipped = source.replace("(*row, 0)", "(*row, 1)")
    assert slipped != source
    namespace = dict(vars(exact_arith))
    exec(compile(slipped, exact_arith.__file__, "exec"), namespace)
    with pytest.raises(AssertionError, match=re.escape("pascal-rows([1]) = [(1, 2)], expected [(1, 1)]")):
        check(ROUTES["pascal-rows"]._replace(fast=lambda orders: pascal_rows_at(orders, namespace["_pascal_rows"])))


def test_a_jobs_minimum_slipped_to_zero_in_the_strict_parser_is_found_and_shrunk():
    # the strict parser alone reads --jobs from 0; argparse, built from the table as it is, still refuses 0
    func, summary, positionals, options = cli.GRAMMAR["verify"]
    slipped = tuple(option[:2] + (0,) + option[3:] if option[0] == "--jobs" else option for option in options)
    assert slipped != options
    grammar = {**cli.GRAMMAR, "verify": (func, summary, positionals, slipped)}
    strict = types.FunctionType(cli._strict_args.__code__, {**vars(cli), "GRAMMAR": grammar})
    witness = re.escape("cli-args(['verify', 'antidiagonal', '--jobs', '0']) = {")
    with pytest.raises(AssertionError, match=witness + ".*, expected \\('exit', 2\\)"):
        check(ROUTES["cli-args"]._replace(fast=lambda argv: main_args(argv, strict)))
