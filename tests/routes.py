"""The differential table: each fast route beside the slow form it replaced, kept as its oracle.

A row is (name, fast, oracle, strategy, examples): fast(x) must equal oracle(x) for every x of the
examples (60 unless a row asks for more) the strategy draws.
test_routes.py checks each row under the derandomized tier1 profile, so a failure names a shrunk witness.
"""

import contextlib
import functools
import io
from collections import namedtuple
from itertools import chain
from math import comb

from hypothesis import strategies as st

import oracles
from bernshift import cli
from bernshift.exact_arith import _pascal_rows, clausen_primes

Route = namedtuple("Route", "name fast oracle strategy examples", defaults=(60,))

SIEVED_UP_TO = 5000  # the sieve oracle's reach: tests/test_bernoulli.py checks every n up to it
KNOWN_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 9_901, 999_983)  # a larger n is a product of these


@st.composite
def _known_products(draw, bound):
    """An even n <= bound, 2 times a product of KNOWN_PRIMES, so its factorization is known."""
    n = 2
    for p in draw(st.lists(st.sampled_from(KNOWN_PRIMES), max_size=40)):
        n *= p if n * p <= bound else 1
    return n


def pascal_rows_at(orders, walk=_pascal_rows):
    """The rows C(m, 0..m) at each of the orders, taken from one walk to the largest of them."""
    rows = list(walk(max(orders)))
    return [rows[m] for m in orders]


def parsed(parse, argv):
    """The dict of the namespace parse(argv) returns, or ("exit", code) where argparse exits; its writes are dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


@functools.cache
def parser():
    """cli.build_parser(), built once and shared: the cli-args row reads hundreds of lines."""
    return cli.build_parser()


def main_args(argv, strict=cli._strict_args):
    """What main runs with: the strict parser's namespace, or argparse's where the strict parser declines."""
    return parsed(lambda argv: strict(argv) or parser().parse_args(argv), argv)


# what only argparse reads or refuses: spellings, values, a number past the int-digit cap, a command
SLIPS = ("--", "-h", "--help", "--fac", "--form", "--max", "--j", "--format=json", "--jobs=2", "-x", "-7",
         "+5", "1_0", " 3", "", "two", "xml", "no-such-property", "1" * 4301, "bogus")


def _values(rule):
    """Values under a rule of cli.GRAMMAR: each choice, or the least integer allowed and its neighbours."""
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    least = 0 if rule is None else rule
    return st.integers(least - 1, least + 1).map(str)


@st.composite
def _command_lines(draw):
    """A command with its positionals and options (repeats allowed) in any order, then at most one slip:
    a token dropped, replaced or joined by one of SLIPS."""
    command = draw(st.sampled_from(list(cli.GRAMMAR)))
    _, _, positionals, options = cli.GRAMMAR[command]
    chunks = [[draw(_values(rule))] for _, rule in positionals]
    for flag, _, rule, _, _ in draw(st.lists(st.sampled_from(options), max_size=4)):
        chunks.append([flag] if rule is bool else [flag, draw(_values(rule))])
    argv = [command, *chain.from_iterable(draw(st.permutations(chunks)))]
    if draw(st.booleans()):
        at, slip = draw(st.integers(0, len(argv))), draw(st.sampled_from(SLIPS))
        argv[at : at + draw(st.integers(0, 1))] = draw(st.sampled_from(([], [slip])))
    return argv


ROUTES = {
    "clausen_primes": Route(
        "clausen_primes",
        clausen_primes,
        lambda n: oracles.clausen_primes(n) if n <= SIEVED_UP_TO else oracles.clausen_primes_over(n, KNOWN_PRIMES),
        # and squares: a divisor walk to sqrt(n) meets the root there, the edge a slip in its bound misses
        st.one_of(
            st.integers(0, SIEVED_UP_TO),
            _known_products(10**12),
            _known_products(10**6).map(lambda root: root * root),
        ),
    ),
    "pascal-rows": Route(
        "pascal-rows",
        pascal_rows_at,
        lambda orders: [tuple(comb(m, v) for v in range(m + 1)) for m in orders],
        # orders up to 500, far past those the sweeps read at their defaults: each row of a walk, however long, is right
        st.lists(st.integers(0, 500), min_size=1, max_size=4),
        12,  # each example walks to its largest order: 18 ms at 500
    ),
    "cli-args": Route(
        "cli-args",
        main_args,
        lambda argv: parsed(parser().parse_args, argv),
        _command_lines(),
        300,  # a slip in one option of one command shows only on a plain line of that command
    ),
}
