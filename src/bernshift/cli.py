"""Command-line surface: values, tables, psi sums, denominators, and sweeps.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(the witness is printed), 2 = usage error, 3 = the run could not finish (a
sweep worker process died, memory ran out, or standard output was closed
before the answer was written, as when piped into `head`; that last case
prints nothing).
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InvariantViolation, WorkerDied
from .render import (
    FORMATS,
    JSON,
    PLAIN,
    fraction_table_lines,
    int_table_lines,
    json_int,
    render_coefficients,
    render_fraction_value,
    render_json,
)

if TYPE_CHECKING:
    import argparse

# sorted(verify.PROPERTIES), spelled out so that a value, table, psi or denom
# request loads no bernshift.verify; each command imports only its own layer.
PROPERTY_NAMES = (
    "antidiagonal",
    "denom-divisibility",
    "denominators",
    "hermite-stern",
    "integrality",
    "nonvanishing",
    "paths",
    "poly-reciprocity",
    "psi-congruences",
    "psi-matrix",
    "reciprocity",
    "staudt-clausen",
)


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse  # only argparse calls this
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse  # only argparse calls this
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def cmd_value(args: argparse.Namespace) -> int:
    from .umbral import bs_direct, bs_polynomial  # before bernoulli: uncached, umbral compiles in less peak memory
    from .bernoulli import BernoulliCache

    # Two entries past B_{r+s}, the last one read: perfbench's tracer test pins
    # bernoulli.cache_build.capacity_max at r + s + 2 for a value request, and
    # ROADMAP item 18 moves both to r + s.  The two extras cost O(r + s) steps.
    cache = BernoulliCache(args.r + args.s + 2)
    if args.poly:
        pairs = bs_polynomial(cache, args.r, args.s, pairs=True)
        sys.stdout.write(render_coefficients(pairs, args.fmt))
    else:
        sys.stdout.write(render_fraction_value(*bs_direct(cache, args.r, args.s, pair=True), args.fmt))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from .umbral import reduced_rows  # before bernoulli: uncached, umbral compiles in less peak memory
    from .bernoulli import BernoulliCache

    rows = reduced_rows(BernoulliCache(args.max_r + args.max_s), args.max_r, args.max_s)
    if args.denoms:
        lines = int_table_lines(([den for _, den in row] for row in rows), args.fmt, args.max_s + 1)
    else:
        lines = fraction_table_lines(rows, args.fmt, args.max_s + 1)
    # one row at a time, from the recurrence to stdout: the table is never whole
    for line in lines:
        sys.stdout.write(line)
    return 0


def cmd_psi(args: argparse.Namespace) -> int:
    from .denom import psi

    result = psi(args.r, args.s, args.p)
    if args.fmt == JSON:
        payload: dict[str, object] = {
            "r": args.r,
            "s": args.s,
            "p": args.p,
            "value": json_int(result.value),
        }
        if args.show_indices:
            payload["indices"] = list(result.index_set)
        sys.stdout.write(render_json(payload))
    elif args.fmt == PLAIN and args.show_indices:
        inside = ", ".join(f"ν={v}" for v in result.index_set)
        sys.stdout.write(f"{result.value}  {{{inside}}}\n")
    else:
        sys.stdout.write(render_fraction_value(result.value, 1, args.fmt))
    return 0


def cmd_denom(args: argparse.Namespace) -> int:
    from .denom import denom_formula

    fact = denom_formula(args.r, args.s)
    if args.fmt == JSON:
        sys.stdout.write(
            render_json(
                {
                    "r": args.r,
                    "s": args.s,
                    "value": json_int(fact.value),
                    "eps2": fact.eps2,
                    "primes": list(fact.primes),
                }
            )
        )
    elif args.fmt == PLAIN and args.factor:
        parts = (["2"] if fact.eps2 else []) + [str(p) for p in fact.primes]
        sys.stdout.write(f"{fact.value} = {' * '.join(parts) if parts else '1'}\n")
    else:
        sys.stdout.write(render_fraction_value(fact.value, 1, args.fmt))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import PROPERTIES, report_payload, report_text, run_verify

    spec = PROPERTIES[args.property]
    max_r = spec.default_r if args.max_r is None else args.max_r
    max_s = spec.default_s if args.max_s is None else args.max_s
    report = run_verify(args.property, max_r, max_s, jobs=args.jobs)
    if args.fmt == JSON:
        sys.stdout.write(render_json(report_payload(report)))
    else:
        sys.stdout.write(report_text(report))
    return 0 if report.ok else 1


_FORMAT = ("--format", "fmt", FORMATS, PLAIN, "output format")

# Each command's grammar, stated once: build_parser builds argparse's parser from it and
# _strict_args reads it.  A command is (func, help, positionals, options), a positional
# (dest, rule) and an option (flag, dest, rule, default, help); a rule is a tuple of
# choices, the least integer allowed (None: any), or bool for a switch.
GRAMMAR = {
    "value": (cmd_value, "one exact value B[r,s], or its polynomial", (("r", 0), ("s", 0)),
              (_FORMAT, ("--poly", "poly", bool, False, "coefficients of B[r,s](x), lowest power first"))),
    "table": (cmd_table, "grid of B[r,s] for 0 <= r <= max_r, 0 <= s <= max_s", (("max_r", 0), ("max_s", 0)),
              (_FORMAT, ("--denoms", "denoms", bool, False, "render the denominators instead of the values"))),
    "psi": (cmd_psi, "binomial sum psi(r, s; p) over shifted multiples of p-1", (("r", 0), ("s", 0), ("p", None)),
            (_FORMAT, ("--show-indices", "show_indices", bool, False, "also print the contributing indices"))),
    "denom": (cmd_denom, "denominator of B[r,s] by the closed product formula", (("r", 0), ("s", 0)),
              (_FORMAT, ("--factor", "factor", bool, False, "print the prime factorization"))),
    "verify": (cmd_verify, "sweep one property over a range and report", (("property", PROPERTY_NAMES),), (
        ("--format", "fmt", (PLAIN, JSON), PLAIN, "output format"),
        ("--jobs", "jobs", 1, 1, "worker processes for sweeps"),
        ("--max-r", "max_r", 0, None, None),
        ("--max-s", "max_s", 0, None, None),
    )),
}


def _kind(rule: object) -> dict[str, object]:
    """argparse's keywords for a rule of GRAMMAR."""
    if rule is bool:
        return {"action": "store_true"}
    if isinstance(rule, tuple):
        return {"choices": rule}
    return {"type": {None: int, 0: _nonnegative, 1: _positive}[rule]}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bernshift",
        description="Exact shifted-sum Bernoulli numbers, their denominators, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, positionals, options) in GRAMMAR.items():
        p_command = sub.add_parser(command, help=summary)
        # help and usage list the optionals in add order, then the positionals in theirs
        for flag, dest, rule, default, text in options:
            p_command.add_argument(flag, dest=dest, default=default, help=text, **_kind(rule))
        for dest, rule in positionals:
            p_command.add_argument(dest, **_kind(rule))
        p_command.set_defaults(func=func)
    return parser


def _strict_value(rule: object, text: str) -> object:
    """text read under rule as argparse reads it, or None where argparse would refuse it."""
    if text.startswith("-"):
        return None
    if isinstance(rule, tuple):
        return text if text in rule else None
    try:
        value = int(text)
    except ValueError:  # also past the int-digit cap, still on here
        return None
    return value if rule is None or value >= rule else None


def _strict_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would build from argv, read straight off GRAMMAR, or None.

    Only a command, its exact option spellings with their values, and its positionals, in
    any order, are read; for anything else (an abbreviation, --opt=value, --, -h, a value
    argparse would refuse) argparse parses the request or words its error.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    func, _, positionals, options = GRAMMAR[argv[0]]
    args = {"command": argv[0], "func": func, **{dest: default for _, dest, _, default, _ in options}}
    rules = {flag: (dest, rule) for flag, dest, rule, _, _ in options}
    positionals, tokens = list(positionals), iter(argv[1:])
    for token in tokens:
        if token in rules:
            dest, rule = rules[token]
            value = True if rule is bool else _strict_value(rule, next(tokens, "-"))
        elif positionals:
            dest, rule = positionals.pop(0)
            value = _strict_value(rule, token)
        else:
            return None
        if value is None:
            return None
        args[dest] = value
    return None if positionals else SimpleNamespace(**args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _strict_args(argv)
    if args is None:  # not the plain form: argparse parses it, or words the error and exits 2
        args = build_parser().parse_args(argv)
    # Python caps int <-> str conversion at 4300 digits (3.10.7+).  The cap
    # stays on while arguments are parsed, where it stops quadratic parsing of
    # huge numbers, and is lifted for the answer, which may be any size.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is met inside the try
        return code
    except BrokenPipeError:
        # The reader has gone.  As the signal module's documentation advises,
        # point stdout at devnull, so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
    except (ValueError, OverflowError) as exc:  # OverflowError: a size too large to be an index
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    except WorkerDied as exc:
        print(f"error: a sweep worker process died: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    code = main(sys.argv[1:])
    # The answer is written.  Shutdown's collection walks every tracked
    # object, mostly start-up's, and skips frozen ones; atexit, the stream
    # flushes and profilers still run.  main never freezes, so in-process
    # callers keep a normal collector.
    gc.freeze()
    raise SystemExit(code)
