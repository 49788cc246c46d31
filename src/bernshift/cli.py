"""Command-line surface: values, tables, psi sums, denominators, and sweeps.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(the witness is printed), 2 = usage error, 3 = the run could not finish (a
sweep worker process died, memory ran out, or standard output was closed
before the answer was written, as when piped into `head`; that last case
prints nothing).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Optional, Sequence

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

# sorted(verify.PROPERTIES), spelled out so that building the parser does not
# import the sweeps; each command imports only the layer it runs.
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
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def cmd_value(args: argparse.Namespace) -> int:
    from .bernoulli import BernoulliCache
    from .umbral import bs_direct, bs_polynomial

    cache = BernoulliCache(args.r + args.s + 2)
    if args.poly:
        sys.stdout.write(render_coefficients(bs_polynomial(cache, args.r, args.s), args.fmt))
    else:
        sys.stdout.write(render_fraction_value(bs_direct(cache, args.r, args.s), args.fmt))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from .bernoulli import BernoulliCache
    from .umbral import reduced_rows

    rows = reduced_rows(BernoulliCache(args.max_r + args.max_s + 2), args.max_r, args.max_s)
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
        sys.stdout.write(render_fraction_value(result.value, args.fmt))
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
        sys.stdout.write(render_fraction_value(fact.value, args.fmt))
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="fmt", choices=FORMATS, default=PLAIN, help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="bernshift",
        description="Exact shifted-sum Bernoulli numbers, their denominators, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser(
        "value", parents=[common], help="one exact value B[r,s], or its polynomial"
    )
    p_value.add_argument("r", type=_nonnegative)
    p_value.add_argument("s", type=_nonnegative)
    p_value.add_argument(
        "--poly", action="store_true", help="coefficients of B[r,s](x), lowest power first"
    )
    p_value.set_defaults(func=cmd_value)

    p_table = sub.add_parser(
        "table", parents=[common], help="grid of B[r,s] for 0 <= r <= max_r, 0 <= s <= max_s"
    )
    p_table.add_argument("max_r", type=_nonnegative)
    p_table.add_argument("max_s", type=_nonnegative)
    p_table.add_argument(
        "--denoms", action="store_true", help="render the denominators instead of the values"
    )
    p_table.set_defaults(func=cmd_table)

    p_psi = sub.add_parser(
        "psi", parents=[common], help="binomial sum psi(r, s; p) over shifted multiples of p-1"
    )
    p_psi.add_argument("r", type=_nonnegative)
    p_psi.add_argument("s", type=_nonnegative)
    p_psi.add_argument("p", type=int)
    p_psi.add_argument(
        "--show-indices", action="store_true", help="also print the contributing indices"
    )
    p_psi.set_defaults(func=cmd_psi)

    p_denom = sub.add_parser(
        "denom", parents=[common], help="denominator of B[r,s] by the closed product formula"
    )
    p_denom.add_argument("r", type=_nonnegative)
    p_denom.add_argument("s", type=_nonnegative)
    p_denom.add_argument(
        "--factor", action="store_true", help="print the prime factorization"
    )
    p_denom.set_defaults(func=cmd_denom)

    p_verify = sub.add_parser("verify", help="sweep one property over a range and report")
    p_verify.add_argument("property", choices=PROPERTY_NAMES)
    p_verify.add_argument(
        "--format", dest="fmt", choices=(PLAIN, JSON), default=PLAIN, help="output format"
    )
    p_verify.add_argument("--jobs", type=_positive, default=1, help="worker processes for sweeps")
    p_verify.add_argument("--max-r", type=_nonnegative, default=None)
    p_verify.add_argument("--max-s", type=_nonnegative, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except ValueError as exc:
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
