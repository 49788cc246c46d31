import concurrent.futures
import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from math import prod
from pathlib import Path

import pytest

from bernshift import bernoulli, cli, verify
from bernshift.cli import build_parser, main
from bernshift.exact_arith import is_prime
from bernshift.render import json_int, latex_fraction, render_json
from reference_grid import REFERENCE_GRID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValue:
    def test_plain_examples(self, capsys):
        assert run_cli(capsys, "value", "2", "2") == (0, "2/15\n", "")
        assert run_cli(capsys, "value", "0", "0") == (0, "1\n", "")
        assert run_cli(capsys, "value", "4", "8") == (0, "2524/15015\n", "")

    def test_poly(self, capsys):
        code, out, _ = run_cli(capsys, "value", "1", "0", "--poly")
        assert code == 0
        assert out == "1/2, 1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "value", "2", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"num": 2, "den": 15}

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "value", "2", "2", "--format", "latex")
        assert out == "$\\frac{2}{15}$\n"

    def test_negative_index_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["value", "--", "-1", "2"])
        assert excinfo.value.code == 2


class TestTable:
    def test_plain_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "0", "3")
        assert code == 0
        assert out == "1, -1/2, 1/6, 0\n"

    def test_denoms(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "2", "--denoms")
        assert out == "1, 2, 6\n2, 3, 6\n6, 6, 15\n"

    def test_csv_bytes_and_stability(self, capsys):
        code, first, _ = run_cli(capsys, "table", "2", "2", "--format", "csv")
        assert code == 0
        assert first == "1,-1/2,1/6\r\n1/2,-1/3,1/6\r\n1/6,-1/6,2/15\r\n"
        _, second, _ = run_cli(capsys, "table", "2", "2", "--format", "csv")
        assert first == second

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "3", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert render_json(parsed) == out
        assert parsed[2][2] == {"num": 2, "den": 15}

    def test_latex_body_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "8", "8", "--format", "latex")
        lines = out.splitlines()
        header = "$r{\\backslash}s$ & " + " & ".join(f"${s}$" for s in range(9)) + " \\\\\\hline"
        assert lines[0] == header
        assert len(lines) == 10
        for r, line in enumerate(lines[1:]):
            cells = " & ".join(latex_fraction(q.numerator, q.denominator) for q in REFERENCE_GRID[r])
            assert line == f"${r}$ & " + cells + " \\\\"


class Recorder(io.StringIO):
    """A stdout that also keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestTableStream:
    @pytest.mark.parametrize("denoms", [False, True], ids=["values", "denoms"])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "latex", "json"])
    def test_each_write_is_one_row(self, fmt, denoms):
        out = Recorder()
        with contextlib.redirect_stdout(out):
            assert main(["table", "40", "40", "--format", fmt, *(["--denoms"] if denoms else [])]) == 0
        writes = out.writes
        if fmt == "json":
            # "[" with row 0, "," with each later row, then the closing "]"
            assert writes[-1] == "\n]\n"
            rows = [json.loads(w[1:]) for w in writes[:-1]]
            assert [len(row) for row in rows] == [41] * 41
            assert rows == json.loads(out.getvalue())
        else:
            # one line per row, and the latex header on its own
            assert len(writes) == 41 + (fmt == "latex")
            assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)

    def test_memory_stays_under_a_quarter_of_the_output(self):
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

            def flush(self):
                pass

        with contextlib.redirect_stdout(Sink()):  # load the modules the command imports, uncounted
            main(["table", "1", "1", "--format", "csv"])
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(["table", "120", "120", "--format", "csv"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 2_000_000
        assert peak < sink.size / 4

    def test_refused_tables_write_nothing(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--", "-1", "3"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

        real = bernoulli.BernoulliCache
        monkeypatch.setattr(bernoulli, "BernoulliCache", lambda capacity: real(capacity - 3))
        code, out, err = run_cli(capsys, "table", "30", "30", "--format", "latex")
        assert (code, out) == (2, "")  # not even the header, which needs no row
        assert "capacity" in err

        class WrongCache(real):  # B_4 read as 1/49 where the seed reads it, the integer pair
            __slots__ = ()

            def pair(self, n):
                return (1, 49) if n == 4 else super().pair(n)

        monkeypatch.setattr(bernoulli, "BernoulliCache", WrongCache)
        code, out, err = run_cli(capsys, "table", "30", "30", "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("FALSIFIED: denom(B_4) = 49")

    def test_plain_stringio_stdout(self):
        out = io.StringIO()  # no .buffer, as in perfbench's in-process replay
        with contextlib.redirect_stdout(out):
            assert main(["table", "2", "2", "--format", "csv"]) == 0
        assert out.getvalue() == "1,-1/2,1/6\r\n1/2,-1/3,1/6\r\n1/6,-1/6,2/15\r\n"


class TestPsi:
    def test_plain_examples(self, capsys):
        assert run_cli(capsys, "psi", "2", "2", "5") == (0, "1\n", "")
        assert run_cli(capsys, "psi", "2", "2", "11") == (0, "0\n", "")

    def test_show_indices(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "3", "3", "5", "--show-indices")
        assert code == 0
        assert out == "3  {ν=1}\n"
        code, out, _ = run_cli(capsys, "psi", "2", "2", "11", "--show-indices")
        assert out == "0  {}\n"
        # only plain output changes
        assert run_cli(capsys, "psi", "3", "3", "5", "--show-indices", "--format", "csv") == (0, "3\r\n", "")
        assert run_cli(capsys, "psi", "3", "3", "5", "--show-indices", "--format", "latex") == (0, "$3$\n", "")

    def test_json_with_big_value(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "200", "200", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == str(2**199)
        code, out, _ = run_cli(capsys, "psi", "3", "3", "5", "--format", "json", "--show-indices")
        assert json.loads(out) == {"r": 3, "s": 3, "p": 5, "value": 3, "indices": [1]}

    def test_composite_p_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "psi", "2", "2", "4")
        assert code == 2
        assert out == ""
        assert "prime" in err


class TestDenom:
    def test_plain_and_factored(self, capsys):
        assert run_cli(capsys, "denom", "8", "8")[:2] == (0, "36465\n")
        _, out, _ = run_cli(capsys, "denom", "8", "8", "--factor")
        assert out == "36465 = 3 * 5 * 11 * 13 * 17\n"
        _, out, _ = run_cli(capsys, "denom", "1", "2", "--factor")
        assert out == "6 = 2 * 3\n"
        _, out, _ = run_cli(capsys, "denom", "0", "7", "--factor")
        assert out == "1 = 1\n"
        # only plain output changes
        assert run_cli(capsys, "denom", "8", "8", "--factor", "--format", "csv") == (0, "36465\r\n", "")
        assert run_cli(capsys, "denom", "8", "8", "--factor", "--format", "latex") == (0, "$36465$\n", "")

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "denom", "8", "8", "--format", "json")
        assert json.loads(out) == {
            "r": 8,
            "s": 8,
            "value": 36465,
            "eps2": 0,
            "primes": [3, 5, 11, 13, 17],
        }


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "reciprocity", "--max-r", "8", "--max-s", "8")
        assert code == 0
        assert "81 instances" in out
        assert out.rstrip().endswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "antidiagonal", "--max-r", "10", "--max-s", "10", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["instances"] == 21

    def test_jobs_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "paths", "--max-r", "12", "--max-s", "12", "--jobs", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_unsupported_format_is_usage_error(self, capsys):
        for fmt in ("csv", "latex"):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "reciprocity", "--max-r", "4", "--max-s", "4", "--format", fmt])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "plain" in captured.err and "json" in captured.err

    @pytest.mark.parametrize("crash", ["broken-pool", "memory"])
    def test_crash_exits_three(self, capsys, monkeypatch, crash):
        if crash == "broken-pool":
            # run_verify's own pool path meets a real BrokenProcessPool; no process is started
            class DeadPool:
                def __init__(self, max_workers):
                    pass

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    return False

                def submit(self, *args):
                    raise BrokenProcessPool("a worker was terminated abruptly")

            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadPool)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            # paths at its default range stays in one process; lower its crossover
            paths = verify.PROPERTIES["paths"]
            monkeypatch.setitem(verify.PROPERTIES, "paths", paths._replace(pool_from=0))
        else:

            def out_of_memory(*args, **kwargs):
                raise MemoryError

            monkeypatch.setattr(verify, "run_verify", out_of_memory)
        code, out, err = run_cli(capsys, "verify", "paths", "--jobs", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if crash == "broken-pool":
            assert err == "error: a sweep worker process died: a worker was terminated abruptly\n"

    def test_unknown_property_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "bogus"])
        assert excinfo.value.code == 2


class TestParser:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_non_numeric_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["value", "two", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_huge_argument_still_exits_two(self, capsys):
        # the digit limit is lifted for output only, never for argument parsing
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as excinfo:
            main(["value", "1" * 5000, "2"])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert main(["value", "2", "2"]) == 0
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "argv",
        [["value", "2", "2"], ["table", "2", "2"], ["psi", "2", "2", "5"], ["denom", "2", "2"]],
        ids=["value", "table", "psi", "denom"],
    )
    def test_jobs_is_verify_only(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "paths", "--jobs", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive integer" in captured.err

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["value", "2", "3", "--format", "json"])
        assert (args.r, args.s, args.fmt) == (2, 3, "json")


SRC = Path(__file__).resolve().parents[1] / "src"


def _env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports bernshift from this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=False, env=_env()
    )


def test_module_entry_point_runs():
    proc = _python("-m", "bernshift", "value", "2", "2")
    assert proc.returncode == 0
    assert proc.stdout == "2/15\n"


def _newly_loaded(code: str) -> set[str]:
    """Modules a fresh interpreter loads while running code, beyond what its start-up loaded."""
    probe = f"import sys; before = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))"
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())  # the last line; a command prints above it


ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


def test_import_leaves_process_pool_unloaded():
    loaded = _newly_loaded("import bernshift.cli")
    assert "bernshift.cli" in loaded
    unwanted = {
        "concurrent.futures",
        "concurrent.futures.process",
        "dataclasses",
        "inspect",
        "json",
        "logging",
        "multiprocessing",
        "bernshift.verify",
        *ARGPARSE_MODULES,  # loaded only for a request the strict parser declines
    }
    assert loaded & unwanted == set()


PLAIN_REQUESTS = [
    ["value", "7", "5", "--format", "json"],
    ["table", "3", "4", "--denoms", "--format", "csv"],
    ["psi", "3", "3", "5", "--show-indices"],
    ["denom", "30", "30", "--factor"],
    ["verify", "paths", "--max-r", "8", "--jobs", "1", "--max-s", "8"],
]


@pytest.mark.parametrize("argv", PLAIN_REQUESTS, ids=lambda argv: argv[0])
def test_a_plain_request_loads_no_argparse(argv):
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main({argv!r}) == 0")
    assert loaded & ARGPARSE_MODULES == set()


def test_a_request_the_grammar_refuses_is_worded_by_argparse():
    code = textwrap.dedent(
        """
        import contextlib, io
        from bernshift.cli import main

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                main(["verify", "no-such-property"])
            except SystemExit as exc:
                assert exc.code == 2
            else:
                raise AssertionError("no usage error")
        assert "error: argument property: invalid choice: 'no-such-property'" in err.getvalue(), err.getvalue()
        """
    )
    assert "argparse" in _newly_loaded(code)


# what argparse words in perfbench's invalid templates, after "value --" or at the end; the
# other invalid requests (psi at a p that is no prime) parse and are refused by the command
ARGPARSE_WORDED = ("xml", "csv", "no-such-property")


@pytest.mark.parametrize("name", ["acceptance", "acceptance-jobs2", "cli", "deep"])
def test_the_benchmark_requests_take_the_strict_path(workloads, name):
    requests = workloads.block(name, 1, 0)
    worded = [r for r in requests if r.kind == "invalid" and (r.argv[1] == "--" or r.argv[-1] in ARGPARSE_WORDED)]
    assert [r for r in requests if cli._strict_args(list(r.argv)) is None] == worded


def test_closed_pipe_exits_three_without_traceback():
    with subprocess.Popen(
        [sys.executable, "-m", "bernshift", "table", "200", "200", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
    ) as proc:  # closes stderr too on the way out
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes, like `head -n 1`
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    assert first.startswith(b"1,-1/2,1/6,0,")
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["denom", "0", str(10**20)],
        ["value", "0", str(10**20)],
        ["table", "1", str(10**20)],
        ["verify", "paths", "--max-r", str(10**20)],
    ],
    ids=["denom", "value", "table", "verify"],
)
def test_a_request_too_large_to_index_exits_two(capsys, argv):
    # a size that cannot be an index is refused before anything is allocated: a usage error, not a lack of memory
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "out of memory" not in err


def test_denom_of_a_billion_answers_within_a_gigabyte():
    # the primes of denom(B_n) come from the divisors of n: a sieve to 10**9 + 1 ran out of memory under this limit
    limit = (10**9, 10**9)  # bytes of address space, as `ulimit -v 1000000`
    proc = subprocess.run(
        [sys.executable, "-m", "bernshift", "denom", "0", str(10**9), "--factor"],
        capture_output=True, text=True, env=_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    value, factors = proc.stdout.removesuffix("\n").split(" = ")
    primes = [int(p) for p in factors.split(" * ")]
    assert all(is_prime(p) and 10**9 % (p - 1) == 0 for p in primes), primes
    divisors = [2**a * 5**b for a in range(10) for b in range(10)]  # all 100 of 10**9 = 2^9 * 5^9
    assert primes == sorted(d + 1 for d in divisors if is_prime(d + 1)) and int(value) == prod(primes)


def test_default_verify_with_two_jobs_starts_no_pool():
    loaded = _newly_loaded(
        "from bernshift.cli import main\nassert main(['verify', 'reciprocity', '--jobs', '2']) == 0"
    )
    assert "bernshift.verify" in loaded
    assert loaded & {"concurrent.futures", "multiprocessing"} == set()


@pytest.mark.parametrize(
    "prop, layer",
    [
        ("psi-matrix", "bernshift.denom"),
        ("psi-congruences", "bernshift.denom"),
        ("hermite-stern", "bernshift.exact_arith"),
    ],
)
def test_integer_sweeps_load_no_bernoulli_number(prop, layer):
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main(['verify', {prop!r}]) == 0")
    assert {"bernshift.verify", layer} <= loaded
    assert loaded & {"bernshift.umbral", "bernshift.bernoulli"} == set()


@pytest.mark.parametrize("prop", ["reciprocity", "paths"])
def test_table_sweeps_without_psi_leave_denom_unloaded(prop):
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main(['verify', {prop!r}]) == 0")
    assert {"bernshift.verify", "bernshift.umbral"} <= loaded
    assert "bernshift.denom" not in loaded


SWEEP_MODULE_OF = {
    **dict.fromkeys(["reciprocity", "antidiagonal", "paths", "poly-reciprocity", "nonvanishing"], "table_sweeps"),
    **dict.fromkeys(["denominators", "integrality", "denom-divisibility"], "denom_sweeps"),
    **dict.fromkeys(["psi-matrix", "psi-congruences", "hermite-stern", "staudt-clausen"], "psi_sweeps"),
}


@pytest.mark.parametrize("prop", sorted(verify.PROPERTIES))
def test_a_verify_request_loads_only_its_own_sweep_module(prop):
    # each request compiles the one module that holds its runner, not the other two
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main(['verify', {prop!r}]) == 0")
    sweep_modules = {f"bernshift.{module}" for module in SWEEP_MODULE_OF.values()}
    assert loaded & sweep_modules == {f"bernshift.{SWEEP_MODULE_OF[prop]}"}


def test_package_import_loads_no_submodule():
    assert {m for m in _newly_loaded("import bernshift") if m.startswith("bernshift.")} == set()


@pytest.mark.parametrize(
    "argv",
    [["value", "2", "2"], ["psi", "3", "3", "5"], ["denom", "30", "30", "--factor"]],
    ids=["value", "psi", "denom"],
)
def test_small_requests_leave_sweeps_and_json_unloaded(argv):
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main({argv!r}) == 0")
    assert "bernshift.render" in loaded
    assert loaded & {"bernshift.verify", "json", "dataclasses", "inspect", "logging"} == set()
    if argv[0] != "value":  # psi and denom need no Bernoulli number
        assert loaded & {"bernshift.umbral", "bernshift.bernoulli"} == set()


FRACTION_FREE_REQUESTS = [
    ["value", "7", "5"],
    ["value", "7", "5", "--poly"],
    *(["table", "6", "4", "--format", fmt] for fmt in ("plain", "csv", "json", "latex")),
    ["table", "6", "4", "--denoms"],
    ["psi", "3", "3", "5"],
    ["denom", "30", "30", "--factor"],
    *(["verify", prop, "--max-r", "10", "--max-s", "10"] for prop in sorted(verify.PROPERTIES)),
]


@pytest.mark.parametrize("argv", FRACTION_FREE_REQUESTS, ids=" ".join)
def test_no_request_loads_fractions(argv):
    # every answer is computed and printed as integers; fractions (and the decimal and
    # numbers modules it pulls in) is loaded only to name a failed check
    loaded = _newly_loaded(f"from bernshift.cli import main\nassert main({argv!r}) == 0")
    assert loaded & {"fractions", "decimal", "numbers"} == set()


def test_a_failing_request_loads_no_fractions():
    # D * B_11 + 1 in the seed, as test_mutation_golden's seed_b11: each failure is
    # worded from integers too
    code = textwrap.dedent(
        """
        import bernshift.umbral as umbral
        from bernshift.cli import main

        real = umbral._scaled_bernoulli

        def mutated(cache, n):
            d, seed = real(cache, n)
            seed[11] += 1
            return d, seed

        umbral._scaled_bernoulli = mutated
        assert main(["verify", "nonvanishing"]) == 1
        """
    )
    loaded = _newly_loaded(code)
    assert "bernshift.table_sweeps" in loaded
    assert loaded & {"fractions", "decimal", "numbers"} == set()


@pytest.mark.parametrize("argv", [["value", "2", "2"], ["table", "2", "2"]])
def test_value_and_table_compile_umbral_before_bernoulli(argv):
    # with no bytecode cache, compiling umbral is the request's peak memory, lower before
    # bernoulli and exact_arith load; the "import" audit event marks where each import begins
    code = textwrap.dedent(
        f"""
        import sys
        from bernshift.cli import main

        order = []
        sys.addaudithook(lambda event, args: event == "import" and order.append(args[0]))
        main({argv!r})
        print(*order)
        """
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    order = proc.stdout.splitlines()[-1].split()
    assert order.index("bernshift.umbral") < min(order.index("bernshift.bernoulli"), order.index("bernshift.exact_arith"))


class TestEntry:
    """entry freezes the heap after main returns, so that shutdown skips the collector's walk."""

    def test_freezes_once_after_main_returns(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli, "main", lambda argv: events.append(("main", argv)) or 2)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["bernshift", "value", "2", "2"])
        with pytest.raises(SystemExit) as excinfo:
            cli.entry()
        assert excinfo.value.code == 2
        assert events == [("main", ["value", "2", "2"]), "freeze"]

    def test_an_exception_from_main_propagates_unfrozen(self, monkeypatch):
        def main(argv):
            raise RuntimeError("boom")

        frozen = []
        monkeypatch.setattr(cli, "main", main)
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        with pytest.raises(RuntimeError, match="boom"):
            cli.entry()
        assert frozen == []


def test_profiler_output_survives_the_frozen_exit():
    proc = _python("-m", "cProfile", "-m", "bernshift", "value", "2", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("2/15\n")
    assert "function calls" in proc.stdout  # the profile's header, printed at exit


def test_property_names_match_the_sweeps():
    assert cli.PROPERTY_NAMES == tuple(sorted(verify.PROPERTIES))


def test_readme_states_each_property_once():
    # the "What is checked" table is the one statement of each sweep's claim
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## What is checked\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(verify.PROPERTIES) == list(cli.PROPERTY_NAMES)


def test_json_int_threshold():
    assert json_int(2**53) == 2**53
    assert json_int(-(2**53)) == -(2**53)
    assert json_int(2**53 + 1) == str(2**53 + 1)
    assert json_int(-(2**53) - 1) == str(-(2**53) - 1)
