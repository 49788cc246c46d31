"""The package's exported names, and the ones the benchmark in perfbench/ imports.

perfbench/ drives the library through a fixed set of names; checking them
here keeps a rename from surfacing only when the slow benchmark suite runs.
"""

import inspect

import pytest

import bernshift
from bernshift import bernoulli, cli, denom, exact_arith, umbral, verify


def test_every_exported_name_exists():
    missing = [name for name in bernshift.__all__ if not hasattr(bernshift, name)]
    assert missing == []


def test_names_the_benchmark_imports_exist():
    for name in ("PROPERTIES", "BernoulliCache", "bs_direct", "bs_table_recursive", "denom_exact", "psi"):
        assert hasattr(bernshift, name), name
    assert umbral.bs_direct is bernshift.bs_direct
    assert callable(cli.main)
    assert callable(verify.run_verify)
    for spec in verify.PROPERTIES.values():
        assert callable(spec.runner)
        assert isinstance(spec.parallel, bool)
        assert spec.default_r >= 1 and spec.default_s >= 1
    assert {"runner", "parallel", "default_r", "default_s"} <= set(type(spec)._fields)


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(bernshift.__all__) <= set(dir(bernshift))
    with pytest.raises(AttributeError):
        bernshift.no_such_name
    assert bernshift.run_verify is verify.run_verify


def test_names_resolve_to_their_defining_modules():
    assert bernshift.BernoulliCache is bernoulli.BernoulliCache
    assert bernshift.bs_via_difference is umbral.bs_via_difference
    assert bernshift.BernoulliCache.__module__ == "bernshift.bernoulli"
    assert bernshift.bs_via_difference.__module__ == "bernshift.umbral"


DELETED = {  # defining module -> the names it no longer has
    bernoulli: ("Poly", "bernoulli_polynomial", "hermite_stern_check"),
    denom: ("psi_periodicity_check", "psi_reciprocity_check", "_psi_periodic", "_psi_reciprocal"),
    exact_arith: ("least_positive_residue",),
    umbral: ("forward_difference",),
}


@pytest.mark.parametrize(
    "name",
    ["binomial", "grabisch_b", "bs_shift_identity_check", *(n for names in DELETED.values() for n in names)],
)
def test_deleted_names_are_gone(name):
    assert name not in bernshift.__all__
    with pytest.raises(AttributeError):
        getattr(bernshift, name)


def test_deleted_names_are_gone_from_their_modules():
    for module, names in DELETED.items():
        for name in names:
            with pytest.raises(AttributeError):
                getattr(module, name)
    # a polynomial is a coefficient tuple from bs_polynomial or umbral._scaled_polynomial,
    # and denominators come from reduced_rows: a BsTable only holds and reads values
    for name in ("polynomial", "scaled_polynomial", "denominators", "_check_inside", "entries"):
        assert not hasattr(umbral.BsTable, name), name
    # README's "What is checked" table states each claim; denom(B_n)'s primes take no sieve
    assert "description" not in verify.PropertySpec._fields
    assert list(inspect.signature(exact_arith.clausen_primes).parameters) == ["n"]


def test_no_record_has_an_instance_dict():
    # every record is a tuple with empty __slots__: it carries no per-instance cache
    table = umbral.bs_table_recursive(bernoulli.BernoulliCache(4), 2, 2)
    records = (table, denom.psi(4, 2, 3), denom.denom_formula(4, 4), verify.run_verify("psi-matrix", 5, 5))
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
