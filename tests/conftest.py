import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from bernshift import BernoulliCache, bs_direct

# The same examples on every run and every machine: drawn from a fixed seed, none read from or saved to a database,
# and no deadline, so a slow or busy machine fails no example.  max_examples is left to each test.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def cache():
    """One sealed cache large enough for every range the suite sweeps."""
    return BernoulliCache(202)


@pytest.fixture(scope="session")
def grid80(cache):
    """B[r,s] for 0 <= r,s <= 80, all computed by the defining sum."""
    return {(r, s): bs_direct(cache, r, s) for r in range(81) for s in range(81)}


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module
