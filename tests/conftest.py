import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from classlab.suite import run_suite
from classlab.universe import build_universe, save_catalog


@pytest.fixture(scope="session")
def default_catalog():
    return build_universe()


@pytest.fixture(scope="session")
def universe_file(default_catalog, tmp_path_factory):
    path = tmp_path_factory.mktemp("universe") / "default.txt"
    save_catalog(default_catalog, str(path))
    return str(path)


@pytest.fixture(scope="session")
def suite_results(default_catalog):
    """One full verification-suite run over the default catalog, shared by the
    acceptance tests."""
    results = run_suite(default_catalog)
    return {r.name: r for r in results}
