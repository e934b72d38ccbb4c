import re

import pytest

from classlab import classes
from classlab.config import Caps
from classlab.suite import CHECKS, CheckResult, check_names, run_suite
from classlab.universe import build_universe


@pytest.fixture(scope="module")
def d4_catalog():
    return build_universe(sym_degree=4, extras=[])


class TestRegistry:
    def test_names_unique(self):
        names = check_names()
        assert len(names) == len(set(names))

    def test_names_are_kebab_case(self):
        for name in check_names():
            assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", name), name

    def test_expected_sections_present(self):
        names = check_names()
        for prefix in ("perm-", "structure-", "universe-", "classes-",
                       "realization-"):
            assert any(n.startswith(prefix) for n in names), prefix
        for required in ("dual-union-vs-meet-c6", "c4-finite-set-chain",
                         "hat-cyclic-equals-solvable", "dual-class-equalities",
                         "bidual-three-routes", "dual-chain-cyclicity",
                         "taxonomy-table", "fnr-witnesses", "split-extensions"):
            assert required in names, required

    def test_registry_matches_callables(self):
        for name, fn in CHECKS:
            assert callable(fn), name


class TestRunSuite:
    def test_all_pass_on_small_catalog(self, d4_catalog):
        results = run_suite(d4_catalog)
        assert [r.name for r in results] == check_names()
        failing = [(r.name, r.witness) for r in results if r.status != "pass"]
        assert failing == []

    def test_deterministic_outcomes(self, d4_catalog):
        first = [(r.name, r.status, r.witness) for r in run_suite(d4_catalog)]
        second = [(r.name, r.status, r.witness) for r in run_suite(d4_catalog)]
        assert first == second

    def test_name_filter(self, d4_catalog):
        results = run_suite(d4_catalog, name_filter="perm-")
        assert results
        assert all(r.name.startswith("perm-") for r in results)

    def test_filter_without_matches(self, d4_catalog):
        assert run_suite(d4_catalog, name_filter="no-such-check") == []

    def test_low_subgroup_limit_skips(self, d4_catalog):
        results = run_suite(d4_catalog, caps=Caps(subgroup_limit=3),
                            name_filter="structure-normal-lattice-brute")
        assert len(results) == 1
        assert results[0].status == "skipped"
        assert "reason" in results[0].witness

    def test_iso_closure_sees_a_verdict_that_depends_on_the_realization(
            self, d4_catalog, monkeypatch):
        # A nilpotency test that reads the degree separates isomorphic copies
        # of different degrees; every trio has such copies.
        monkeypatch.setattr(classes, "is_nilpotent", lambda G: G.degree <= 5)
        results = run_suite(d4_catalog, name_filter="classes-iso-closure")
        assert [r.status for r in results] == ["fail"]
        assert results[0].witness == {"disagreements": [
            {"class": "nilpotent", "trio": trio} for trio in ("A5", "S3", "C6")]}


class TestCheckResult:
    def test_json_dict_shapes(self):
        passed = CheckResult("demo", "pass", None, 0.5)
        assert passed.to_json_dict() == {"name": "demo", "status": "pass"}
        failed = CheckResult("demo", "fail", {"k": 1}, 0.5)
        assert failed.to_json_dict() == {"name": "demo", "status": "fail",
                                         "witness": {"k": 1}}

    def test_duration_not_serialized(self):
        assert "duration" not in CheckResult("demo", "pass", None, 1.0).to_json_dict()
