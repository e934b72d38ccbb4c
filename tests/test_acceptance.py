"""Acceptance gate: every advertised outcome, each as one pass/fail test line.

The shared `suite_results` fixture runs the registered verification suite once
over the default 45-group catalog; each test here asserts that its checks
passed and stayed inside the stated time budget, then prints a one-line
verdict. The determinism test runs the command-line selftest twice in
subprocesses and compares full JSON reports modulo the timing block, with each
other and with the pinned digest of the report.
"""

import hashlib
import json
import subprocess
import sys

BUDGETS_S = {
    "dual-union-vs-meet-c6": 1.0,
    "c4-finite-set-chain": 30.0,
    "hat-cyclic-equals-solvable": 120.0,
    "dual-class-equalities": 120.0,
    "bidual-three-routes": 120.0,
    "dual-chain-cyclicity": 180.0,
    "taxonomy-table": 180.0,
    "realization-certificates": 300.0,
    "split-extensions": 120.0,
    "fnr-witnesses": 30.0,
    "structure-disjoint-normal-covers": 300.0,
    "structure-simple-quotient-lemma": 300.0,
}


def _require(suite_results, label, names, budget_s):
    total = 0.0
    for name in names:
        result = suite_results[name]
        assert result.status == "pass", (
            f"{label}: check {name} {result.status}: {result.witness}")
        total += result.duration
    assert total < budget_s, f"{label}: took {total:.2f}s, budget {budget_s}s"
    print(f"{label}: PASS ({total:.2f}s < {budget_s:.0f}s)")


def test_criterion_01_union_vs_meet_dual(suite_results):
    _require(suite_results, "criterion 1 (C6 separates dual-of-meet from duals)",
             ["dual-union-vs-meet-c6"], BUDGETS_S["dual-union-vs-meet-c6"])


def test_criterion_02_c4_finite_set_chain(suite_results):
    _require(suite_results, "criterion 2 (C4 chain in/out/out/in, universe levels)",
             ["c4-finite-set-chain"], BUDGETS_S["c4-finite-set-chain"])


def test_criterion_03_hat_cyclic_is_solvable(suite_results):
    _require(suite_results, "criterion 3 (cyclic-built groups = solvable)",
             ["hat-cyclic-equals-solvable"],
             BUDGETS_S["hat-cyclic-equals-solvable"])


def test_criterion_04_dual_class_equalities(suite_results):
    _require(suite_results, "criterion 4 (four duals agree and match p-meet)",
             ["dual-class-equalities"], BUDGETS_S["dual-class-equalities"])


def test_criterion_05_bidual_three_routes(suite_results):
    _require(suite_results, "criterion 5 (three bidual routes agree)",
             ["bidual-three-routes"], BUDGETS_S["bidual-three-routes"])


def test_criterion_06_dual_chain_cyclicity(suite_results):
    _require(suite_results, "criterion 6 (dual-depth collapsing)",
             ["dual-chain-cyclicity"], BUDGETS_S["dual-chain-cyclicity"])


def test_criterion_07_taxonomy_table(suite_results):
    _require(suite_results, "criterion 7 (closure taxonomy of seven classes)",
             ["taxonomy-table"], BUDGETS_S["taxonomy-table"])


def test_criterion_08_realization_certificates(suite_results):
    _require(suite_results,
             "criterion 8 (certificates for all small groups incl. 14400 brute)",
             ["realization-certificates"], BUDGETS_S["realization-certificates"])


def test_criterion_09_split_extensions(suite_results):
    _require(suite_results, "criterion 9 (complements where theory demands)",
             ["split-extensions"], BUDGETS_S["split-extensions"])


def test_criterion_10_fnr_witnesses(suite_results):
    _require(suite_results, "criterion 10 (no-prime-quotient class witnesses)",
             ["fnr-witnesses"], BUDGETS_S["fnr-witnesses"])


def test_criterion_11_structure_lemmas(suite_results):
    _require(suite_results,
             "criterion 11 (disjoint-cover and simple-quotient lemmas)",
             ["structure-disjoint-normal-covers",
              "structure-simple-quotient-lemma"],
             BUDGETS_S["structure-disjoint-normal-covers"])


def test_criterion_12_selftest_determinism(universe_file):
    reports = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "classlab.cli", "selftest",
             "--universe", universe_file, "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or proc.stdout
        reports.append(json.loads(proc.stdout))
    for report in reports:
        del report["timing"]
    first, second = (json.dumps(r, sort_keys=True) for r in reports)
    assert first == second
    # The report over the saved default catalog, as sorted-key JSON without
    # `timing`; a refactor leaves it byte-identical.
    assert hashlib.sha256(first.encode()).hexdigest() == (
        "56cf4a6f90470c45a5e3088a6409e5c5aaf7dc327c14a41e266d89c51cb5a28d")
    print("criterion 12 (selftest byte-determinism modulo timing): PASS")
