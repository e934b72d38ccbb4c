import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from classlab import cli
from classlab.classes import MAX_NESTING
from classlab.cli import main
from classlab.config import Caps, cap_message


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def small_universe(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "d4.txt")
    assert main(["universe", "build", "--sym-degree", "4", "--extras", "",
                 "--out", path]) == 0
    return path


class TestGroupCommand:
    def test_q8_text(self, capsys):
        code, out, _ = run_cli(capsys, "group", "Q8")
        assert code == 0
        assert "order 8" in out
        assert "radical: order 2 (C2)" in out
        assert "simple quotients: C2" in out

    def test_a5_predicates(self, capsys):
        code, out, _ = run_cli(capsys, "group", "A5")
        assert code == 0
        assert "simple=yes" in out
        assert "radical: order 1" in out

    def test_perm_spec(self, capsys):
        code, out, _ = run_cli(capsys, "group", "perm4[(1 2);(3 4)]")
        assert code == 0
        assert "order 4" in out
        assert "abelian=yes" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "group", "C4", "--json")
        assert code == 0
        report = json.loads(out)
        assert sorted(report.keys()) == ["checks", "command", "inputs",
                                         "results", "timing"]
        assert report["command"] == "group"
        assert report["inputs"] == {"spec": "C4"}
        results = report["results"]
        assert results["order"] == 4
        assert results["normal_lattice"]["orders"] == [1, 2, 4]
        assert set(results["predicates"]) == {"trivial", "cyclic", "abelian",
                                              "nilpotent", "solvable", "simple"}
        assert "total_s" in report["timing"]

    def test_trivial_group(self, capsys):
        code, out, _ = run_cli(capsys, "group", "C1")
        assert code == 0
        assert "order 1" in out
        assert "radical: none (trivial group)" in out
        assert "simple quotients: none" in out
        code, out, _ = run_cli(capsys, "group", "C1", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["order"] == 1
        assert results["radical"] is None
        assert results["simple_quotients"] == []
        assert results["predicates"]["trivial"] is True

    def test_radical_past_iso_cap_is_unnamed(self, capsys):
        # The radical A8 (order 20160) is past the default iso cap of 20000.
        code, out, _ = run_cli(capsys, "group", "S8", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["radical"]["order"] == 20160
        assert results["radical"]["name"] is None
        assert results["simple_quotients"] == [{"order": 2, "name": "C2"}]

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "NoSuchGroup")
        assert code == 2
        assert "error" in err


class TestClassCommand:
    def test_dual_failure_witness(self, capsys):
        code, out, _ = run_cli(capsys, "class", "dual(solvable)", "S5")
        assert code == 0
        assert "no" in out
        assert "order 60" in out and "order 2" in out

    def test_hat_series(self, capsys):
        code, out, _ = run_cli(capsys, "class", "hat(cyclic)", "S4")
        assert code == 0
        assert "yes" in out
        assert "[1, 2, 4, 12, 24]" in out

    @pytest.mark.parametrize("op", ["dual", "hat"])
    def test_deepest_accepted_nesting_evaluates_on_s5(self, capsys, op):
        d = MAX_NESTING
        code, out, err = run_cli(capsys, "class", f"{op}(" * d + "abelian" + ")" * d, "S5")
        assert code == 0 and err == ""
        assert out.startswith("S5 in ")

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400])
    def test_deeper_nesting_is_a_parse_error(self, capsys, depth):
        text = "dual(" * depth + "abelian" + ")" * depth
        code, out, err = run_cli(capsys, "class", text, "C2")
        assert code == 2 and out == ""
        assert err == f"error: class expression nests deeper than {MAX_NESTING} parentheses\n"

    def test_order_past_the_iso_cap_answers_when_alone_in_its_order(self, capsys):
        # A8 has order 20160, past the default iso cap of 20000, but no group
        # of that order must be compared with it.
        code, out, err = run_cli(capsys, "class", "abelian", "A8")
        assert code == 0 and err == ""
        assert out == "A8 in abelian: no\n"

    def test_trivial_membership(self, capsys):
        code, out, _ = run_cli(capsys, "class", "trivial", "C1")
        assert code == 0
        assert "yes" in out

    def test_json_trace(self, capsys):
        code, out, _ = run_cli(capsys, "class", "dual(solvable)", "S5", "--json")
        assert code == 0
        trace = json.loads(out)["results"]["trace"]
        assert trace["witness_normal_order"] == 60
        assert trace["quotient_order"] == 2

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "class", "dual(", "C4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("expr", ["le(-3)", "le(0)", "altge(0)"])
    def test_out_of_range_argument_exits_2(self, capsys, expr):
        code, out, err = run_cli(capsys, "class", expr, "S3")
        assert code == 2
        assert out == ""
        assert "needs n >= 1" in err


class TestAuditCommand:
    def test_solvable_all_passes(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "audit", "solvable", "--all",
                               "--universe", small_universe)
        assert code == 0
        assert "extensive_variety=yes" in out

    def test_abelian_fails_extension_closure(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "audit", "abelian", "--all",
                               "--universe", small_universe, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["results"]["flags"]["extensive_formation"] is False
        c2 = [c for c in report["checks"] if c["name"] == "audit-c2"][0]
        assert c2["status"] == "fail"
        assert c2["witness"]["counterexamples"][0]["group"] == "S3"

    def test_single_property(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "audit", "cyclic", "--c3",
                               "--universe", small_universe, "--json")
        assert code == 1
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == ["audit-c3"]
        assert "flags" not in report["results"]

    def test_no_flags_means_all(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "audit", "p(2)",
                               "--universe", small_universe, "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report["checks"]) == 4
        assert report["results"]["flags"]["extensive_variety"] is True


class TestDualChainCommand:
    def test_c4_chain(self, capsys):
        code, out, _ = run_cli(capsys, "dual-chain", "set(C1,C4)", "C4", "--k", "3")
        assert code == 0
        assert "k=0: in, k=1: out, k=2: out, k=3: in" in out

    def test_depth_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "dual-chain", "set(C1,C4)", "C4",
                               "--k", "9")
        assert code == 3
        assert "cap exceeded" in err

    def test_k_past_the_depth_is_refused_before_any_evaluation(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("dual-chain evaluated a level past the depth")

        monkeypatch.setattr(cli.ClassEval, "dual_chain_member", fail)
        code, out, err = run_cli(capsys, "dual-chain", "abelian", "C4", "--k", "7")
        assert (code, out) == (3, "")
        assert err == "cap exceeded: --k 7 exceeds configured dual-iteration depth 5\n"


class TestRealizeCommand:
    def test_with_top_group(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "C2", "--top", "C4")
        assert code == 0
        assert "ambient order 14400" in out
        assert "brute_normalizer=pass" in out

    def test_structural_only(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "C2", "--alt", "4",
                               "--no-brute-check")
        assert code == 0
        assert "brute_normalizer=skipped" in out

    def test_report_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "realize", "C1", "--out", str(target),
                               "--json")
        assert code == 0
        stored = json.loads(target.read_text())
        assert stored == json.loads(out)
        assert stored["results"]["n_coords"] == 1

    def test_large_target_needs_no_iso_cap(self, capsys):
        # |S8| = 40320 is over the default iso cap; the certificate comes
        # from the lift, so no isomorphism search runs.
        code, out, _ = run_cli(capsys, "realize", "perm8[(1 2 3 4 5 6 7 8);(1 2)]",
                               "--no-brute-check")
        assert code == 0
        assert "iso_verified=pass" in out

    def test_target_over_the_enum_cap_exits_3(self, capsys):
        # The certificate's source is the target's regular action.
        code, _, err = run_cli(capsys, "realize", "S9", "--no-brute-check")
        assert code == 3
        assert err == ("cap exceeded: order 362880 exceeds enumeration cap 250000; "
                       "raise it with --enum-cap or CLASSLAB_ENUM_CAP\n")

    def test_brute_check_over_the_enum_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "realize", "S7")
        assert code == 3
        assert err == ("cap exceeded: order 302400 exceeds enumeration cap 250000; "
                       "raise it with --enum-cap or CLASSLAB_ENUM_CAP\n")

    def test_impossible_embedding_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "realize", "C5", "--top", "S4")
        assert code == 2
        assert "error" in err


class TestSearchCommand:
    def test_self_normalizing_subgroups_of_s3(self, capsys):
        code, out, _ = run_cli(capsys, "search", "S3", "C1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["hit_count"] == 4
        orders = sorted(h["subgroup_order"] for h in report["results"]["hits"])
        assert orders == [2, 2, 2, 6]

    def test_c2_quotients_in_s4(self, capsys):
        code, out, _ = run_cli(capsys, "search", "S4", "C2", "--json")
        assert code == 0
        assert json.loads(out)["results"]["hit_count"] == 17


class TestUniverseBuild:
    def test_build_and_count(self, capsys, tmp_path):
        path = tmp_path / "d3.txt"
        code, out, _ = run_cli(capsys, "universe", "build", "--sym-degree", "3",
                               "--extras", "", "--out", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["count"] == 4
        assert report["results"]["entries"] == ["C1", "C2", "C3", "S3"]
        assert path.exists()

    def test_default_out_is_a_text_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "universe", "build", "--sym-degree", "3",
                             "--extras", "")
        assert code == 0
        text = (tmp_path / "universe.txt").read_text()
        assert text.startswith("classlab-universe v1")
        assert not (tmp_path / "universe.json").exists()

    def test_options_go_after_build(self, capsys, tmp_path):
        # `build` would overwrite an option given before it with its default.
        with pytest.raises(SystemExit) as exc:
            main(["universe", "--enum-cap", "5", "build", "--sym-degree", "3",
                  "--out", str(tmp_path / "u.txt")])
        assert exc.value.code == 2
        code, _, err = run_cli(capsys, "universe", "build", "--enum-cap", "5",
                               "--sym-degree", "3", "--out", str(tmp_path / "u.txt"))
        assert code == 3 and "enumeration cap 5" in err


class TestSelftestCommand:
    def test_filtered_run(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "selftest", "--universe", small_universe,
                               "--filter", "perm-")
        assert code == 0
        assert "0 failed" in out

    def test_json_checks_block(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "selftest", "--universe", small_universe,
                               "--filter", "dual-union-vs-meet-c6", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["checks"] == [{"name": "dual-union-vs-meet-c6",
                                     "status": "pass"}]
        assert "per_check_s" in report["timing"]

    def test_lowered_limit_exits_3(self, capsys, small_universe):
        code, out, _ = run_cli(capsys, "selftest", "--universe", small_universe,
                               "--filter", "structure-normal-lattice-brute",
                               "--subgroup-limit", "3")
        assert code == 3
        assert "1 skipped" in out

    def test_missing_universe_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "selftest", "--universe",
                               str(tmp_path / "missing.txt"))
        assert code == 2
        assert "cannot load universe file" in err

    def test_corrupt_universe_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a catalog")
        code, _, err = run_cli(capsys, "selftest", "--universe", str(bad))
        assert code == 2


class TestCapsPlumbing:
    def test_enum_cap_flag_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "group", "A5", "--enum-cap", "10")
        assert code == 3
        assert "cap exceeded" in err

    def test_enum_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASSLAB_ENUM_CAP", "10")
        code, _, _ = run_cli(capsys, "group", "A5")
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASSLAB_ENUM_CAP", "10")
        code, _, _ = run_cli(capsys, "group", "A5", "--enum-cap", "250000")
        assert code == 0

    def test_invalid_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASSLAB_ENUM_CAP", "many")
        code, _, err = run_cli(capsys, "group", "C2")
        assert code == 2

    def test_nonpositive_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "C2", "--enum-cap", "0")
        assert code == 2

    def test_coord_cap_message_names_both_ways_to_raise_it(self, capsys):
        code, _, err = run_cli(capsys, "realize", "C2", "--top", "S5", "--no-brute-check")
        assert code == 3
        assert err == ("cap exceeded: coordinate count 60 exceeds coordinate cap 24; "
                       "raise it with --coord-cap or CLASSLAB_COORD_CAP\n")

    def test_coord_cap_flag(self, capsys):
        # C2 in C4 has N = 2 coordinates.
        code, _, err = run_cli(capsys, "realize", "C2", "--top", "C4", "--coord-cap", "1")
        assert code == 3
        assert "coordinate count 2 exceeds coordinate cap 1" in err
        code, out, _ = run_cli(capsys, "realize", "C2", "--top", "C4", "--coord-cap", "2")
        assert code == 0
        assert "2 coordinate(s)" in out

    def test_coord_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASSLAB_COORD_CAP", "1")
        code, _, err = run_cli(capsys, "realize", "C2", "--top", "C4")
        assert code == 3
        assert "coordinate cap 1" in err
        code, _, _ = run_cli(capsys, "realize", "C2", "--top", "C4", "--coord-cap", "2")
        assert code == 0

    def test_subgroup_limit_message_names_both_ways_to_raise_it(self, capsys, monkeypatch):
        expected = ("cap exceeded: subgroup count 11 exceeds subgroup limit 10; "
                    "raise it with --subgroup-limit or CLASSLAB_SUBGROUP_LIMIT\n")
        code, _, err = run_cli(capsys, "search", "S4", "C1", "--subgroup-limit", "10")
        assert code == 3 and err == expected
        monkeypatch.setenv("CLASSLAB_SUBGROUP_LIMIT", "10")
        code, _, err = run_cli(capsys, "search", "S4", "C1")
        assert code == 3 and err == expected

    def test_iso_cap_message_names_both_ways_to_raise_it(self):
        assert cap_message(Caps(iso_cap=7), "iso_cap", "order", 8) == (
            "order 8 exceeds iso cap 7; raise it with --iso-cap or CLASSLAB_ISO_CAP")

    def test_search_has_no_limit_option(self, capsys):
        # --subgroup-limit is the one bound on the subgroups search scans.
        with pytest.raises(SystemExit) as exc:
            main(["search", "S4", "C1", "--limit", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --limit 10" in capsys.readouterr().err

    @pytest.mark.parametrize("env,flag", [("0", None), ("-3", None), ("two", None),
                                          (None, "0"), (None, "-1")])
    def test_bad_coord_cap_exits_2(self, capsys, monkeypatch, env, flag):
        if env is not None:
            monkeypatch.setenv("CLASSLAB_COORD_CAP", env)
        argv = ["realize", "C2", "--top", "C4"] + (["--coord-cap", flag] if flag else [])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "coord" in err.lower()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["class", "abelian"])
        assert exc.value.code == 2


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "classlab.cli", "group", "Q8"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "order 8" in proc.stdout

    def test_importing_the_cli_leaves_the_suite_unloaded(self):
        code = ("import sys, classlab.cli\n"
                "assert 'classlab.suite' not in sys.modules\n"
                "from classlab import CheckResult, run_suite\n"
                "assert run_suite.__module__ == CheckResult.__module__ == 'classlab.suite'\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestImportTiming:
    @pytest.mark.parametrize("argv", [
        ["group", "C4"],
        ["class", "abelian", "S3"],
        ["dual-chain", "solvable", "C2"],
        ["realize", "C2", "--top", "C4", "--no-brute-check"],
        ["search", "S3", "C1"],
        ["audit", "cyclic", "--c0"],
        ["selftest", "--filter", "perm-order"],
    ])
    def test_every_report_times_the_import(self, capsys, small_universe, argv):
        code, out, _ = run_cli(capsys, *argv, "--universe", small_universe, "--json")
        assert code == 0
        timing = json.loads(out)["timing"]
        assert timing["import_s"] >= 0 and timing["total_s"] >= 0

    def test_universe_build_times_the_import(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "universe", "build", "--sym-degree", "3",
                               "--out", str(tmp_path / "u.txt"), "--json")
        assert code == 0
        assert json.loads(out)["timing"]["import_s"] >= 0


def _load_workloads():
    """perfbench/workloads.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


class TestCliGateReplay:
    """Every command of the benchmark's cli workload, run in process with
    `--json` in a fresh directory holding the workload's catalog file, gives
    the answer recorded in `perfbench/expected/cli.json`: its exit code and
    its `results` and `checks` blocks."""

    EXPECTED = json.loads((WORKLOADS.EXPECTED / "cli.json").read_text())

    @pytest.mark.parametrize("argv", WORKLOADS.CLI_COMMANDS, ids=" ".join)
    def test_command_gives_recorded_answer(self, argv, capsys, tmp_path, monkeypatch):
        for name in list(os.environ):
            if name.startswith("CLASSLAB_"):
                monkeypatch.delenv(name)
        gate = WORKLOADS.Cli()
        gate.setup(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv, "--json")
        report = json.loads(out) if out.strip() else None
        assert gate.answer(" ".join(argv), (code, report)) == self.EXPECTED[" ".join(argv)]
