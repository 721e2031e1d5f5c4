import json
import subprocess
import sys

import pytest

from donoharm.cli import main

CLI = [sys.executable, "-m", "donoharm"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestEvaluate:
    def test_roulette_all_evaluators(self, capsys):
        assert main(["evaluate", "--scenario", "russian_roulette", "--evaluator", "all"]) == 0
        out = capsys.readouterr().out
        assert "deterministic: -1/21" in out
        assert "stochastic: 1/84" in out

    def test_single_evaluator_selection(self, capsys):
        assert main(["evaluate", "--scenario", "snakebite", "--evaluator", "population"]) == 0
        out = capsys.readouterr().out
        assert "population: -1/21" in out
        assert "deterministic" not in out

    def test_structured_format(self, capsys):
        assert main(["evaluate", "--scenario", "russian_roulette", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["deterministic"]["fraction"] == "-1/21"

    def test_lottery_scenario_rejected(self, capsys):
        assert main(["evaluate", "--scenario", "nm_incoherence"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lottery" in captured.err

    def test_unknown_scenario(self, capsys):
        assert main(["evaluate", "--scenario", "nonexistent"]) == 1
        assert "neither a built-in" in capsys.readouterr().err

    def test_file_scenario(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(
                {
                    "name": "custom",
                    "kind": "chambers",
                    "payload": {"phi0": "1/6", "phi1": "1/7"},
                }
            )
        )
        assert main(["evaluate", "--scenario", str(path)]) == 0
        assert "deterministic: -1/21" in capsys.readouterr().out

    def test_invalid_file_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "kind": "chambers", "payload": {"phi0": "0.5", "phi1": "0"}}')
        assert main(["evaluate", "--scenario", str(path)]) == 1
        assert "exact fractions" in capsys.readouterr().err


class TestSimulate:
    def test_snakebite_estimate(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                "snakebite",
                "--replications",
                "50000",
                "--seed",
                "42",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulation:" in out and "target=-1/21" in out

    def test_deterministic_simulator_selection(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                "russian_roulette",
                "--evaluator",
                "deterministic",
                "--replications",
                "20000",
            ]
        )
        assert code == 0
        assert "target=-1/21" in capsys.readouterr().out

    def test_repeat_runs_identical(self):
        args = [
            "simulate",
            "--scenario",
            "russian_roulette",
            "--replications",
            "20000",
            "--seed",
            "7",
            "--parallelism",
            "2",
            "--format",
            "structured",
        ]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_parallelism_does_not_change_output(self):
        args = ["simulate", "--scenario", "migraine_mixed", "--replications", "150000",
                "--seed", "7", "--format", "structured"]
        serial = run_cli(*args, "--parallelism", "1")
        parallel = run_cli(*args, "--parallelism", "2")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-1"), ("--inner-samples", "99999999999999999999")]
    )
    def test_out_of_range_config_is_one_error_line(self, flag, value):
        result = run_cli("simulate", "--scenario", "russian_roulette", flag, value)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestParadox:
    def test_roulette_contradiction_exits_zero(self, capsys):
        assert main(["paradox", "--scenario", "russian_roulette"]) == 0
        out = capsys.readouterr().out
        assert "contradiction=true" in out

    def test_snakebite_contradiction_visible(self, capsys):
        assert main(["paradox", "--scenario", "snakebite", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["paradox"]["contradiction"] is True
        assert doc["paradox"]["stochastic_contradiction"] is True  # all-degenerate model

    def test_migraine_no_contradiction(self, capsys):
        assert main(["paradox", "--scenario", "migraine_mixed", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["paradox"]["stochastic_contradiction"] is False


class TestLottery:
    def test_nm_incoherence(self, capsys):
        assert main(["lottery", "--scenario", "nm_incoherence"]) == 0
        out = capsys.readouterr().out
        assert "nm_left=3/5" in out and "nm_right=3/5" in out
        assert "penalized_left=27/50" in out
        assert "penalized_right=531/1000" in out
        assert "violation=true" in out

    def test_non_lottery_scenario_rejected(self, capsys):
        assert main(["lottery", "--scenario", "snakebite"]) == 1
        assert "lottery_pair" in capsys.readouterr().err


class TestListScenarios:
    def test_text_listing(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("russian_roulette", "snakebite", "ssn_divisibility", "migraine_mixed", "nm_incoherence"):
            assert name in out

    def test_structured_listing(self, capsys):
        assert main(["list-scenarios", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"name": "russian_roulette", "kind": "chambers"} in doc


class TestUsageErrors:
    def test_missing_command_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2
        assert result.stdout == ""

    def test_bad_flag_is_usage_error(self):
        result = run_cli("evaluate", "--scenario", "snakebite", "--evaluator", "bogus")
        assert result.returncode == 2
        assert result.stdout == ""


class TestExactCommandsSkipNumpy:
    PROBE = (
        "import sys; from donoharm.cli import main; rc = main(sys.argv[1:]); "
        "sys.exit(rc if rc else 'numpy' in sys.modules and 'numpy loaded')"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--scenario", "migraine_mixed"],
            ["paradox", "--scenario", "snakebite"],
            ["lottery", "--scenario", "nm_incoherence"],
            ["list-scenarios"],
        ],
    )
    def test_numpy_not_imported(self, argv):
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_package_import_skips_numpy(self):
        code = "import sys, donoharm; sys.exit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestBadInputIsOneErrorLine:
    @pytest.mark.parametrize(
        "payload",
        [
            {"phi0": "1/" + "3" * 5000, "phi1": "1/7"},
            {"unit_types": [{"label": "a", "weight": "1", "arm0": {"degenerate": True},
                             "arm1": {"degenerate": 1}}]},
        ],
        ids=["5000-digit-fraction", "boolean-degenerate"],
    )
    def test_rejected_scenario(self, tmp_path, payload):
        kind = "population" if "unit_types" in payload else "chambers"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "kind": kind, "payload": payload}))
        result = run_cli("evaluate", "--scenario", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--evaluator", "all"],
            ["evaluate", "--evaluator", "all", "--format", "structured"],
            ["paradox"],
            ["simulate", "--replications", "100"],
        ],
        ids=["evaluate", "evaluate-structured", "paradox", "simulate"],
    )
    def test_result_too_long_to_print(self, tmp_path, command):
        # Each field is under the digit cap; coprime denominators make results
        # of about 6,000 digits, past Python's int-to-text limit.
        phi0 = "1/1" + "0" * 2998 + "1"
        phi1 = "1/1" + "0" * 2998 + "3"
        path = tmp_path / "long.json"
        path.write_text(
            json.dumps({"name": "long", "kind": "chambers", "payload": {"phi0": phi0, "phi1": phi1}})
        )
        result = run_cli(*command, "--scenario", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


    @pytest.mark.parametrize("depth", [301, 400])
    def test_deep_lottery_text(self, tmp_path, depth):
        # 301 passes json.loads and meets the tree depth cap; 400 overflows json.loads.
        node = '{"leaf": "1"}'
        for _ in range(depth):
            node = '{"chance": [["1/2", {"leaf": "0"}], ["1/2", ' + node + "]]}"
        path = tmp_path / "deep.json"
        path.write_text(
            '{"name": "deep", "kind": "lottery_pair", "payload": {"left": ' + node
            + ', "right": {"leaf": "1"}, "penalty": "9/10"}}'
        )
        result = run_cli("lottery", "--scenario", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSmokeMatrix:
    NON_LOTTERY = ["russian_roulette", "snakebite", "ssn_divisibility", "migraine_mixed"]

    @pytest.mark.parametrize("name", NON_LOTTERY)
    def test_evaluate_paradox_simulate(self, name, capsys):
        assert main(["evaluate", "--scenario", name]) == 0
        assert main(["paradox", "--scenario", name]) == 0
        assert main(["simulate", "--scenario", name, "--replications", "2000"]) == 0
        capsys.readouterr()
