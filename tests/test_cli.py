import argparse
import copy
import io
import json
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donoharm import (
    AsymmetricUtilitySpec,
    ModelError,
    OutcomeUtility,
    ScenarioError,
    ScenarioFile,
    as_population,
    builtin,
    builtin_scenarios,
    evaluate_population,
    scenario,
    serialize_scenario,
)
from donoharm import cli
from donoharm.cli import main
from donoharm.engine import READINGS
from test_engine import populations, positive, rationals
from test_simulation import mixture_expectation

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
        # One refusal, from as_population, whichever command reads the model.
        for command in ("evaluate", "simulate", "paradox"):
            assert main([command, "--scenario", "nm_incoherence"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: scenario 'nm_incoherence' (kind lottery_pair) has no population model; "
                "use the 'lottery' command\n"
            )

    @settings(max_examples=50, deadline=None)
    @given(
        populations(),
        st.builds(OutcomeUtility, rationals, rationals),
        st.builds(AsymmetricUtilitySpec, positive, positive, rationals),
    )
    def test_each_evaluator_reads_its_model(self, tmp_path_factory, m, u, spec):
        path = tmp_path_factory.getbasetemp() / "generated.json"
        sc = ScenarioFile("generated", m, u, spec)
        path.write_text(json.dumps(serialize_scenario(sc)))
        for evaluator, read in READINGS.items():
            argv = ["evaluate", "--scenario", str(path), "--evaluator", evaluator, "--format", "structured"]
            code, out, err, _ = run_main(argv)
            assert (code, err) == (0, "")
            value = evaluate_population(read(m), u, spec).expected_relative_utility
            assert json.loads(out)["results"] == {
                evaluator: {"fraction": str(value), "decimal": scenario.decimal_str(value)}
            }

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

    def test_file_without_locus_prints_the_derived_one(self, tmp_path, capsys):
        # One unit at marginals 5/8 and 5/8: a coin flip per arm, so within_unit.
        path = tmp_path / "strata.json"
        strata = {"s11": "1/2", "s00": "1/4", "s10": "1/8", "s01": "1/8"}
        path.write_text(json.dumps({"name": "s", "kind": "strata", "payload": strata}))
        assert main(["evaluate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out == (
            "scenario: s\n"
            "variation: within_unit\n"
            "deterministic: -1/16 (-0.0625)\n"
            "stochastic: 0 (0)\n"
            "population: 0 (0)\n"
            "classical: 0 (0)\n"
        )

    @pytest.mark.parametrize(
        ("name", "evaluator", "expected"),
        [
            # The expanded joint law: fixed-outcome strata, so across units.
            ("russian_roulette", "deterministic", "variation: across_unit\ndeterministic: -1/21 ("),
            # The pooled unit: one coin flip per arm at the marginals.
            ("snakebite", "stochastic", "variation: within_unit\nstochastic: 1/84 ("),
            # The model itself.
            ("snakebite", "population", "variation: across_unit\npopulation: -1/21 ("),
        ],
    )
    def test_one_reading_prints_the_locus_of_its_model(self, name, evaluator, expected, capsys):
        assert main(["evaluate", "--scenario", name, "--evaluator", evaluator]) == 0
        assert capsys.readouterr().out.startswith(f"scenario: {name}\n{expected}")

    def test_invalid_file_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "kind": "chambers", "payload": {"phi0": "0.5", "phi1": "0"}}')
        assert main(["evaluate", "--scenario", str(path)]) == 1
        assert "exact fractions" in capsys.readouterr().err

    def test_builds_only_the_named_builtin(self, tmp_path, monkeypatch, capsys):
        def broken():
            raise AssertionError("built a scenario the command did not name")

        path = tmp_path / "custom.json"
        path.write_text(json.dumps(serialize_scenario(builtin("snakebite"))))
        for name in list(scenario.BUILTINS):
            monkeypatch.setitem(scenario.BUILTINS, name, broken)
        assert main(["evaluate", "--scenario", str(path)]) == 0
        assert "deterministic: -1/21" in capsys.readouterr().out


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

    def test_multi_block_run_starts_no_thread(self, capsys):
        argv = ["simulate", "--scenario", "migraine_mixed", "--replications", "150000",
                "--parallelism", "2"]
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread")):
            assert main(argv) == 0
        assert "mean=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--inner-samples", "99999999999999999999"),
         ("--replications", str(2**63))],
    )
    def test_out_of_range_config_is_one_error_line(self, flag, value):
        result = run_cli("simulate", "--scenario", "russian_roulette", flag, value)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_int64_maximum_replications_run(self):
        # One counts draw serves the whole run, so the largest count numpy
        # takes finishes at once.
        result = run_cli("simulate", "--scenario", "russian_roulette",
                         "--replications", str(2**63 - 1), "--format", "structured")
        assert result.returncode == 0 and result.stderr == ""
        assert f'"replications": {2**63 - 1}' in result.stdout


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

    def test_simulate_without_numpy_is_one_error_line(self):
        probe = "import sys; sys.modules['numpy'] = None; " + self.PROBE
        argv = ["simulate", "--scenario", "russian_roulette", "--replications", "10"]
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout) == (1, "")
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "numpy" in lines[0]

    def test_other_missing_module_propagates(self):
        missing = ModuleNotFoundError("No module named 'scipy'", name="scipy")
        with mock.patch.object(cli, "simulate_population", side_effect=missing):
            with pytest.raises(ModuleNotFoundError):
                main(["simulate", "--scenario", "russian_roulette", "--replications", "10"])


def scenario_bytes(kind, payload):
    return json.dumps({"name": "bad", "kind": kind, "payload": payload}).encode()


def _declaring(name, locus):
    """The built-in scenario's document, declaring the given variation locus."""
    return json.dumps({**serialize_scenario(builtin(name)), "variation_locus": locus}).encode()


class TestBadInputIsOneErrorLine:
    @pytest.mark.parametrize(
        "document, error",
        [
            (scenario_bytes("chambers", {"phi0": "1/" + "3" * 5000, "phi1": "1/7"}), None),
            (
                scenario_bytes(
                    "population",
                    {"unit_types": [{"label": "a", "weight": "1", "arm0": {"degenerate": True},
                                     "arm1": {"degenerate": 1}}]},
                ),
                None,
            ),
            (b'\xff\xfe{"name":1}', None),
            (
                json.dumps({"name": None, "kind": "chambers", "payload": {"phi0": "0", "phi1": "0"}}).encode(),
                None,
            ),
            # A newline in the name would print a forged result line.
            (
                json.dumps({"name": "x\nstochastic: 1/84 (0.0119)", "kind": "chambers",
                            "payload": {"phi0": "1/6", "phi1": "1/7"}}).encode(),
                None,
            ),
            # A declared variation locus the model contradicts.
            (
                _declaring("snakebite", "within_unit"),
                "error: $.variation_locus: declared 'within_unit', "
                "but the model's variation is across_unit",
            ),
            (
                _declaring("russian_roulette", "across_unit"),
                "error: $.variation_locus: declared 'across_unit', "
                "but the model's variation is within_unit",
            ),
            (
                _declaring("nm_incoherence", "mixed"),
                "error: $.variation_locus: declared 'mixed', "
                "but a lottery_pair scenario has no population model",
            ),
        ],
        ids=[
            "5000-digit-fraction", "boolean-degenerate", "non-utf8", "null-name", "forged-line-name",
            "snakebite-within", "roulette-across", "lottery-mixed",
        ],
    )
    def test_rejected_scenario(self, tmp_path, document, error):
        path = tmp_path / "bad.json"
        path.write_bytes(document)
        result = run_cli("evaluate", "--scenario", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        if error is not None:
            assert lines[0] == error

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


def json_paths(value, path=()):
    """Every path into a JSON value, the value's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield from json_paths(sub, (*path, key))


# Values a mutation puts into a document: valid and invalid literals, wrong
# types, and fragments of every payload.
LITERALS = st.sampled_from(["0", "1", "1/2", "2/3", "-1/3", "3/2", "1/0", "0.5", "abc", "", "1/" + "7" * 40])
FRAGMENTS = st.one_of(
    LITERALS,
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.sampled_from(
        [0.5, [], {}, {"leaf": "1/2"}, {"chance": []}, {"chance": [["1", {"leaf": "2"}]]},
         ["1/2", {"leaf": "0"}], {"bernoulli": "1/3"}, {"degenerate": 0}, {"s11": "1"}]
    ),
).map(copy.deepcopy)
BUILTIN_DOCUMENTS = [serialize_scenario(sc) for sc in builtin_scenarios()]


@st.composite
def mutated_documents(draw):
    """A built-in scenario's document with up to two values replaced, deleted
    or added.  A string is replaced by another literal half the time, so many
    documents parse and fail, if at all, only in the model or the command."""
    doc = copy.deepcopy(draw(st.sampled_from(BUILTIN_DOCUMENTS)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = draw(FRAGMENTS)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target, op = parent[path[-1]], draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "delete":
            del parent[path[-1]]
        elif op == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "name", "leaf", "chance", "s11", "weight"]))] = draw(FRAGMENTS)
        elif op == "add" and isinstance(target, list):
            target.insert(draw(st.integers(0, len(target))), draw(FRAGMENTS))
        else:
            parent[path[-1]] = draw(st.one_of(LITERALS, FRAGMENTS) if isinstance(target, str) else FRAGMENTS)
    return doc


def run_main(argv):
    """main(argv) in-process: the exit code, stdout, stderr, and every
    exception a command raised to main."""
    raised = []

    def recording(command):
        def run(args):
            try:
                return command(args)
            except BaseException as exc:
                raised.append(exc)
                raise

        return run

    out, err = io.StringIO(), io.StringIO()
    commands = {name: recording(command) for name, command in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, commands), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), raised


class TestErrorBoundary:
    """Whatever a scenario file holds, the CLI succeeds, exits 1 with one
    error line, or exits 2 on usage; it raises nothing but its own errors."""

    @settings(max_examples=300, deadline=None)
    @given(
        mutated_documents(),
        st.sampled_from(["text", "structured"]),
        st.sampled_from(tuple(READINGS)),
        st.sampled_from(["0", "1", "100", "10000"]),  # 0 replications is a ModelError
    )
    def test_mutated_builtin_documents(self, tmp_path_factory, doc, fmt, evaluator, replications):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(doc))
        common = ["--scenario", str(path), "--format", fmt]
        for argv in (
            ["evaluate", *common],
            ["paradox", *common],
            ["lottery", *common],
            ["simulate", *common, "--evaluator", evaluator, "--replications", replications,
             "--parallelism", "1", "--seed", "3"],
        ):
            code, out, err, raised = run_main(argv)
            assert code in (0, 1, 2), argv
            assert all(isinstance(exc, (ScenarioError, ModelError)) for exc in raised), raised
            if code == 0:
                assert out and err == "" and not raised
            elif code == 1:
                assert raised and out == ""
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestSmokeMatrix:
    NON_LOTTERY = ["russian_roulette", "snakebite", "ssn_divisibility", "migraine_mixed"]

    @pytest.mark.parametrize("name", NON_LOTTERY)
    def test_evaluate_paradox_simulate(self, name, capsys):
        assert main(["evaluate", "--scenario", name]) == 0
        assert main(["paradox", "--scenario", name]) == 0
        assert main(["simulate", "--scenario", name, "--replications", "2000"]) == 0
        capsys.readouterr()


# Structured outputs of the four population built-ins, pinned byte for byte.
# Simulate runs use --replications 100000 --seed 0 --parallelism 2 (the
# flag is ignored).  That is more than one block of 2^16, and the built-ins
# have no light unit type, so each run is one counts draw over all 100,000
# replications: a change to any random stream, to how a run's draws are
# split, or to how results are rounded and printed, shows here.  A simulate
# run reports the variation locus of the model its
# evaluator reads: the expanded joint law has fixed-outcome strata, so
# across_unit (or None), and the pooled unit sits at the marginals, so
# within_unit (or None).
GOLDEN_SIMULATE_FLAGS = ["--replications", "100000", "--seed", "0", "--parallelism", "2"]

GOLDEN = {
    ("evaluate", "russian_roulette"): """\
{
  "results": {
    "classical": {
      "decimal": "0.023809523809523809524",
      "fraction": "1/42"
    },
    "deterministic": {
      "decimal": "-0.047619047619047619048",
      "fraction": "-1/21"
    },
    "population": {
      "decimal": "0.011904761904761904762",
      "fraction": "1/84"
    },
    "stochastic": {
      "decimal": "0.011904761904761904762",
      "fraction": "1/84"
    }
  },
  "scenario": "russian_roulette",
  "variation_locus": "within_unit"
}
""",
    ("paradox", "russian_roulette"): """\
{
  "paradox": {
    "contradiction": true,
    "deterministic_value": "-1/21",
    "dominance": "arm1_dominates",
    "recommendation": "stay",
    "stochastic_contradiction": false,
    "stochastic_recommendation": "switch",
    "stochastic_value": "1/84"
  },
  "scenario": "russian_roulette",
  "variation_locus": "within_unit"
}
""",
    ("evaluate", "snakebite"): """\
{
  "results": {
    "classical": {
      "decimal": "0.023809523809523809524",
      "fraction": "1/42"
    },
    "deterministic": {
      "decimal": "-0.047619047619047619048",
      "fraction": "-1/21"
    },
    "population": {
      "decimal": "-0.047619047619047619048",
      "fraction": "-1/21"
    },
    "stochastic": {
      "decimal": "0.011904761904761904762",
      "fraction": "1/84"
    }
  },
  "scenario": "snakebite",
  "variation_locus": "across_unit"
}
""",
    ("paradox", "snakebite"): """\
{
  "paradox": {
    "contradiction": true,
    "deterministic_value": "-1/21",
    "dominance": "arm1_dominates",
    "recommendation": "stay",
    "stochastic_contradiction": true,
    "stochastic_recommendation": "stay",
    "stochastic_value": "-1/21"
  },
  "scenario": "snakebite",
  "variation_locus": "across_unit"
}
""",
    ("evaluate", "ssn_divisibility"): """\
{
  "results": {
    "classical": {
      "decimal": "0.023809523809523809524",
      "fraction": "1/42"
    },
    "deterministic": {
      "decimal": "-0.047619047619047619048",
      "fraction": "-1/21"
    },
    "population": {
      "decimal": "-0.047619047619047619048",
      "fraction": "-1/21"
    },
    "stochastic": {
      "decimal": "0.011904761904761904762",
      "fraction": "1/84"
    }
  },
  "scenario": "ssn_divisibility",
  "variation_locus": "across_unit"
}
""",
    ("paradox", "ssn_divisibility"): """\
{
  "paradox": {
    "contradiction": true,
    "deterministic_value": "-1/21",
    "dominance": "arm1_dominates",
    "recommendation": "stay",
    "stochastic_contradiction": true,
    "stochastic_recommendation": "stay",
    "stochastic_value": "-1/21"
  },
  "scenario": "ssn_divisibility",
  "variation_locus": "across_unit"
}
""",
    ("evaluate", "migraine_mixed"): """\
{
  "results": {
    "classical": {
      "decimal": "0.08",
      "fraction": "2/25"
    },
    "deterministic": {
      "decimal": "-0.044",
      "fraction": "-11/250"
    },
    "population": {
      "decimal": "0.005",
      "fraction": "1/200"
    },
    "stochastic": {
      "decimal": "0.04",
      "fraction": "1/25"
    }
  },
  "scenario": "migraine_mixed",
  "variation_locus": "mixed"
}
""",
    ("paradox", "migraine_mixed"): """\
{
  "paradox": {
    "contradiction": true,
    "deterministic_value": "-11/250",
    "dominance": "arm1_dominates",
    "recommendation": "stay",
    "stochastic_contradiction": false,
    "stochastic_recommendation": "switch",
    "stochastic_value": "1/200"
  },
  "scenario": "migraine_mixed",
  "variation_locus": "mixed"
}
""",
    ("simulate", "russian_roulette", "deterministic"): """\
{
  "scenario": "russian_roulette",
  "simulation": {
    "mean": -0.04611,
    "replications": 100000,
    "stderr": 0.0012373778687369112,
    "target": "-1/21"
  },
  "variation_locus": "across_unit"
}
""",
    ("simulate", "russian_roulette", "population"): """\
{
  "scenario": "russian_roulette",
  "simulation": {
    "mean": 0.01167642578125,
    "replications": 100000,
    "stderr": 2.7171506153932347e-05,
    "target": "1/84"
  },
  "variation_locus": "within_unit"
}
""",
    ("simulate", "migraine_mixed", "deterministic"): """\
{
  "scenario": "migraine_mixed",
  "simulation": {
    "mean": -0.0414,
    "replications": 100000,
    "stderr": 0.00150378955104434,
    "target": "-11/250"
  },
  "variation_locus": "across_unit"
}
""",
    ("simulate", "migraine_mixed", "population"): """\
{
  "scenario": "migraine_mixed",
  "simulation": {
    "mean": 0.00587271484375,
    "replications": 100000,
    "stderr": 0.0005111512183444789,
    "target": "1/200"
  },
  "variation_locus": "mixed"
}
""",
    # The stochastic reading simulates the pooled model: one unit at the
    # marginals, so snakebite draws exactly as the roulette does.
    ("simulate", "russian_roulette", "stochastic"): """\
{
  "scenario": "russian_roulette",
  "simulation": {
    "mean": 0.01167642578125,
    "replications": 100000,
    "stderr": 2.7171506153932347e-05,
    "target": "1/84"
  },
  "variation_locus": "within_unit"
}
""",
    ("simulate", "snakebite", "stochastic"): """\
{
  "scenario": "snakebite",
  "simulation": {
    "mean": 0.01167642578125,
    "replications": 100000,
    "stderr": 2.7171506153932347e-05,
    "target": "1/84"
  },
  "variation_locus": "within_unit"
}
""",
    ("simulate", "migraine_mixed", "stochastic"): """\
{
  "scenario": "migraine_mixed",
  "simulation": {
    "mean": 0.0400120166015625,
    "replications": 100000,
    "stderr": 3.41170765831523e-05,
    "target": "1/25"
  },
  "variation_locus": "within_unit"
}
""",
}


def golden_argv(command, scenario, evaluator=None):
    argv = [command, "--scenario", scenario, "--format", "structured"]
    if command == "evaluate":
        return argv + ["--evaluator", "all"]
    if command == "simulate":
        return argv + ["--evaluator", evaluator, *GOLDEN_SIMULATE_FLAGS]
    return argv


@pytest.mark.parametrize("key", list(GOLDEN), ids=["-".join(k) for k in GOLDEN])
def test_golden_structured_output(key, capsys):
    assert main(golden_argv(*key)) == 0
    assert capsys.readouterr().out == GOLDEN[key]


SIMULATE_GOLDEN = [k for k in GOLDEN if k[0] == "simulate"]


@pytest.mark.parametrize("key", SIMULATE_GOLDEN, ids=["-".join(k) for k in SIMULATE_GOLDEN])
def test_golden_simulate_mean_near_its_target(key):
    # The pinned numbers are checked, not only copied: each mean sits within
    # 4 standard errors of what the estimator targets on the model the
    # evaluator reads.  A nested run targets its finite-K expectation, a
    # deterministic run (no inner draw) the exact value.
    _, name, evaluator = key
    result = json.loads(GOLDEN[key])["simulation"]
    m = as_population(builtin(name))
    reading = READINGS[evaluator](m)
    if evaluator == "deterministic":
        target = float(evaluate_population(reading).expected_relative_utility)
    else:
        target = mixture_expectation(reading, 1024)  # the default --inner-samples
    assert abs(result["mean"] - target) < 4 * result["stderr"]


# Text reports of the four population built-ins, pinned byte for byte: the
# `evaluate --evaluator all` results and the `paradox` line with its note.
GOLDEN_TEXT = {
    ("evaluate", "russian_roulette"): """\
scenario: russian_roulette
variation: within_unit
deterministic: -1/21 (-0.047619047619047619048)
stochastic: 1/84 (0.011904761904761904762)
population: 1/84 (0.011904761904761904762)
classical: 1/42 (0.023809523809523809524)
""",
    ("evaluate", "snakebite"): """\
scenario: snakebite
variation: across_unit
deterministic: -1/21 (-0.047619047619047619048)
stochastic: 1/84 (0.011904761904761904762)
population: -1/21 (-0.047619047619047619048)
classical: 1/42 (0.023809523809523809524)
""",
    ("evaluate", "ssn_divisibility"): """\
scenario: ssn_divisibility
variation: across_unit
deterministic: -1/21 (-0.047619047619047619048)
stochastic: 1/84 (0.011904761904761904762)
population: -1/21 (-0.047619047619047619048)
classical: 1/42 (0.023809523809523809524)
""",
    ("evaluate", "migraine_mixed"): """\
scenario: migraine_mixed
variation: mixed
deterministic: -11/250 (-0.044)
stochastic: 1/25 (0.04)
population: 1/200 (0.005)
classical: 2/25 (0.08)
""",
    ("paradox", "russian_roulette"): """\
scenario: russian_roulette
variation: within_unit
paradox: dominance=arm1_dominates recommendation=stay contradiction=true
note: marginal survival 5/6 vs 6/7 (arm1_dominates); deterministic reading values the switch at -1/21 (stay); stochastic reading values it at 1/84 (switch). The deterministic recommendation opposes dominance.
""",
    ("paradox", "snakebite"): """\
scenario: snakebite
variation: across_unit
paradox: dominance=arm1_dominates recommendation=stay contradiction=true
note: marginal survival 5/6 vs 6/7 (arm1_dominates); deterministic reading values the switch at -1/21 (stay); stochastic reading values it at -1/21 (stay). The deterministic recommendation opposes dominance.
""",
    ("paradox", "ssn_divisibility"): """\
scenario: ssn_divisibility
variation: across_unit
paradox: dominance=arm1_dominates recommendation=stay contradiction=true
note: marginal survival 5/6 vs 6/7 (arm1_dominates); deterministic reading values the switch at -1/21 (stay); stochastic reading values it at -1/21 (stay). The deterministic recommendation opposes dominance.
""",
    ("paradox", "migraine_mixed"): """\
scenario: migraine_mixed
variation: mixed
paradox: dominance=arm1_dominates recommendation=stay contradiction=true
note: marginal survival 14/25 vs 16/25 (arm1_dominates); deterministic reading values the switch at -11/250 (stay); stochastic reading values it at 1/200 (switch). The deterministic recommendation opposes dominance.
""",
}


@pytest.mark.parametrize("key", list(GOLDEN_TEXT), ids=["-".join(k) for k in GOLDEN_TEXT])
def test_golden_text_output(key, capsys):
    command, scenario = key
    argv = [command, "--scenario", scenario]
    if command == "evaluate":
        argv += ["--evaluator", "all"]
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_TEXT[key]


# russian_roulette with survival the worse outcome, u0 = 2 > u1 = -1, under
# gain 1/3, loss 2 and tie -1/5.  By hand: the strata 30/42, 1/42, 5/42,
# 6/42 give (31/42)(-1/5) + (5/42)(1) + (6/42)(-6) = -31/35.  The pooled
# reading compares 2 - 3*5/6 = -1/2 with 2 - 3*6/7 = -4/7, a difference of
# -1/14, and the loss weight 2 makes it -1/7.  Higher survival is the worse
# arm here, so arm 0 dominates and neither reading contradicts it.
WORSE_SURVIVAL = ScenarioFile(
    "worse_survival",
    builtin("russian_roulette").payload,
    OutcomeUtility(u0=2, u1=-1),
    AsymmetricUtilitySpec(Fraction(1, 3), 2, Fraction(-1, 5)),
)
WORSE_SURVIVAL_GOLDEN = {
    ("evaluate", "text"): """\
scenario: worse_survival
variation: within_unit
deterministic: -31/35 (-0.88571428571428571429)
stochastic: -1/7 (-0.14285714285714285714)
population: -1/7 (-0.14285714285714285714)
classical: -1/14 (-0.071428571428571428571)
""",
    ("paradox", "text"): """\
scenario: worse_survival
variation: within_unit
paradox: dominance=arm0_dominates recommendation=stay contradiction=false
note: marginal survival 5/6 vs 6/7 (arm0_dominates); deterministic reading values the switch at -31/35 (stay); stochastic reading values it at -1/7 (stay).
""",
    ("paradox", "structured"): """\
{
  "paradox": {
    "contradiction": false,
    "deterministic_value": "-31/35",
    "dominance": "arm0_dominates",
    "recommendation": "stay",
    "stochastic_contradiction": false,
    "stochastic_recommendation": "stay",
    "stochastic_value": "-1/7"
  },
  "scenario": "worse_survival",
  "variation_locus": "within_unit"
}
""",
    ("simulate", "structured"): """\
{
  "scenario": "worse_survival",
  "simulation": {
    "mean": -0.1470535625,
    "replications": 100000,
    "stderr": 0.0002848507088600697,
    "target": "-1/7"
  },
  "variation_locus": "within_unit"
}
""",
}


@pytest.mark.parametrize(
    "key", list(WORSE_SURVIVAL_GOLDEN), ids=["-".join(k) for k in WORSE_SURVIVAL_GOLDEN]
)
def test_golden_survival_the_worse_outcome(key, tmp_path, capsys):
    command, fmt = key
    path = tmp_path / "worse_survival.json"
    path.write_text(json.dumps(serialize_scenario(WORSE_SURVIVAL)))
    argv = [command, "--scenario", str(path), "--format", fmt]
    if command == "simulate":
        argv += GOLDEN_SIMULATE_FLAGS
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == WORSE_SURVIVAL_GOLDEN[key]
    if command == "simulate":
        # The pinned mean sits within 4 standard errors of the nested
        # estimator's exact finite-K expectation.
        result = json.loads(out)["simulation"]
        target = mixture_expectation(
            as_population(WORSE_SURVIVAL), 1024, WORSE_SURVIVAL.asymmetry, WORSE_SURVIVAL.utility
        )
        assert abs(result["mean"] - target) < 4 * result["stderr"]


def test_calls_share_one_parser_and_a_usage_error_leaves_it_intact(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    key = ("paradox", "snakebite")
    assert main(golden_argv(*key)) == 0
    assert capsys.readouterr().out == GOLDEN[key]
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--scenario", "snakebite", "--evaluator", "bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert main(golden_argv(*key)) == 0
    assert capsys.readouterr().out == GOLDEN[key]
    assert len(parsers) == 3
    assert parsers[0] is parsers[1] is parsers[2]
