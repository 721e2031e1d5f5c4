#!/usr/bin/env python3
"""donoharm benchmark: CLI latency, exact report, simulation and lottery time.

    python3 bench/run.py --workload catalog_cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Load is a closed loop with one client: one call in flight, CLI
calls are sequential child processes.  Every output is checked against
references computed without donoharm (see inputs.py); an operation that
raises, exits non-zero or fails a check counts against ``error_rate``.

A run is a parent process that writes the inputs and their references,
times a few set-up probes (fresh processes that import donoharm and write
the inputs, then exit), and then starts one worker process that measures
for ``--seconds``.

Timings are normalised to host speed.  Each metric's batches alternate
with runs of a calibration task that does not involve donoharm, and a
sample counts as its seconds x the calibration's reference seconds
(REFERENCE_S) / the median calibration time.  On a host whose speed
drifts that cancels most of the drift, while a change to donoharm moves
the figure by the same share as the raw time.  Raw medians are printed
beside the normalised ones.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead, taken from spans around donoharm's public
functions, a separate counting pass, and child-process probes.  Lines
before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs  # the bench's own modules, next to this file
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("catalog_cli", "population_wide", "population_narrow", "lottery_trees")
SIZES = {
    "full": {
        "types": 10_000, "wide_reps": 100_000, "narrow_reps": 2_000_000,
        "depth": 9, "branches": 10_000, "catalog_reps": 10_000,
    },
    "tiny": {
        "types": 50, "wide_reps": 2_000, "narrow_reps": 20_000,
        "depth": 3, "branches": 20, "catalog_reps": 1_000,
    },
}
INNER_SAMPLES = 1024
Z_MAX = 5.0  # a simulated mean must sit within Z_MAX standard errors of its finite-K expectation
FLOAT_TOL = 1e-9  # rounding allowance for a mean whose standard error is 0
# Cheap passes repeat within a batch until this much time has passed, so the
# first, cache-cold pass after a heavy one is a small share of the samples.
MIN_BATCH_S = 0.25
SETUP_PROBES = 5
CLI_PROBES = 5
CHILD_TIMEOUT_S = 150.0
INPROC = ("exact_report_s", "simulate_s", "lottery_report_s")
CONTROL_CLI = (
    ["evaluate", "--scenario", "russian_roulette"],
    ["paradox", "--scenario", "russian_roulette"],
    ["lottery", "--scenario", "nm_incoherence"],
)
EXACT_COMMANDS = (  # commands that never simulate, for cli.numpy_loaded_exact
    ["evaluate", "--scenario", "russian_roulette"],
    ["paradox", "--scenario", "russian_roulette"],
    ["lottery", "--scenario", "nm_incoherence"],
    ["list-scenarios"],
)
# One thread per numeric library, so no workload runs more than two at once.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}

# Calibration tasks and what each takes, in seconds, on the baseline machine
# at its usual speed (see BENCH_1.json).  Processes are timed against a
# process, pure-Python passes against Python work, and simulation against
# Python and numpy work.
CALIBRATION = {
    "cli_wall_ms": "process", "setup_s": "process",
    "exact_report_s": "python", "simulate_s": "simulation", "lottery_report_s": "python",
}
REFERENCE_S = {"process": 0.110, "python": 0.020, "simulation": 0.040}
# The end-to-end metrics each workload is about; the others are controls.
TARGETS = {
    "catalog_cli": ("cli_wall_ms",),
    "population_wide": ("exact_report_s", "simulate_s"),
    "population_narrow": ("simulate_s",),
    "lottery_trees": ("lottery_report_s",),
}
CONTROL_SHARE = 1 / 8  # of --seconds, per control metric
CAL_RUNS = 2  # calibration runs before each batch and at the end of a metric,
CAL_SHARE = 0.1  # ...or more, until they take this share of the batch before
CAL_PROCESS = "import argparse, dataclasses, decimal, email.parser, fractions, http.client, json"
CAL_TEXT = json.dumps({"rows": [{"k": f"{i}/{i + 7}", "v": [i, i * i, str(i)]} for i in range(1500)]})

END_TO_END_UNITS = {
    "cli_wall_ms": "ms", "exact_report_s": "s", "simulate_s": "s",
    "lottery_report_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "cli.modules_loaded": "count", "cli.numpy_loaded_exact": "count",
    **{name: "s" for name in tracing.SPAN_TARGETS},
    "scenario.input_bytes": "bytes",
    "engine.fraction_new_calls": "count", "engine.validate_population_calls": "count",
    "simulate.binomial_calls": "count", "simulate.peak_alloc_mb": "MB", "simulate.abs_z": "sigma",
    "lottery.nodes": "count",
    **{f"trace.overhead_{m}": "s" for m in INPROC},
}


class CheckError(Exception):
    """An output of the program differs from its reference."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def _alarm(signum, frame):
    raise TimeoutError


def run_child(argv: list[str], work: Path) -> ChildResult:
    """Run one child to completion; wall time from spawn to reap, and its own peak RSS."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            seconds, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024
        )


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# calibration


def calibrate_python() -> float:
    """Seconds for fixed pure-Python work in the exact passes' mix, with no
    donoharm code: JSON, Fraction arithmetic and small objects.  The garbage
    collector is off meanwhile, so no collection lands in the time."""
    gc.disable()
    start = perf_counter()
    doc = json.loads(CAL_TEXT)
    total = Fraction(0)
    for row in doc["rows"]:
        num, den = row["k"].split("/")
        total += Fraction(int(num), int(den))
    json.dumps(doc)
    objects = [{"a": i, "b": (i, str(i))} for i in range(10_000)]
    objects.sort(key=lambda o: -o["a"])
    seconds = perf_counter() - start
    gc.enable()
    return seconds


def calibrate_simulation() -> float:
    """The Python work, then fixed numpy work in the simulator's mix:
    binomial draws, a mask and a kinked rule over arrays of 2 x 10^5.  A
    simulate pass parses in Python and draws in numpy, and the two respond
    differently to a busy host."""
    import numpy as np

    seconds = calibrate_python()
    start = perf_counter()
    rng = np.random.default_rng(0)
    draws = rng.binomial(1024, 0.3, 200_000) / 1024
    mask = rng.random(200_000) < 0.5
    float(np.where(draws > 0.3, 0.5 * draws, draws)[mask].sum())
    return seconds + perf_counter() - start


CALIBRATORS = {"python": calibrate_python, "simulation": calibrate_simulation}


def calibrate_process(work: Path) -> float:
    """Seconds for a fixed child process: interpreter start-up and stdlib imports."""
    return run_child([sys.executable, "-c", CAL_PROCESS], work).seconds


class Calibrator:
    """A child process that runs the in-process calibrations on request.

    It holds none of the program's heap, so what it measures is the host's
    speed, not the state a pass left behind.  It runs only while the worker
    waits for it, so it never competes with a timed pass.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--calibrator"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=ROOT,
        )

    def run(self, kind: str) -> float:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def calibrator_loop() -> int:
    for line in sys.stdin:
        print(repr(CALIBRATORS[line.strip()]()), flush=True)
    return 0


# ---------------------------------------------------------------------------
# inputs and references


def write_inputs(workload: str, seed: int, size: dict, work: Path) -> dict[str, dict]:
    """Generate and write the workload's scenario files.

    Returns {name: {"path", "doc", "expected"}}; the program only ever sees
    the file (or its text), never the document it was written from.
    """
    files: dict[str, tuple[dict, dict]] = {}
    if workload == "lottery_trees":
        files["ternary"] = inputs.ternary_pair(seed, size["depth"])
        files["wide"] = inputs.wide_pair(seed, size["branches"])
    else:
        files["nm_incoherence"] = (
            inputs.NM_INCOHERENCE,
            {"report": inputs.NM_INCOHERENCE_EXPECTED, "reduced": inputs.NM_INCOHERENCE_REDUCED},
        )
    if workload == "population_wide":
        files["population"] = (inputs.population_doc(seed, size["types"]), {})
    out = {}
    for name, (doc, expected) in files.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = {"path": str(path), "doc": doc, "expected": expected}
    return out


def references(files: dict) -> dict:
    """Everything the worker checks outputs against, as plain JSON.

    Simulations carry their exact target and the estimator's finite-K
    expectation, which is what the simulated mean converges to.
    """
    refs: dict = {"exact": {}, "simulate": {}, "lottery": {}, "population": None}
    for name, values in inputs.CATALOG_EXPECTED.items():
        refs["exact"][name] = {
            "results": values,
            "paradox": {
                "dominance": "arm1_dominates",
                "contradiction": True,
                "deterministic_value": values["deterministic"],
                "stochastic_value": values["population"],
            },
        }
    populations = {name: (inputs.CATALOG_EXPECTED[name], arms) for name, arms in inputs.BUILTIN_ARMS.items()}
    if "population" in files:
        f = files["population"]
        refs["population"] = f["path"]
        refs["exact"][f["path"]] = inputs.population_reference(f["doc"])
        populations[f["path"]] = (refs["exact"][f["path"]]["results"], inputs.population_arms(f["doc"]))
    for key, (values, arms) in populations.items():
        refs["simulate"][key] = {
            "population": [values["population"], inputs.nested_expectation(arms, INNER_SAMPLES)],
            "deterministic": [values["deterministic"], ratio(values["deterministic"])],
        }
    for name, f in files.items():
        if "report" in f["expected"]:
            payload = f["doc"]["payload"]
            refs["lottery"][name] = {
                "path": f["path"], **f["expected"],
                "nodes": inputs.count_nodes(payload["left"]) + inputs.count_nodes(payload["right"]),
            }
    refs["input_bytes"] = sum(Path(f["path"]).stat().st_size for f in files.values())
    return refs


# ---------------------------------------------------------------------------
# output checks


def ratio(s: str) -> float:
    num, _, den = s.partition("/")
    return int(num) / int(den or 1)


def tree_doc(t) -> dict:
    """A lottery tree object as the scenario JSON that would describe it."""
    if hasattr(t, "branches"):
        return {"chance": [[str(p), tree_doc(sub)] for p, sub in t.branches]}
    return {"leaf": str(t.utility)}


@dataclass
class Checker:
    """The references, and the checks that use them."""

    refs: dict
    seen: dict[tuple, str] = field(default_factory=dict)
    runs: dict[str, int] = field(default_factory=dict)
    max_abs_z: float = 0.0

    def _ran(self, kind: str) -> None:
        self.runs[kind] = self.runs.get(kind, 0) + 1

    def same_as_before(self, key: tuple, stdout: str) -> None:
        first = self.seen.setdefault(key, stdout)
        self._ran("repeat_identical")
        if stdout != first:
            raise CheckError(f"{' '.join(key)}: output differs from the first run with the same arguments")

    def cli_output(self, argv: list[str], stdout: str) -> None:
        self.same_as_before(tuple(argv), stdout)
        command = argv[0]
        doc = json.loads(stdout)
        if command == "list-scenarios":
            self._ran("list")
            if doc != inputs.CATALOG:
                raise CheckError(f"list-scenarios: {doc}")
            return
        scenario = argv[argv.index("--scenario") + 1]
        exact = self.refs["exact"].get(scenario)
        if command == "evaluate":
            self._ran("evaluate")
            got = {k: v["fraction"] for k, v in doc["results"].items()}
            if got != exact["results"]:
                raise CheckError(f"evaluate {scenario}: {got} != {exact['results']}")
        elif command == "paradox":
            self._ran("paradox")
            got = {k: doc["paradox"][k] for k in exact["paradox"]}
            if got != exact["paradox"]:
                raise CheckError(f"paradox {scenario}: {got} != {exact['paradox']}")
        elif command == "lottery":
            self._ran("lottery")
            if doc["lottery"] != inputs.NM_INCOHERENCE_EXPECTED:
                raise CheckError(f"lottery {scenario}: {doc['lottery']}")
        elif command == "simulate":
            self._simulation(argv, scenario, doc["simulation"])

    def _simulation(self, argv: list[str], scenario: str, sim: dict) -> None:
        self._ran("simulate")
        evaluator = argv[argv.index("--evaluator") + 1] if "--evaluator" in argv else "population"
        target, expected = self.refs["simulate"][scenario][evaluator]
        replications = int(argv[argv.index("--replications") + 1])
        if sim["target"] != target or sim["replications"] != replications:
            raise CheckError(f"simulate {scenario} {evaluator}: target/replications {sim}")
        miss = abs(sim["mean"] - expected)
        se = sim["stderr"]
        if se > 0:
            self.max_abs_z = max(self.max_abs_z, miss / se)
        if miss > Z_MAX * se + FLOAT_TOL:
            raise CheckError(
                f"simulate {scenario} {evaluator}: |{sim['mean']} - {expected}| = {miss:.3g} "
                f"exceeds {Z_MAX} x stderr {se:.3g} (finite-K expectation of target {target})"
            )

    def lottery_report(self, name: str, stdout: str, reduced: list) -> None:
        expected = self.refs["lottery"][name]
        self.same_as_before(("lottery-report", name), stdout)
        self._ran("lottery_closed_form")
        got = json.loads(stdout)["lottery"]
        if got != expected["report"]:
            raise CheckError(f"lottery {name}: {got} != {expected['report']}")
        for tree in reduced:
            self._ran("reduce_compound")
            if tree_doc(tree) != expected["reduced"]:
                raise CheckError(f"reduce_compound {name}: not the one-stage reduction")


# ---------------------------------------------------------------------------
# operations


@dataclass
class Plan:
    """What one round of a workload runs, per end-to-end metric."""

    cli: list[list[str]]  # one child process each
    exact: list[list[str]]  # in-process CLI calls making one exact pass
    simulate: list[list[str]]  # in-process CLI calls making one simulate pass
    lottery: list[str]  # lottery files making one lottery pass


def make_plan(workload: str, seed: int, size: dict, refs: dict) -> Plan:
    structured = ["--format", "structured"]

    def exact(scenario: str) -> list[list[str]]:
        return [
            ["evaluate", "--scenario", scenario, "--evaluator", "all", *structured],
            ["paradox", "--scenario", scenario, *structured],
        ]

    def simulate(scenario: str, replications: int, parallelism: int) -> list[list[str]]:
        return [
            ["simulate", "--scenario", scenario, *structured, "--evaluator", evaluator,
             "--replications", str(replications), "--seed", str(seed),
             "--parallelism", str(parallelism), "--inner-samples", str(INNER_SAMPLES)]
            for evaluator in ("population", "deterministic")
        ]

    catalog_exact = [a for s in inputs.POPULATION_BUILTINS for a in exact(s)]
    catalog_simulate = simulate("russian_roulette", size["catalog_reps"], 1)
    cli = [[*a, *structured] for a in CONTROL_CLI]
    plan = Plan(cli, catalog_exact, catalog_simulate, ["nm_incoherence"])
    if workload == "catalog_cli":
        plan.cli = [a[:3] + structured for a in catalog_exact] + [
            ["lottery", "--scenario", "nm_incoherence", *structured],
            ["list-scenarios", *structured],
            ["simulate", "--scenario", "russian_roulette", "--replications",
             str(size["catalog_reps"]), "--seed", str(seed), *structured],
        ]
        random.Random(f"catalog_cli:{seed}").shuffle(plan.cli)
    elif workload == "population_wide":
        plan.exact = exact(refs["population"])
        plan.simulate = simulate(refs["population"], size["wide_reps"], 1)
    elif workload == "population_narrow":
        plan.simulate = [
            a for s in ("russian_roulette", "migraine_mixed", "snakebite")
            for a in simulate(s, size["narrow_reps"], 2)
        ]
    elif workload == "lottery_trees":
        plan.lottery = ["ternary", "wide"]
    return plan


@dataclass
class Tally:
    """Operations attempted and failed; failures are also logged to stderr."""

    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def child(self, argv: list[str], work: Path) -> ChildResult:
        self.attempted += 1
        result = run_child(argv, work)
        if result.returncode != 0:
            self.fail(" ".join(argv[1:]), f"exit code {result.returncode}: {result.stderr.strip()[-500:]}")
        return result


class Runner:
    """Runs operations, times them, checks them and counts failures."""

    def __init__(self, checker: Checker, texts: dict[str, str], work: Path) -> None:
        self.checker = checker
        self.texts = texts
        self.work = work
        self.tally = Tally()
        self.max_child_rss_mb = 0.0

    def _check(self, what: str, check, *args) -> None:
        try:
            check(*args)
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            self.tally.fail(what, f"{type(exc).__name__}: {exc}")

    def inproc(self, argv: list[str]) -> float:
        """One CLI command run in this process, as `donoharm <argv>` would run it."""
        self.tally.attempted += 1
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the program's failure is data here
            elapsed = perf_counter() - start
            self.tally.fail(" ".join(argv), repr(exc))
            return elapsed
        elapsed = perf_counter() - start
        if rc != 0:
            self.tally.fail(" ".join(argv), f"exit code {rc}")
        else:
            self._check(" ".join(argv), self.checker.cli_output, argv, buf.getvalue())
        return elapsed

    def process(self, argv: list[str]) -> float:
        """One `python -m donoharm <argv>` child process."""
        child = self.tally.child([sys.executable, "-m", "donoharm", *argv], self.work)
        self.max_child_rss_mb = max(self.max_child_rss_mb, child.maxrss_mb)
        if child.returncode == 0:
            self._check(" ".join(argv), self.checker.cli_output, argv, child.stdout)
        return child.seconds * 1000.0

    def lottery(self, name: str) -> float:
        """Scenario text -> parse, coherence check, reduction, structured report."""
        self.tally.attempted += 1
        start = perf_counter()
        try:
            sc = scenario.parse_scenario(self.texts[name])
            pair = sc.payload
            check = lottery.coherence_check(pair.left, pair.right, pair.penalty)
            reduced = [lottery.reduce_compound(pair.left), lottery.reduce_compound(pair.right)]
            out = scenario.render_report(scenario.Report(scenario=sc.name, lottery=check), "structured")
        except Exception as exc:  # the program's failure is data here
            elapsed = perf_counter() - start
            self.tally.fail(f"lottery {name}", repr(exc))
            return elapsed
        elapsed = perf_counter() - start
        self._check(f"lottery {name}", self.checker.lottery_report, name, out, reduced)
        return elapsed

    def passes(self, plan: Plan) -> dict:
        """One sample of each end-to-end metric: the callables a round runs."""
        return {
            "cli_wall_ms": lambda: [self.process(a) for a in plan.cli],
            "exact_report_s": lambda: [sum(self.inproc(a) for a in plan.exact)],
            "simulate_s": lambda: [sum(self.inproc(a) for a in plan.simulate)],
            "lottery_report_s": lambda: [sum(self.lottery(n) for n in plan.lottery)],
        }


# ---------------------------------------------------------------------------
# statistics and output


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest
    rank); None when that percentile would not lie above the median."""
    n = len(samples)
    q = math.floor(100 * (n - 10) / n)
    if q <= 50:
        return None
    return q, sorted(samples)[math.ceil(q * n / 100) - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    line = f"{name:34s} median {statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    if t is not None:
        line += f"  p{t[0]} {t[1]:.6g} {unit}"
    return line + f"  n={len(samples)}"


# ---------------------------------------------------------------------------
# worker: the one process that measures


def measure_metric(op, calibrate, seconds: float) -> tuple[list[float], list[float]]:
    """Batches of `op` for at least one batch and `seconds`.

    Before each batch, and once more at the end, `calibrate` runs at least
    CAL_RUNS times and for CAL_SHARE of the last batch's time.  Returns the
    samples and the calibration times.
    """
    samples: list[float] = []
    calibration: list[float] = []

    def calibrate_for(duration: float) -> None:
        times = [calibrate() for _ in range(CAL_RUNS)]
        while sum(times) < duration:
            times.append(calibrate())
        calibration.extend(times)

    start = perf_counter()
    batch_s = 0.0
    while not samples or perf_counter() - start < seconds:
        calibrate_for(CAL_SHARE * batch_s)
        batch_start = perf_counter()
        while perf_counter() - batch_start < MIN_BATCH_S:
            samples.extend(op())
        batch_s = perf_counter() - batch_start
    calibrate_for(CAL_SHARE * batch_s)
    return samples, calibration


def measure(ops: dict, seconds: float, targets: tuple[str, ...], work: Path) -> tuple[dict, dict]:
    """Each metric in turn, controls first, for its share of `seconds`.

    A control gets CONTROL_SHARE of the time and the targets share the rest,
    so the heap a heavy target pass leaves behind never slows a control.
    Returns the samples and the calibration times, per metric.
    """
    controls = [m for m in ops if m not in targets]
    shares = {m: seconds * CONTROL_SHARE for m in controls}
    shares.update({m: seconds * (1 - CONTROL_SHARE * len(controls)) / len(targets) for m in targets})
    calibrator = Calibrator()
    calibrations = {kind: functools.partial(calibrator.run, kind) for kind in CALIBRATORS}
    calibrations["process"] = functools.partial(calibrate_process, work)
    samples, calibration = {}, {}
    try:
        for m in controls + list(targets):
            samples[m], calibration[m] = measure_metric(ops[m], calibrations[CALIBRATION[m]], shares[m])
    finally:
        calibrator.close()
    return samples, calibration


def traced(runner: Runner, plan: Plan, seconds: float, spans_path: Path) -> dict:
    """Alternating untraced and traced rounds of the in-process operations."""
    ops = {m: op for m, op in runner.passes(plan).items() if m in INPROC}
    tracer = tracing.Tracer()
    untraced: dict[str, list[float]] = {m: [] for m in ops}
    traced: dict[str, list[float]] = {m: [] for m in ops}
    rounds: list[dict[str, float]] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        for m, op in ops.items():
            untraced[m].extend(op())
        first = len(tracer.spans)
        with tracing.patched(tracing.SPAN_TARGETS, tracer.wrap):
            for m, op in ops.items():
                with tracer.span(m, round=len(rounds)):
                    traced[m].extend(op())
        rounds.append(tracer.totals(first))
    spans_path.write_text(json.dumps(tracer.spans))
    return {"untraced": untraced, "traced": traced, "rounds": rounds}


def counted(runner: Runner, plan: Plan) -> dict:
    """One round of the in-process operations under the counting hooks."""
    counts = tracing.Counts()
    with counts.counting():
        for m, op in runner.passes(plan).items():
            if m in INPROC:
                op()
    return {
        "engine.fraction_new_calls": counts.fraction_new,
        "engine.validate_population_calls": counts.validate_population,
        "simulate.binomial_calls": counts.binomial,
        "simulate.peak_alloc_mb": counts.peak_alloc_bytes / 2**20,
    }


def worker(args: argparse.Namespace) -> int:
    """Measure for `--seconds` and print the raw samples as one JSON line
    for the parent."""
    load_program()
    refs = json.loads((args.worker / "refs.json").read_text())
    texts = {name: Path(ref["path"]).read_text() for name, ref in refs["lottery"].items()}
    plan = make_plan(args.workload, args.seed, SIZES[args.size], refs)
    runner = Runner(Checker(refs), texts, args.worker)
    result: dict = {}
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        result.update(traced(runner, plan, args.seconds, spans_path))
        result["counts"] = counted(runner, plan)
    else:
        result["samples"], result["calibration"] = measure(
            runner.passes(plan), args.seconds, TARGETS[args.workload], args.worker
        )
    result.update({
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "checks": runner.checker.runs,
        "max_abs_z": runner.checker.max_abs_z,
        "max_child_rss_mb": runner.max_child_rss_mb,
    })
    print(json.dumps(result))
    return 0


def setup_probe(args: argparse.Namespace) -> int:
    """Set up as a fresh workload process does, then print the clock."""
    load_program()
    write_inputs(args.workload, args.seed, SIZES[args.size], args.setup_probe)
    print(repr(clock()))
    return 0


# ---------------------------------------------------------------------------
# parent: inputs, set-up probes, one worker, report


def bench_argv(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--trace", str(args.trace),
            "--seconds", str(args.seconds), *extra]


def setup_probes(args: argparse.Namespace, work: Path, tally: Tally) -> tuple[list, list]:
    """Seconds from spawning a fresh process to the end of its set-up
    (importing donoharm, writing the inputs), per probe, and the process
    calibration times around them."""
    samples = []
    calibration = [calibrate_process(work)]
    for i in range(SETUP_PROBES):
        probe = work / f"probe{i}"
        probe.mkdir()
        spawned = clock()
        child = tally.child(bench_argv(args, "--setup-probe", str(probe)), work)
        calibration.append(calibrate_process(work))
        shutil.rmtree(probe)
        try:
            samples.append(float(child.stdout.split()[-1]) - spawned)
        except (IndexError, ValueError):
            tally.fail(f"setup probe {i}", "no result")
    return samples, calibration


def run_worker(args: argparse.Namespace, work: Path, tally: Tally) -> dict:
    child = run_child(bench_argv(args, "--worker", str(work)), work)
    sys.stderr.write(child.stderr)
    try:
        result = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: the worker exited with code {child.returncode} and no result")
    result["rss_mb"] = child.maxrss_mb
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    return result


def cli_probes(work: Path, tally: Tally) -> dict[str, float]:
    """Start-up of the CLI, measured in child processes."""
    py = sys.executable
    interpreter = [tally.child([py, "-c", "pass"], work).seconds for _ in range(CLI_PROBES)]
    timed_import = (
        "import time; t = time.perf_counter(); import donoharm.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = [float(tally.child([py, "-c", timed_import], work).stdout or "nan") for _ in range(CLI_PROBES)]
    loaded = (
        "import sys; before = set(sys.modules); from donoharm.cli import main; "
        "rc = main(sys.argv[1:]); "
        "sys.stderr.write(f'{len(set(sys.modules) - before)} {int(\"numpy\" in sys.modules)}\\n'); "
        "sys.exit(rc)"
    )
    counts = []
    for argv in EXACT_COMMANDS:
        child = tally.child([py, "-c", loaded, *argv], work)
        new, numpy = child.stderr.split()[-2:] if child.returncode == 0 else ("0", "0")
        counts.append((int(new), int(numpy)))
    return {
        "cli.interpreter_ms": statistics.median(interpreter) * 1000.0,
        "cli.import_ms": statistics.median(imports) * 1000.0,
        "cli.modules_loaded": counts[0][0],
        "cli.numpy_loaded_exact": sum(n for _, n in counts),
    }


def end_to_end(args: argparse.Namespace, result: dict, setup: tuple[list, list]) -> dict:
    """Per metric, the samples scaled by REFERENCE_S / the median of their
    calibration times; reported as their median.  Raw medians beside them."""
    samples = {**result["samples"], "setup_s": setup[0]}
    calibration = {**result["calibration"], "setup_s": setup[1]}
    values = {}
    for m, raw in samples.items():
        unit, kind = END_TO_END_UNITS[m], CALIBRATION[m]
        cal = statistics.median(calibration[m])
        normalised = [t * REFERENCE_S[kind] / cal for t in raw]
        values[m] = statistics.median(normalised)
        print(describe(m, normalised, unit) + f"  (raw median {statistics.median(raw):.6g} {unit}, "
              f"{kind} calibration {cal:.6g} s, reference {REFERENCE_S[kind]} s)")
    # catalog_cli's user-facing processes are its CLI children; elsewhere the worker
    key = "max_child_rss_mb" if args.workload == "catalog_cli" else "rss_mb"
    values["peak_rss_mb"] = result[key]
    print(f"{'peak_rss_mb':34s} {values['peak_rss_mb']:.6g} MB")
    return {m: {"value": values[m], "unit": END_TO_END_UNITS[m]} for m in END_TO_END_UNITS}


def per_layer(result: dict, refs: dict, work: Path, tally: Tally) -> dict:
    untraced, traced = result["untraced"], result["traced"]
    for m in untraced:
        print(describe(f"{m} untraced", untraced[m], "s"))
        print(describe(f"{m} traced", traced[m], "s"))
    rounds = result["rounds"]
    layers = {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in tracing.SPAN_TARGETS}
    layers.update(cli_probes(work, tally))
    layers.update(result["counts"])
    layers["scenario.input_bytes"] = refs["input_bytes"]
    layers["lottery.nodes"] = sum(refs["lottery"][name]["nodes"] for name in refs["lottery"])
    layers["simulate.abs_z"] = result["max_abs_z"]
    for m in untraced:
        layers[f"trace.overhead_{m}"] = statistics.median(traced[m]) - statistics.median(untraced[m])
    for name, value in layers.items():
        print(f"{name:34s} {value:.6g} {PER_LAYER_UNITS[name]}")
    print(f"spans written to {WORK.relative_to(ROOT)}/spans-*.json")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run_workload(args: argparse.Namespace) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
              f"{'traced' if args.trace else 'untraced'}, closed loop, one client")
        refs = references(write_inputs(args.workload, args.seed, SIZES[args.size], work))
        (work / "refs.json").write_text(json.dumps(refs))
        tally = Tally()
        setup = ([], []) if args.trace else setup_probes(args, work, tally)
        result = run_worker(args, work, tally)
        if args.trace:
            metrics = per_layer(result, refs, work, tally)
        elif not setup[0]:
            raise SystemExit("error: no set-up probe produced a result")
        else:
            metrics = end_to_end(args, result, setup)
        print(f"{'error_rate':34s} {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} operations)")
        print("checks " + json.dumps(result["checks"], sort_keys=True))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_program() -> None:
    """Import donoharm from this checkout's src/, with one thread per numeric library."""
    global cli, lottery, scenario
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from donoharm import cli, lottery, scenario  # noqa: F401


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for the smoke test")
    # internal: the parent starts its children with one of these
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--calibrator", action="store_true", help=argparse.SUPPRESS)
    if "--calibrator" in sys.argv:
        return calibrator_loop()
    args = parser.parse_args()

    if not (SRC / "donoharm" / "__init__.py").is_file():
        print(f"error: no donoharm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args)
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--size", args.size]
            status |= subprocess.run(argv).returncode
        return status
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
