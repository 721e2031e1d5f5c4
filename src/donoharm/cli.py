"""Command-line front end.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 data/validation error, 2 usage error.  Runs are reproducible: the same
flags (including --seed) give byte-identical structured output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .engine import (
    DEFAULT_ASYMMETRY,
    DEFAULT_UTILITY,
    deterministic_view_of,
    expand,
    paradox_report,
    pool,
)
from .lottery import coherence_check
from .model import ModelError, PopulationModel
from .scenario import (
    BUILTINS,
    Report,
    ScenarioError,
    ScenarioFile,
    as_population,
    builtin_scenarios,
    load_scenario,
    render_report,
)
from .simulate import SimulationConfig, simulate_population

EVALUATORS = ("deterministic", "stochastic", "population")


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donoharm",
        description="Exact decision analysis under an asymmetric status-quo utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="built-in name or path to a JSON file")
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p_eval = sub.add_parser("evaluate", help="run the exact evaluators")
    add_common(p_eval)
    p_eval.add_argument("--evaluator", choices=EVALUATORS + ("all",), default="all")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo oracle")
    add_common(p_sim)
    p_sim.add_argument("--evaluator", choices=EVALUATORS, default="population")
    p_sim.add_argument("--replications", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker threads drawing replication blocks; results do not depend on it",
    )
    p_sim.add_argument("--inner-samples", type=int, default=1024)

    p_par = sub.add_parser("paradox", help="check recommendation against dominance")
    add_common(p_par)

    p_lot = sub.add_parser("lottery", help="compare a lottery pair under the penalty")
    add_common(p_lot)

    p_list = sub.add_parser("list-scenarios", help="list built-in scenarios")
    p_list.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def _resolve_scenario(source: str) -> ScenarioFile:
    if source in BUILTINS:
        return BUILTINS[source]()
    path = Path(source)
    if path.exists():
        return load_scenario(path)
    raise ScenarioError(f"{source!r} is neither a built-in scenario nor a readable file")


def _reading(m: PopulationModel, evaluator: str) -> PopulationModel:
    """The model an --evaluator value reads: the expanded joint view of the
    scenario's model (deterministic), its pooled unit (stochastic) or the
    model itself (population)."""
    if evaluator == "deterministic":
        return expand(deterministic_view_of(m))
    if evaluator == "stochastic":
        return pool(m)
    return m


def _exact_results(sc: ScenarioFile, which: str) -> dict:
    m = as_population(sc)
    u = sc.utility or DEFAULT_UTILITY
    spec = sc.asymmetry or DEFAULT_ASYMMETRY
    results = {e: _reading(m, e).sums.value(u, spec) for e in EVALUATORS if which in (e, "all")}
    if which == "all":
        results["classical"] = m.sums.classical(u)
    return results


def _cmd_evaluate(args: argparse.Namespace) -> int:
    sc = _resolve_scenario(args.scenario)
    if sc.kind == "lottery_pair":
        raise ScenarioError("lottery scenarios are evaluated with the 'lottery' command")
    report = Report(
        scenario=sc.name,
        variation_locus=sc.variation_locus,
        results=_exact_results(sc, args.evaluator),
    )
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    sc = _resolve_scenario(args.scenario)
    if sc.kind == "lottery_pair":
        raise ScenarioError("lottery scenarios cannot be simulated; use the 'lottery' command")
    u = sc.utility or DEFAULT_UTILITY
    spec = sc.asymmetry or DEFAULT_ASYMMETRY
    cfg = SimulationConfig(
        replications=args.replications,
        seed=args.seed,
        parallelism=args.parallelism,
        inner_samples=args.inner_samples,
    )
    reading = _reading(as_population(sc), args.evaluator)
    estimate = simulate_population(reading, u, spec, cfg, exact_target=reading.sums.value(u, spec))
    report = Report(scenario=sc.name, variation_locus=sc.variation_locus, simulation=estimate)
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_paradox(args: argparse.Namespace) -> int:
    sc = _resolve_scenario(args.scenario)
    if sc.kind == "lottery_pair":
        raise ScenarioError("lottery scenarios have no paradox check; use the 'lottery' command")
    u = sc.utility or DEFAULT_UTILITY
    spec = sc.asymmetry or DEFAULT_ASYMMETRY
    report = Report(
        scenario=sc.name,
        variation_locus=sc.variation_locus,
        paradox=paradox_report(as_population(sc), u, spec),
    )
    # A detected contradiction is data, not an error: still exit 0.
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_lottery(args: argparse.Namespace) -> int:
    sc = _resolve_scenario(args.scenario)
    if sc.kind != "lottery_pair":
        raise ScenarioError(
            f"'lottery' needs a lottery_pair scenario, got kind {sc.kind!r}"
        )
    check = coherence_check(sc.payload.left, sc.payload.right, sc.payload.penalty)
    report = Report(scenario=sc.name, lottery=check)
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = builtin_scenarios()
    if args.format == "structured":
        import json

        doc = [{"name": sc.name, "kind": sc.kind} for sc in scenarios]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for sc in scenarios:
            sys.stdout.write(f"{sc.name} ({sc.kind})\n")
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "paradox": _cmd_paradox,
    "lottery": _cmd_lottery,
    "list-scenarios": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Input fields are capped below Python's int-to-text digit limit, but a
        # result combines several of them and can exceed it when printed.
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: a result has a numerator or denominator too long to print "
            f"(over {sys.get_int_max_str_digits()} digits); use shorter fractions",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
