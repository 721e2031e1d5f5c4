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

from .engine import READINGS, paradox_report
from .lottery import coherence_check
from .model import AsymmetricUtilitySpec, ModelError, OutcomeUtility
from .scenario import (
    BUILTINS,
    FORMATS,
    Report,
    ScenarioError,
    ScenarioFile,
    as_population,
    builtin_scenarios,
    load_scenario,
    render_report,
)
from .simulate import SimulationConfig, simulate_population


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donoharm",
        description="Exact decision analysis under an asymmetric status-quo utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="built-in name or path to a JSON file")
        p.add_argument("--format", choices=FORMATS, default="text")

    p_eval = sub.add_parser("evaluate", help="run the exact evaluators")
    add_common(p_eval)
    p_eval.add_argument("--evaluator", choices=(*READINGS, "all"), default="all")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo oracle")
    add_common(p_sim)
    p_sim.add_argument("--evaluator", choices=tuple(READINGS), default="population")
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
    p_list.add_argument("--format", choices=FORMATS, default="text")
    return parser


def _resolve_scenario(source: str) -> ScenarioFile:
    if source in BUILTINS:
        return BUILTINS[source]()
    path = Path(source)
    if path.exists():
        return load_scenario(path)
    raise ScenarioError(f"{source!r} is neither a built-in scenario nor a readable file")


def _population(args: argparse.Namespace) -> tuple:
    """(scenario, population model, utility, asymmetry) of --scenario, with
    the default utility and asymmetry where the file gives none."""
    sc = _resolve_scenario(args.scenario)
    u, spec = sc.utility or OutcomeUtility(), sc.asymmetry or AsymmetricUtilitySpec()
    return sc, as_population(sc), u, spec


def _cmd_evaluate(args: argparse.Namespace) -> Report:
    sc, m, u, spec = _population(args)
    which = args.evaluator
    if which == "all":
        results = {e: read(m).sums.value(u, spec) for e, read in READINGS.items()}
        results["classical"] = m.sums.classical(u)
        return Report(sc.name, results, m.variation_locus)
    # One reading reports the locus of the model it evaluated, as simulate does.
    reading = READINGS[which](m)
    return Report(sc.name, {which: reading.sums.value(u, spec)}, reading.variation_locus)


def _cmd_simulate(args: argparse.Namespace) -> Report:
    sc, m, u, spec = _population(args)
    cfg = SimulationConfig(
        replications=args.replications,
        seed=args.seed,
        parallelism=args.parallelism,
        inner_samples=args.inner_samples,
    )
    reading = READINGS[args.evaluator](m)
    estimate = simulate_population(reading, u, spec, cfg)
    return Report(sc.name, variation_locus=reading.variation_locus, simulation=estimate)


def _cmd_paradox(args: argparse.Namespace) -> Report:
    # A detected contradiction is data, not an error: still exit 0.
    sc, m, u, spec = _population(args)
    return Report(sc.name, variation_locus=m.variation_locus, paradox=paradox_report(m, u, spec))


def _cmd_lottery(args: argparse.Namespace) -> Report:
    sc = _resolve_scenario(args.scenario)
    if sc.kind != "lottery_pair":
        raise ScenarioError(
            f"'lottery' needs a lottery_pair scenario, got kind {sc.kind!r}"
        )
    check = coherence_check(sc.payload.left, sc.payload.right, sc.payload.penalty)
    return Report(sc.name, lottery=check)


def _cmd_list(args: argparse.Namespace) -> str:
    scenarios = builtin_scenarios()
    if args.format == "structured":
        import json

        doc = [{"name": sc.name, "kind": sc.kind} for sc in scenarios]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "".join(f"{sc.name} ({sc.kind})\n" for sc in scenarios)


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
        # A scenario command returns a Report; list-scenarios, its own listing.
        out = _COMMANDS[args.command](args)
        sys.stdout.write(render_report(out, args.format) if isinstance(out, Report) else out)
        return 0
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
