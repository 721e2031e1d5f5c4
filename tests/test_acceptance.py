"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Exact criteria are plain equality checks on rationals.  The two Monte Carlo
criteria are statistical (4 standard errors; per-run false-failure chance
below 1e-4); the nested one additionally carries the exact finite-inner-size
bias of the estimator, computed here by an independent binomial-convolution
oracle, as a documented allowance.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    ChamberParameterization,
    Degenerate,
    PopulationModel,
    ScenarioFile,
    SimulationConfig,
    UnitType,
    as_population,
    builtin,
    coherence_check,
    expand,
    nm_value,
    paradox_report,
    penalized_value,
    simulate_population,
    strata_from_independent_marginals,
)
from test_engine import one_unit
from test_lottery import OPTION_A, OPTION_B, random_tree
from test_simulation import nested_expectation

F = Fraction

ROULETTE = strata_from_independent_marginals(F(5, 6), F(6, 7))


def report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def test_c01_exact_strata():
    assert ROULETTE.mass((1, 1)) == F(30, 42)
    assert ROULETTE.mass((0, 0)) == F(1, 42)
    assert ROULETTE.mass((1, 0)) == F(5, 42)
    assert ROULETTE.mass((0, 1)) == F(6, 42)
    report(1, "independent marginals 5/6, 6/7 give strata {30,1,5,6}/42 exactly")


def test_c02_deterministic_paradox_value():
    assert expand(ROULETTE).sums.value() == F(-1, 21)
    report(2, "deterministic evaluation of the roulette strata is exactly -1/21")


def test_c03_chamber_formulation_equivalence():
    m = as_population(ScenarioFile("roulette", ChamberParameterization(F(1, 6), F(1, 7))))
    assert m.sums.view() == ROULETTE
    assert expand(m.sums.view()).sums.value() == F(-1, 21)
    report(3, "chamber parameterization (1/6, 1/7) routes to exactly -1/21")


def test_c04_stochastic_resolution():
    value = one_unit(Bernoulli(F(5, 6)), Bernoulli(F(6, 7))).sums.value()
    assert value == F(1, 84)
    assert value > 0
    report(4, "stochastic evaluation is exactly 1/84 and positive")


def test_c05_lottery_example():
    assert nm_value(OPTION_A) == F(3, 5)
    assert nm_value(OPTION_B) == F(3, 5)
    assert penalized_value(OPTION_A) == F(27, 50)
    assert penalized_value(OPTION_B) == F(531, 1000)
    assert coherence_check(OPTION_A, OPTION_B).violation is True
    report(5, "lottery pair: equal classical values, 27/50 vs 531/1000 penalized, violation flagged")


def test_c06_snakebite_roulette_equivalence():
    m = as_population(builtin("snakebite"))
    assert m.sums.value() == F(-1, 21)
    report(6, "snakebite population evaluates to exactly -1/21, matching criterion 2")


def test_c07_ssn_scenario_oracle():
    six_only = sum(1 for r in range(1, 43) if r % 6 == 0 and r % 7 != 0)
    seven_only = sum(1 for r in range(1, 43) if r % 7 == 0 and r % 6 != 0)
    both = sum(1 for r in range(1, 43) if r % 42 == 0)
    neither = 42 - six_only - seven_only - both
    assert (neither, both, seven_only, six_only) == (30, 1, 5, 6)
    view = as_population(builtin("ssn_divisibility")).sums.view()
    assert view.mass((1, 1)) == F(neither, 42)
    assert view.mass((0, 0)) == F(both, 42)
    assert view.mass((1, 0)) == F(seven_only, 42)
    assert view.mass((0, 1)) == F(six_only, 42)
    report(7, "residue enumeration 1..42 reproduces the built-in strata exactly")


def test_c08_paradox_detector():
    m = PopulationModel(
        (UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),)
    )
    r = paradox_report(m)  # no recorded dependence: the view is ROULETTE
    assert r.deterministic_value == F(-1, 21)
    assert r.dominance_direction == "arm1_dominates"
    assert r.recommendation == "stay"
    assert r.contradiction is True
    assert r.stochastic_contradiction is False
    report(8, "roulette: deterministic reading contradicts dominance, stochastic does not")


def test_c09_symmetric_weights_collapse():
    symmetric = AsymmetricUtilitySpec(gain_weight=F(1), loss_weight=F(1))
    rng = random.Random(2024)
    for _ in range(10_000):
        p0 = F(rng.randint(0, 60), 60)
        p1 = F(rng.randint(0, 60), 60)
        d = strata_from_independent_marginals(p0, p1)
        det = expand(d).sums
        stoch = one_unit(Bernoulli(p0), Bernoulli(p1)).sums.value(spec=symmetric)
        assert det.value(spec=symmetric) == det.classical() == stoch == p1 - p0
    report(9, "symmetric weights: deterministic = stochastic = classical on 10^4 random models")


def test_c10_monte_carlo_consistency():
    cfg = SimulationConfig(replications=1_000_000, seed=0)
    det = simulate_population(expand(ROULETTE), cfg=cfg)
    assert det.exact_target == F(-1, 21)
    assert abs(det.mean - float(F(-1, 21))) < 4 * det.standard_error

    m = PopulationModel(
        (UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),)
    )
    nested = simulate_population(m, cfg=cfg)
    assert nested.exact_target == F(1, 84)
    # Documented allowance: the nested estimator's exact finite-inner-size
    # bias (independent convolution oracle) is added to the 4-sigma band.
    bias = abs(nested_expectation(F(5, 6), F(6, 7), cfg.inner_samples) - float(F(1, 84)))
    assert abs(nested.mean - float(F(1, 84))) < 4 * nested.standard_error + bias
    # And the simulator matches its own exact expectation within 4 sigma.
    target = nested_expectation(F(5, 6), F(6, 7), cfg.inner_samples)
    assert abs(nested.mean - target) < 4 * nested.standard_error
    report(10, "10^6-replication simulations agree with -1/21 and 1/84 (4 sigma, bias allowance)")


def test_c11_reduction_invariance():
    from donoharm import PenaltySpec, reduce_compound

    rng = random.Random(4242)
    for _ in range(10_000):
        t = random_tree(rng, 5)
        v = nm_value(t)
        assert nm_value(reduce_compound(t)) == v
        assert penalized_value(t, PenaltySpec(F(1))) == v
    report(11, "reduction invariance and factor-1 collapse hold on 10^4 random trees")


def test_c12_cli_determinism():
    args = [
        sys.executable,
        "-m",
        "donoharm",
        "simulate",
        "--scenario",
        "russian_roulette",
        "--replications",
        "100000",
        "--seed",
        "0",
        "--parallelism",
        "2",
        "--format",
        "structured",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed structured output
    report(12, "identical CLI invocations produce byte-identical structured output")
