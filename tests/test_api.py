"""The package's public names, pinned: adding or dropping one is an edit here."""

import types

import donoharm

PUBLIC_NAMES = [
    "AsymmetricUtilitySpec",
    "Bernoulli",
    "ChamberParameterization",
    "Chance",
    "CoherenceReport",
    "DEFAULT_ASYMMETRY",
    "DEFAULT_UTILITY",
    "Degenerate",
    "EvaluationResult",
    "Leaf",
    "LotteryPair",
    "LotteryTree",
    "ModelError",
    "OutcomeUtility",
    "ParadoxReport",
    "PenaltySpec",
    "PopulationModel",
    "Report",
    "ScenarioError",
    "ScenarioFile",
    "SimulationConfig",
    "SimulationEstimate",
    "StrataDistribution",
    "UnitType",
    "as_population",
    "asymmetric_relative_utility",
    "builtin",
    "builtin_scenarios",
    "classical_expected_utility",
    "coherence_check",
    "deterministic_view_of",
    "evaluate_population",
    "evaluate_stochastic_unit",
    "expand",
    "load_scenario",
    "marginals_of",
    "nm_value",
    "outcome_distribution",
    "paradox_report",
    "parse_scenario",
    "penalized_value",
    "pool",
    "population_marginals",
    "probability",
    "rational",
    "reduce_compound",
    "render_report",
    "serialize_scenario",
    "simulate_population",
    "strata_from_chambers",
    "strata_from_independent_marginals",
]


def test_public_names():
    # Submodules show up in dir() once imported, which depends on test order.
    public = [
        name
        for name in sorted(dir(donoharm))
        if not name.startswith("_") and not isinstance(getattr(donoharm, name), types.ModuleType)
    ]
    assert public == PUBLIC_NAMES
