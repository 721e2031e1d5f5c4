"""Exact decision analysis under an asymmetric, status-quo-favoring utility.

One evaluator reads a weighted population of unit types; two transforms
say where outcome randomness lives: ``expand`` puts it across units (each
joint stratum becomes a unit with fixed outcomes) and ``pool`` puts it
within one unit at the marginals.  The readings agree under symmetric
preferences and can disagree, even in sign, under asymmetric ones.  All
core arithmetic is exact rational; a seeded Monte Carlo oracle provides
an independent approximate check.
"""

from .engine import (
    DEFAULT_ASYMMETRY,
    DEFAULT_UTILITY,
    EvaluationResult,
    ParadoxReport,
    asymmetric_relative_utility,
    evaluate_population,
    evaluate_stochastic_unit,
    expand,
    paradox_report,
    pool,
)
from .lottery import (
    Chance,
    CoherenceReport,
    Leaf,
    LotteryTree,
    PenaltySpec,
    coherence_check,
    nm_value,
    outcome_distribution,
    penalized_value,
    reduce_compound,
)
from .model import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ModelError,
    OutcomeUtility,
    PopulationModel,
    StrataDistribution,
    UnitType,
    probability,
)
from .scenario import (
    LotteryPair,
    Report,
    ScenarioError,
    ScenarioFile,
    as_population,
    builtin,
    builtin_scenarios,
    load_scenario,
    parse_scenario,
    render_report,
    serialize_scenario,
)
from .simulate import SimulationConfig, SimulationEstimate, simulate_population
from .strata import (
    ChamberParameterization,
    strata_from_chambers,
    strata_from_independent_marginals,
)

__version__ = "0.1.0"
