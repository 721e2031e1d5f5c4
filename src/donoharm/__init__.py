"""Exact decision analysis under an asymmetric, status-quo-favoring utility.

One exact kernel reads a weighted population of unit types; two transforms
say where outcome randomness lives: ``expand`` puts it across units (each
joint stratum becomes a unit with fixed outcomes) and ``pool`` puts it
within one unit at the marginals.  The readings agree under symmetric
preferences and can disagree, even in sign, under asymmetric ones.  All
core arithmetic is exact rational; a seeded Monte Carlo oracle provides
an independent approximate check.
"""

from .engine import ParadoxReport, expand, paradox_report, pool
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
    strata_from_independent_marginals,
)
from .scenario import (
    ChamberParameterization,
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

__version__ = "0.1.0"
