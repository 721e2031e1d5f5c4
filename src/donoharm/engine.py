"""The asymmetric comparison rule, one exact evaluator and two transforms.

There is one evaluator, :func:`evaluate_population`: it collapses each unit
type's within-unit randomness to an expected utility and applies the
asymmetric rule to the weighted unit types.  Where variation lives is then
a property of the model, set by two transforms of the same data:

- :func:`expand` reads a joint (y0, y1) law deterministically: each stratum
  becomes a unit type whose outcomes are fixed, so all variation is across
  units and the rule sees every realised pair;
- :func:`pool` reads a population stochastically: it becomes one unit at
  its marginals, so all variation is within that unit and the rule sees
  only the two expected utilities.

Outside the symmetric-weights special case the two readings differ, which
is the whole point: the same marginal survival probabilities can yield
opposite recommendations (-1/21 against +1/84 for the roulette numbers).
:data:`READINGS` names the three models a population is read as: its
aggregate joint law expanded (deterministic), pooled (stochastic), and the
model itself (population).

Everything a population model yields (the value, the classical effect, the
marginals, the aggregate joint-law view and the pooled model) is read off
``m.sums``, the :class:`~donoharm.model.PopulationSums` that building the
model computed in its one walk over the unit types: integer numerators on
one common denominator, turned into a ``Fraction`` only for each quantity
a caller reads.  A population model is valid by construction, so no reader
checks it again; the per-unit breakdown is :func:`evaluate_stochastic_unit`
applied to each type.

All arithmetic here is exact; see :mod:`donoharm.simulate` for the
approximate Monte Carlo counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .model import (
    ArmOutcomeModel,
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ONE,
    OutcomeUtility,
    PopulationModel,
    StrataDistribution,
    UnitType,
)

DEFAULT_UTILITY = OutcomeUtility()
DEFAULT_ASYMMETRY = AsymmetricUtilitySpec()


@dataclass(frozen=True)
class EvaluationResult:
    """Exact expected relative utility plus the pieces it is built from.

    classical_effect is the plain difference of per-arm expected utilities,
    which any symmetric rule would report; the gap between it and
    expected_relative_utility is exactly the asymmetry at work.
    """

    expected_relative_utility: Fraction
    per_unit_breakdown: tuple[tuple[str, Fraction, Fraction], ...]
    classical_effect: Fraction


def asymmetric_relative_utility(
    u0: Fraction,
    u1: Fraction,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
) -> Fraction:
    """Value of arm 1 relative to arm 0 given their (realized or expected) utilities."""
    u0 = Fraction(u0)
    u1 = Fraction(u1)
    if u1 == u0:
        return spec.tie_value
    if u1 > u0:
        return spec.gain_weight * (u1 - u0)
    return -spec.loss_weight * (u0 - u1)


def expand(d: StrataDistribution) -> PopulationModel:
    """The deterministic reading of a joint law: one unit type per stratum,
    labelled "(y0,y1)" in STRATA order, whose arms are fixed at y0 and y1.
    Zero-mass strata stay, as zero-weight types."""
    return PopulationModel(
        tuple(
            UnitType(f"({y0},{y1})", mass, Degenerate(y0), Degenerate(y1))
            for (y0, y1), mass in d.items()
        )
    )


def pool(m: PopulationModel) -> PopulationModel:
    """The stochastic reading of a population: one "everyone" unit, each arm
    a Bernoulli at the population marginal, with the aggregate joint law
    recorded as its cross-arm dependence.  pool(pool(m)) == pool(m)."""
    p0, p1 = m.sums.marginals()
    everyone = UnitType("everyone", ONE, Bernoulli(p0), Bernoulli(p1), m.sums.view())
    return PopulationModel((everyone,), m.arm0_label, m.arm1_label)


#: Each reading's name and the model it evaluates, in report order.
READINGS: dict[str, Callable[[PopulationModel], PopulationModel]] = {
    "deterministic": lambda m: expand(m.sums.view()),
    "stochastic": pool,
    "population": lambda m: m,
}


def evaluate_stochastic_unit(
    arm0: ArmOutcomeModel,
    arm1: ArmOutcomeModel,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
) -> Fraction:
    """Collapse each arm to its expected utility, then compare asymmetrically."""
    span = u.u1 - u.u0
    return asymmetric_relative_utility(
        u.u0 + span * arm0.survival_prob, u.u0 + span * arm1.survival_prob, spec
    )


def evaluate_population(
    m: PopulationModel,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
) -> EvaluationResult:
    """Weight-weighted asymmetric comparison, one term per unit type.

    Within-unit randomness is collapsed inside each unit type; only the
    variation across unit types is exposed to the asymmetric rule.
    """
    return EvaluationResult(
        expected_relative_utility=m.sums.value(u, spec),
        per_unit_breakdown=tuple(
            (t.label, t.weight, evaluate_stochastic_unit(t.arm0, t.arm1, u, spec))
            for t in m.unit_types
        ),
        classical_effect=m.sums.classical(u),
    )


def _recommendation(value: Fraction) -> str:
    if value > 0:
        return "switch"
    if value < 0:
        return "stay"
    return "indifferent"


def _contradicts(dominance: str, recommendation: str) -> bool:
    return (dominance == "arm1_dominates" and recommendation == "stay") or (
        dominance == "arm0_dominates" and recommendation == "switch"
    )


@dataclass(frozen=True)
class ParadoxReport:
    """Whether the recommendation fights the marginal dominance ordering.

    contradiction refers to the deterministic reading, that of the model's
    aggregate joint law expanded into fixed-outcome strata.  The stochastic_*
    fields carry the model's own population reading, evaluate_population(m),
    not the pooled one: they agree with dominance only where the model puts
    its variation within units.  On an across-unit population such as
    snakebite or ssn_divisibility, stochastic_value is the deterministic
    -1/21 and stochastic_contradiction is true, while the pooled reading
    (``evaluate --evaluator stochastic``) is +1/84.  The narrative calls the
    population reading "stochastic" all the same.
    """

    dominance_direction: str  # "arm1_dominates" | "arm0_dominates" | "tie"
    recommendation: str  # "switch" | "stay" | "indifferent"
    contradiction: bool
    deterministic_value: Fraction
    stochastic_value: Fraction
    stochastic_recommendation: str
    stochastic_contradiction: bool
    narrative: str


def paradox_report(
    m: PopulationModel,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
) -> ParadoxReport:
    """Dominance of the marginals against the deterministic reading,
    ``READINGS["deterministic"](m)``, and against the model's own population
    reading."""
    p0, p1 = m.sums.marginals()
    if p1 > p0:
        dominance = "arm1_dominates"
    elif p0 > p1:
        dominance = "arm0_dominates"
    else:
        dominance = "tie"

    det = READINGS["deterministic"](m).sums.value(u, spec)
    stoch = m.sums.value(u, spec)
    rec = _recommendation(det)
    stoch_rec = _recommendation(stoch)
    contradiction = _contradicts(dominance, rec)
    stoch_contradiction = _contradicts(dominance, stoch_rec)

    narrative = (
        f"marginal survival {p0} vs {p1} ({dominance}); "
        f"deterministic reading values the switch at {det} ({rec}); "
        f"stochastic reading values it at {stoch} ({stoch_rec})."
    )
    if contradiction:
        narrative += " The deterministic recommendation opposes dominance."
    return ParadoxReport(
        dominance_direction=dominance,
        recommendation=rec,
        contradiction=contradiction,
        deterministic_value=det,
        stochastic_value=stoch,
        stochastic_recommendation=stoch_rec,
        stochastic_contradiction=stoch_contradiction,
        narrative=narrative,
    )
