"""Two transforms of one exact kernel, and the paradox report.

There is one kernel, :meth:`~donoharm.model.PopulationSums.value`, read as
``m.sums.value(u, spec)``: it collapses each unit type's within-unit
randomness to an expected utility and applies the asymmetric rule,
:meth:`~donoharm.model.AsymmetricUtilitySpec.of`, to the weighted unit
types.  Where variation lives is then a property of the model, set by two
transforms of the same data:

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
model itself (population).  :func:`paradox_report` sets the readings
against dominance, read in utility terms: the sign of (u1 - u0)(p1 - p0).

Everything a population model yields (the value, the classical effect, the
marginals, the aggregate joint-law view and the pooled model) is read off
``m.sums``, the :class:`~donoharm.model.PopulationSums` that building the
model computed in its one walk over the unit types: integer numerators on
one common denominator, turned into a ``Fraction`` only for each quantity
a caller reads.  A population model is valid by construction, so no reader
checks it again.

All arithmetic here is exact; see :mod:`donoharm.simulate` for the
approximate Monte Carlo counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .model import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ONE,
    OutcomeUtility,
    PopulationModel,
    StrataDistribution,
    UnitType,
    require,
)


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


# Names of a dominance and of a recommendation, indexed by a sign: 0, 1, -1.
_DOMINANCE = ("tie", "arm1_dominates", "arm0_dominates")
_RECOMMENDATION = ("indifferent", "switch", "stay")


def _sign(value: Fraction | int) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class ParadoxReport:
    """Whether the recommendation fights the marginal dominance ordering.

    Dominance is read in utility terms, as the sign of (u1 - u0)(p1 - p0):
    arm 1 dominates when its marginal survival is higher and survival is
    the better outcome, or lower and survival is the worse one, and equal
    outcome utilities make a tie.  A recommendation contradicts dominance
    when its sign is the opposite one.

    contradiction refers to the deterministic reading, that of the model's
    aggregate joint law expanded into fixed-outcome strata.  The stochastic_*
    fields carry the model's own population reading, m.sums.value(u, spec),
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
    u: OutcomeUtility = OutcomeUtility(),
    spec: AsymmetricUtilitySpec = AsymmetricUtilitySpec(),
) -> ParadoxReport:
    """Dominance of the marginals against the deterministic reading,
    ``READINGS["deterministic"](m)``, and against the model's own population
    reading."""
    require(m, PopulationModel, "m")
    require(u, OutcomeUtility, "u")
    require(spec, AsymmetricUtilitySpec, "spec")
    p0, p1 = m.sums.marginals()
    sign = _sign(u.u1 - u.u0) * _sign(m.sums.p1 - m.sums.p0)  # of (u1 - u0)(p1 - p0)
    dominance = _DOMINANCE[sign]
    det = READINGS["deterministic"](m).sums.value(u, spec)
    stoch = m.sums.value(u, spec)
    det_sign, stoch_sign = _sign(det), _sign(stoch)
    rec, stoch_rec = _RECOMMENDATION[det_sign], _RECOMMENDATION[stoch_sign]
    contradiction = sign * det_sign < 0
    stoch_contradiction = sign * stoch_sign < 0

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
