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

Everything a population model yields (the value, the classical effect, the
marginals, the aggregate joint-law view and the pooled model) comes from
one pass over its unit types, ``_population_pass``.  The pass puts every
weighted term on one common denominator (``math.lcm`` of the per-type
denominators), accumulates plain integer numerators, and builds a
``Fraction`` only for each quantity a caller reads.  A population model
is valid by construction, so no reader checks it again; the per-unit
breakdown is :func:`evaluate_stochastic_unit` applied to each type.

All arithmetic here is exact; see :mod:`donoharm.simulate` for the
approximate Monte Carlo counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def classical_expected_utility(
    arm: ArmOutcomeModel, u: OutcomeUtility = DEFAULT_UTILITY
) -> Fraction:
    """Expected outcome utility under one arm's law."""
    p = arm.survival_prob
    return u.u1 * p + u.u0 * (ONE - p)


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
    return _population_pass(m).pooled()


def evaluate_stochastic_unit(
    arm0: ArmOutcomeModel,
    arm1: ArmOutcomeModel,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
) -> Fraction:
    """Collapse each arm to its expected utility, then compare asymmetrically."""
    return asymmetric_relative_utility(
        classical_expected_utility(arm0, u),
        classical_expected_utility(arm1, u),
        spec,
    )


@dataclass(frozen=True)
class _PopulationPass:
    """Integer sums of one pass over a population's unit types.

    Every sum is a numerator over the one common denominator den.  Per unit
    type, d = p1 - p0 is the arm difference; with span = U(1) - U(0), the
    stochastic reading values the type at gain * span * d or
    loss * span * d, whichever side of zero span * d falls on, and at the
    tie value when it is zero.
    """

    model: PopulationModel
    den: int
    p0: int  # sum of w * p0
    p1: int  # sum of w * p1
    s11: int  # sum of w * P(y0 = 1, y1 = 1)
    up: int  # sum of w * d over the types with d > 0
    down: int  # sum of w * d over the types with d < 0
    level: int  # sum of w over the types with d == 0

    def marginals(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.p0, self.den), Fraction(self.p1, self.den)

    def view(self) -> StrataDistribution:
        """Aggregate joint law; the other three masses follow from s11 and
        the marginals, because each type's joint law has its arms' marginals
        and the weights sum to 1."""
        den, s11 = self.den, self.s11
        return StrataDistribution(
            Fraction(s11, den),
            Fraction(den - self.p0 - self.p1 + s11, den),
            Fraction(self.p0 - s11, den),
            Fraction(self.p1 - s11, den),
        )

    def classical(self, u: OutcomeUtility) -> Fraction:
        return (u.u1 - u.u0) * Fraction(self.p1 - self.p0, self.den)

    def value(self, u: OutcomeUtility, spec: AsymmetricUtilitySpec) -> Fraction:
        """The stochastic (population) reading."""
        span = u.u1 - u.u0
        if span == 0:
            return spec.tie_value
        gain_side, loss_side = (self.up, self.down) if span > 0 else (self.down, self.up)
        return span * (
            spec.gain_weight * Fraction(gain_side, self.den)
            + spec.loss_weight * Fraction(loss_side, self.den)
        ) + spec.tie_value * Fraction(self.level, self.den)

    def breakdown(
        self, u: OutcomeUtility, spec: AsymmetricUtilitySpec
    ) -> tuple[tuple[str, Fraction, Fraction], ...]:
        """(label, weight, value) per unit type, each value one exact Fraction."""
        return tuple(
            (t.label, t.weight, evaluate_stochastic_unit(t.arm0, t.arm1, u, spec))
            for t in self.model.unit_types
        )

    def pooled(self) -> PopulationModel:
        """pool(model), read off this pass."""
        p0, p1 = self.marginals()
        m = self.model
        everyone = UnitType("everyone", ONE, Bernoulli(p0), Bernoulli(p1), self.view())
        return PopulationModel((everyone,), m.arm0_label, m.arm1_label)

    def paradox(self, u: OutcomeUtility, spec: AsymmetricUtilitySpec) -> ParadoxReport:
        """Dominance of the marginals against the deterministic reading of the
        aggregate joint law and against this model's own reading."""
        p0, p1 = self.marginals()
        if p1 > p0:
            dominance = "arm1_dominates"
        elif p0 > p1:
            dominance = "arm0_dominates"
        else:
            dominance = "tie"

        det = _population_pass(expand(self.view())).value(u, spec)
        stoch = self.value(u, spec)
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


def _population_pass(m: PopulationModel) -> _PopulationPass:
    """One walk over the unit types, accumulating integer numerators.

    Each term is a product of a type's own small numerators, put on the
    common denominator by one multiplication, so no step multiplies two
    numbers of the common denominator's size however many distinct
    denominators the population has.
    """
    units = m.unit_types
    # Denominator of w * p0 * p1 per type, and of w * P(1, 1) where a joint is recorded.
    den = lcm(
        *{
            t.weight.denominator
            * t.arm0.survival_prob.denominator
            * t.arm1.survival_prob.denominator
            for t in units
        },
        *{
            t.weight.denominator * t.cross_arm_dependence.mass_11.denominator
            for t in units
            if t.cross_arm_dependence is not None
        },
    )
    p0_sum = p1_sum = s11 = up = down = level = 0
    for t in units:
        w, q0, q1 = t.weight, t.arm0.survival_prob, t.arm1.survival_prob
        n0, d0, n1, d1 = q0.numerator, q0.denominator, q1.numerator, q1.denominator
        # w * (anything over d0 * d1) is put on den by the factor k.
        k = w.numerator * (den // (w.denominator * d0 * d1))
        e = n1 * d0 - n0 * d1  # d = e / (d0 * d1)
        dep = t.cross_arm_dependence
        if dep is None:
            s11 += k * n0 * n1
        else:
            j11 = dep.mass_11
            s11 += w.numerator * j11.numerator * (den // (w.denominator * j11.denominator))
        p0_sum += k * n0 * d1
        p1_sum += k * n1 * d0
        if e > 0:
            up += k * e
        elif e < 0:
            down += k * e
        else:
            level += k * d0 * d1
    return _PopulationPass(
        model=m,
        den=den,
        p0=p0_sum,
        p1=p1_sum,
        s11=s11,
        up=up,
        down=down,
        level=level,
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
    exact = _population_pass(m)
    return EvaluationResult(
        expected_relative_utility=exact.value(u, spec),
        per_unit_breakdown=exact.breakdown(u, spec),
        classical_effect=exact.classical(u),
    )


def population_marginals(m: PopulationModel) -> tuple[Fraction, Fraction]:
    """Population-level survival probabilities (arm 0, arm 1)."""
    return _population_pass(m).marginals()


def deterministic_view_of(m: PopulationModel) -> StrataDistribution:
    """Aggregate joint (y0, y1) law: the weighted mixture over unit types of
    each type's recorded cross-arm dependence, or of the independent product
    of its arm laws where none is recorded."""
    return _population_pass(m).view()


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

    contradiction refers to the deterministic reading; the stochastic
    counterparts are carried alongside so reports can show that the same
    numbers, read stochastically, agree with dominance.
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
    """Compare dominance with the deterministic recommendation and flag conflicts."""
    return _population_pass(m).paradox(u, spec)
