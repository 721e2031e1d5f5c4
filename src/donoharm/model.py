"""Core value types shared by every evaluator.

All quantities are exact rationals (:class:`fractions.Fraction`), so results
like -1/21 or 1/84 can be checked with plain equality.  Floats appear only in
the Monte Carlo module and in report formatting.

Every type here is an immutable value, valid by construction: each checks
its invariants in ``__post_init__`` and raises :class:`ModelError`, so a
:class:`PopulationModel` that exists has weights summing to 1 and recorded
dependences that match their arms.  Instances can be shared freely across
threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union


class ModelError(ValueError):
    """Raised when a domain value or model violates a structural invariant."""


ZERO = Fraction(0)
ONE = Fraction(1)


def rational(numerator: int, denominator: int = 1) -> Fraction:
    """Exact rational in lowest terms; sign carried by the numerator.

    Raises :class:`ModelError` on a zero denominator.
    """
    try:
        return Fraction(numerator, denominator)
    except ZeroDivisionError:
        raise ModelError("zero denominator in rational()") from None


def probability(value: Union[int, Fraction]) -> Fraction:
    """Validate and return an exact probability in [0, 1]."""
    q = value if type(value) is Fraction else Fraction(value)
    # A Fraction's denominator is positive, so this is 0 <= q <= 1.
    if not 0 <= q.numerator <= q.denominator:
        raise ModelError(f"probability {q} outside [0, 1]")
    return q


# Binary outcomes: 0 = death / customer lost, 1 = survival / customer retained.
# The four joint classes of (outcome under arm 0, outcome under arm 1),
# in the fixed order used everywhere (distributions, simulation, reports).
ALWAYS_LIVE = (1, 1)
ALWAYS_DIE = (0, 0)
HARMED = (1, 0)
SAVED = (0, 1)
STRATA = (ALWAYS_LIVE, ALWAYS_DIE, HARMED, SAVED)

# StrataDistribution field holding each stratum's mass.
_MASS_FIELD = {ALWAYS_LIVE: "mass_11", ALWAYS_DIE: "mass_00", HARMED: "mass_10", SAVED: "mass_01"}


def _check_outcome(value: int) -> int:
    if isinstance(value, bool) or value not in (0, 1):
        raise ModelError(f"binary outcome must be 0 or 1, got {value!r}")
    return value


@dataclass(frozen=True)
class StrataDistribution:
    """Joint distribution over the four classes of (y0, y1).

    Masses must be exact probabilities summing to exactly 1; there is no
    tolerance anywhere.
    """

    mass_11: Fraction
    mass_00: Fraction
    mass_10: Fraction
    mass_01: Fraction

    def __post_init__(self) -> None:
        for name in _MASS_FIELD.values():
            object.__setattr__(self, name, probability(getattr(self, name)))
        total = self.mass_11 + self.mass_00 + self.mass_10 + self.mass_01
        if total != ONE:
            raise ModelError(f"strata masses sum to {total}, expected exactly 1")

    def mass(self, stratum: tuple[int, int]) -> Fraction:
        return getattr(self, _MASS_FIELD[stratum])

    def items(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """Strata with their masses, in the fixed canonical order."""
        return tuple((s, self.mass(s)) for s in STRATA)


@dataclass(frozen=True)
class OutcomeUtility:
    """Utility of each binary outcome; default U(0)=0, U(1)=1."""

    u0: Fraction = ZERO
    u1: Fraction = ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "u0", Fraction(self.u0))
        object.__setattr__(self, "u1", Fraction(self.u1))

    def of(self, outcome: int) -> Fraction:
        return self.u1 if _check_outcome(outcome) == 1 else self.u0


@dataclass(frozen=True)
class AsymmetricUtilitySpec:
    """Weights of the status-quo-favoring comparison rule.

    A gain of d in utility is worth gain_weight * d, a loss costs
    loss_weight * d, and an exact tie is worth tie_value.  Defaults make a
    loss twice as bad as the equivalent gain.
    """

    gain_weight: Fraction = Fraction(1, 2)
    loss_weight: Fraction = ONE
    tie_value: Fraction = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain_weight", Fraction(self.gain_weight))
        object.__setattr__(self, "loss_weight", Fraction(self.loss_weight))
        object.__setattr__(self, "tie_value", Fraction(self.tie_value))
        if self.gain_weight <= 0 or self.loss_weight <= 0:
            raise ModelError("gain_weight and loss_weight must be positive")


@dataclass(frozen=True)
class Degenerate:
    """Arm whose outcome is a fixed attribute of the unit."""

    outcome: int

    def __post_init__(self) -> None:
        _check_outcome(self.outcome)

    @property
    def survival_prob(self) -> Fraction:
        return ONE if self.outcome == 1 else ZERO


@dataclass(frozen=True)
class Bernoulli:
    """Arm whose outcome is a fresh coin flip on every application."""

    survival_prob: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "survival_prob", probability(self.survival_prob))


#: Degenerate(o) behaves identically to Bernoulli(o) under every evaluator.
ArmOutcomeModel = Union[Degenerate, Bernoulli]


@dataclass(frozen=True)
class UnitType:
    """A class of units with a weight and an outcome law per arm.

    cross_arm_dependence optionally records the within-type joint law of
    (y0, y1); evaluators that only need marginals ignore it.
    """

    label: str
    weight: Fraction
    arm0: ArmOutcomeModel
    arm1: ArmOutcomeModel
    cross_arm_dependence: StrataDistribution | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", probability(self.weight))


@dataclass(frozen=True)
class PopulationModel:
    """Weighted mixture of unit types; the carrier both readings consume.

    Raises :class:`ModelError` with every message of
    :func:`validate_population`, joined by "; ", if the mixture is invalid.
    """

    unit_types: tuple[UnitType, ...]
    arm0_label: str = "control"
    arm1_label: str = "treatment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_types", tuple(self.unit_types))
        violations = validate_population(self)
        if violations:
            raise ModelError("; ".join(violations))


def validate_population(model: PopulationModel) -> list[str]:
    """Return the list of violated invariants (empty means valid): at least
    one unit type, weights summing to exactly 1, and each recorded cross-arm
    dependence having its arms' survival probabilities as marginals."""
    violations: list[str] = []
    if not model.unit_types:
        violations.append("population has no unit types")
        return violations
    den = lcm(*{t.weight.denominator for t in model.unit_types})
    total = sum(t.weight.numerator * (den // t.weight.denominator) for t in model.unit_types)
    if total != den:
        violations.append(
            f"unit-type weights sum to {Fraction(total, den)}, expected exactly 1"
        )
    for t in model.unit_types:
        dep = t.cross_arm_dependence
        if dep is None:
            continue
        p0 = dep.mass_11 + dep.mass_10
        p1 = dep.mass_11 + dep.mass_01
        if p0 != t.arm0.survival_prob:
            violations.append(
                f"unit type {t.label!r}: cross-arm dependence marginal {p0} "
                f"does not match arm0 survival probability {t.arm0.survival_prob}"
            )
        if p1 != t.arm1.survival_prob:
            violations.append(
                f"unit type {t.label!r}: cross-arm dependence marginal {p1} "
                f"does not match arm1 survival probability {t.arm1.survival_prob}"
            )
    return violations
