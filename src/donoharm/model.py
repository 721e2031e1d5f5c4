"""Core value types shared by every evaluator.

All quantities are exact rationals (:class:`fractions.Fraction`), so results
like -1/21 or 1/84 can be checked with plain equality.  Floats appear only in
the Monte Carlo module and in report formatting.

The asymmetric comparison rule is written once, as
:meth:`AsymmetricUtilitySpec.of`; the exact readings, the paradox report
and the Monte Carlo sampler all apply it from there.

Every type here is an immutable value, valid by construction: each checks
its invariants in ``__post_init__`` and raises :class:`ModelError`, so a
:class:`PopulationModel` that exists has weights summing to 1 and recorded
dependences that match their arms.  The walk over the unit types that
checks a population also computes its :class:`PopulationSums`, the exact
integer sums every reading of the population is read off, so a population
is walked once, when it is built.  Instances can be shared freely across
threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Sequence, TypeVar, Union

_T = TypeVar("_T")


class ModelError(ValueError):
    """Raised when a domain value or model violates a structural invariant."""


ZERO = Fraction(0)
ONE = Fraction(1)


def exact(value: Union[int, float, str, Fraction]) -> Fraction:
    """value as a Fraction; a float only if it is exactly the decimal it
    prints as (0.25, not 0.1).  Anything Fraction cannot read, and a zero
    denominator, raise :class:`ModelError`."""
    if type(value) is Fraction:  # Fraction(value) would only copy it, slowly
        return value
    if isinstance(value, float) and not (isfinite(value) and Fraction(repr(value)) == value):
        raise ModelError(f"float {value!r} is not an exact rational; use a Fraction or 'a/b'")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ModelError(f"zero denominator in {value!r}") from None
    except (TypeError, ValueError):
        raise ModelError(
            f"cannot read {value!r} as an exact rational; use a Fraction, an int or 'a/b'"
        ) from None


def require(value: _T, cls: Union[type, tuple[type, ...]], name: str) -> _T:
    """value, if it is an instance of cls; otherwise a :class:`ModelError`
    naming the argument, so a reader given a wrong type fails at its door."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ModelError(f"{name} must be {names}, got {type(value).__name__}")
    return value


def probability(value: Union[int, Fraction]) -> Fraction:
    """Validate and return an exact probability in [0, 1]."""
    q = value if type(value) is Fraction else exact(value)
    n, d = q.as_integer_ratio()
    # A Fraction's denominator is positive, so this is 0 <= q <= 1.
    if not 0 <= n <= d:
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


def sums_to_one(ratios: Sequence[tuple[int, int]]) -> bool:
    """Whether the rationals n/d, given as (n, d) pairs with d > 0, sum to
    exactly 1, added as integers over their common denominator."""
    # Plain loops: a few pairs are the common case, where comprehensions and
    # lcm(*...) over a built list cost more than the arithmetic.
    common = 1
    for _, d in ratios:
        if common % d:
            common = lcm(common, d)
    total = 0
    for n, d in ratios:
        total += n * (common // d)
    return total == common


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
        masses = []
        ratios = []
        for name in _MASS_FIELD.values():
            q = probability(getattr(self, name))
            object.__setattr__(self, name, q)
            masses.append(q)
            ratios.append(q.as_integer_ratio())
        if not sums_to_one(ratios):
            raise ModelError(f"strata masses sum to {sum(masses, ZERO)}, expected exactly 1")

    def mass(self, stratum: tuple[int, int]) -> Fraction:
        return getattr(self, _MASS_FIELD[stratum])

    def items(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """Strata with their masses, in the fixed canonical order."""
        return tuple((s, self.mass(s)) for s in STRATA)


def strata_from_independent_marginals(p0: Fraction, p1: Fraction) -> StrataDistribution:
    """Joint law of (y0, y1) when the two arms' outcomes are independent.

    p0 and p1 are the survival probabilities under arm 0 and arm 1.
    """
    p0 = probability(p0)
    p1 = probability(p1)
    return StrataDistribution(
        mass_11=p0 * p1,
        mass_00=(ONE - p0) * (ONE - p1),
        mass_10=p0 * (ONE - p1),
        mass_01=(ONE - p0) * p1,
    )


@dataclass(frozen=True)
class OutcomeUtility:
    """Utility of each binary outcome; default U(0)=0, U(1)=1."""

    u0: Fraction = ZERO
    u1: Fraction = ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "u0", exact(self.u0))
        object.__setattr__(self, "u1", exact(self.u1))


@dataclass(frozen=True)
class AsymmetricUtilitySpec:
    """Weights of the status-quo-favoring comparison rule, applied by :meth:`of`.

    A gain of d in utility is worth gain_weight * d, a loss costs
    loss_weight * d, and an exact tie is worth tie_value.  Defaults make a
    loss twice as bad as the equivalent gain.
    """

    gain_weight: Fraction = Fraction(1, 2)
    loss_weight: Fraction = ONE
    tie_value: Fraction = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain_weight", exact(self.gain_weight))
        object.__setattr__(self, "loss_weight", exact(self.loss_weight))
        object.__setattr__(self, "tie_value", exact(self.tie_value))
        if self.gain_weight <= 0 or self.loss_weight <= 0:
            raise ModelError("gain_weight and loss_weight must be positive")

    def of(self, difference: Fraction) -> Fraction:
        """The rule itself, the one place it is written: the value of a
        utility difference u1 - u0, weighted as a gain above zero and as a
        loss below it, and tie_value at zero."""
        if difference > 0:
            return self.gain_weight * difference
        if difference < 0:
            return self.loss_weight * difference
        return self.tie_value


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


#: Where a population's variation lives: within units, across units, or both.
VARIATION_LOCI = ("within_unit", "across_unit", "mixed")

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
        if not isinstance(self.label, str):
            raise ModelError(f"unit type label {self.label!r} is not a str")
        object.__setattr__(self, "weight", probability(self.weight))
        # Three plain checks: a loop over the arms costs a parse of 10^4 unit
        # types about 2 ms more.
        if not isinstance(self.arm0, (Degenerate, Bernoulli)):
            raise ModelError(f"unit type {self.label!r}: arm0 is not a Degenerate or a Bernoulli")
        if not isinstance(self.arm1, (Degenerate, Bernoulli)):
            raise ModelError(f"unit type {self.label!r}: arm1 is not a Degenerate or a Bernoulli")
        dep = self.cross_arm_dependence
        if dep is not None and not isinstance(dep, StrataDistribution):
            raise ModelError(
                f"unit type {self.label!r}: cross_arm_dependence is not a StrataDistribution or None"
            )


@dataclass(frozen=True)
class PopulationSums:
    """Integer sums of one walk over a population's unit types.

    Every sum is a numerator over the one common denominator den.  Per unit
    type, d = p1 - p0 is the arm difference; with span = U(1) - U(0), the
    stochastic reading values the type at spec.of(span * d), which is
    spec.of(span) * d for d > 0 and -spec.of(-span) * d for d < 0.
    """

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
        """Aggregate joint (y0, y1) law: the weighted mixture over unit types
        of each type's recorded cross-arm dependence, or of the independent
        product of its arm laws where none is recorded.  The other three
        masses follow from s11 and the marginals, because each type's joint
        law has its arms' marginals and the weights sum to 1."""
        den, s11 = self.den, self.s11
        return StrataDistribution(
            Fraction(s11, den),
            Fraction(den - self.p0 - self.p1 + s11, den),
            Fraction(self.p0 - s11, den),
            Fraction(self.p1 - s11, den),
        )

    def classical(self, u: OutcomeUtility = OutcomeUtility()) -> Fraction:
        """What any symmetric rule reports: the difference of the arms' expected utilities."""
        require(u, OutcomeUtility, "u")
        return (u.u1 - u.u0) * Fraction(self.p1 - self.p0, self.den)

    def value(
        self,
        u: OutcomeUtility = OutcomeUtility(),
        spec: AsymmetricUtilitySpec = AsymmetricUtilitySpec(),
    ) -> Fraction:
        """The population reading: each unit type's arms collapsed to their
        expected utilities, compared asymmetrically, weighted."""
        require(u, OutcomeUtility, "u")
        require(spec, AsymmetricUtilitySpec, "spec")
        span = u.u1 - u.u0
        if span == 0:
            return spec.tie_value
        return (
            spec.of(span) * self.up - spec.of(-span) * self.down + spec.tie_value * self.level
        ) / self.den


@dataclass(frozen=True)
class PopulationModel:
    """Weighted mixture of unit types; the carrier both readings consume.

    Building one walks its unit types once.  The walk checks that there is
    at least one unit type, that the weights sum to exactly 1 and that each
    recorded cross-arm dependence has its arms' survival probabilities as
    marginals, and raises :class:`ModelError` with every violated invariant,
    joined by "; ", weights first.  The same walk stores the exact sums every
    reader needs as ``sums``; they are derived data, so equality, hashing and
    ``repr`` ignore them.
    """

    unit_types: tuple[UnitType, ...]
    arm0_label: str = "control"
    arm1_label: str = "treatment"
    sums: PopulationSums = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            units = tuple(self.unit_types)
        except TypeError:
            raise ModelError(f"unit_types is {self.unit_types!r}, not an iterable") from None
        object.__setattr__(self, "unit_types", units)
        require(self.arm0_label, str, "arm0_label")
        require(self.arm1_label, str, "arm1_label")
        if not units:
            raise ModelError("population has no unit types")
        violations: list[str] = []
        # Each term is a product of a type's own small numerators, put on one
        # common denominator den by one multiplication, so no step multiplies
        # two numbers of den's size.  den is the least common multiple of the
        # term denominators seen so far; a type that brings a new factor puts
        # the sums so far on the larger den.
        den = 1
        total = p0_sum = p1_sum = s11 = up = down = level = 0
        for i, t in enumerate(units):
            if not isinstance(t, UnitType):
                raise ModelError(f"unit_types[{i}] is {t!r}, not a UnitType")
            wn, wd = t.weight.as_integer_ratio()
            n0, d0 = t.arm0.survival_prob.as_integer_ratio()
            n1, d1 = t.arm1.survival_prob.as_integer_ratio()
            dep = t.cross_arm_dependence
            # Denominator of w * p0 * p1, and of w * P(1, 1) where a joint is recorded:
            term_den = wd * d0 * d1
            if dep is not None:
                jn, jd = dep.mass_11.as_integer_ratio()
                term_den = lcm(term_den, wd * jd)
            if den % term_den:
                scale = lcm(den, term_den) // den
                den *= scale
                total, p0_sum, p1_sum, s11, up, down, level = (
                    scale * x for x in (total, p0_sum, p1_sum, s11, up, down, level)
                )
            # w * (anything over d0 * d1) is put on den by the factor k.
            k = wn * (den // (wd * d0 * d1))
            share = k * d0 * d1  # w on den
            e = n1 * d0 - n0 * d1  # d = e / (d0 * d1)
            if dep is None:
                s11 += k * n0 * n1
            else:
                s11 += wn * jn * (den // (wd * jd))
                for arm, n, d, mass in (("arm0", n0, d0, dep.mass_10), ("arm1", n1, d1, dep.mass_01)):
                    mn, md = mass.as_integer_ratio()  # marginal mass_11 + mass == n / d?
                    if (jn * md + mn * jd) * d != n * jd * md:
                        violations.append(
                            f"unit type {t.label!r}: cross-arm dependence marginal {dep.mass_11 + mass} "
                            f"does not match {arm} survival probability {Fraction(n, d)}"
                        )
            total += share
            p0_sum += k * n0 * d1
            p1_sum += k * n1 * d0
            if e > 0:
                up += k * e
            elif e < 0:
                down += k * e
            else:
                level += share
        if total != den:
            violations.insert(
                0, f"unit-type weights sum to {Fraction(total, den)}, expected exactly 1"
            )
        if violations:
            raise ModelError("; ".join(violations))
        object.__setattr__(
            self, "sums", PopulationSums(den, p0_sum, p1_sum, s11, up, down, level)
        )

    @property
    def variation_locus(self) -> str | None:
        """Over the positive-weight types: within units if an arm has 0 < p < 1,
        across units if more than one (p0, p1) pair occurs, "mixed" if both,
        None if neither.  Stops once both hold; compares pairs, never hashes."""
        within = across = False
        first = None
        for t in self.unit_types:
            if t.weight:
                pair = (t.arm0.survival_prob, t.arm1.survival_prob)
                # A probability with denominator 1 is 0 or 1.
                within = within or pair[0].denominator > 1 or pair[1].denominator > 1
                first = first or pair
                across = across or pair != first
                if within and across:
                    break
        return (None, *VARIATION_LOCI)[within + 2 * across]
