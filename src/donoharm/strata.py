"""Construction and bookkeeping of joint (y0, y1) distributions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ONE, StrataDistribution, probability


@dataclass(frozen=True)
class ChamberParameterization:
    """Per-arm probability that the fatal chamber comes up.

    The outcome map is fixed: an unloaded chamber means survival, a loaded
    chamber means death.  The two arms' chambers are drawn independently.
    """

    phi0_loaded_prob: Fraction
    phi1_loaded_prob: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi0_loaded_prob", probability(self.phi0_loaded_prob))
        object.__setattr__(self, "phi1_loaded_prob", probability(self.phi1_loaded_prob))


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


def marginals_of(d: StrataDistribution) -> tuple[Fraction, Fraction]:
    """Marginal survival probabilities (arm 0, arm 1) of a joint law."""
    return d.mass_11 + d.mass_10, d.mass_11 + d.mass_01


def strata_from_chambers(c: ChamberParameterization) -> StrataDistribution:
    """Joint law induced by independent chamber draws under each arm."""
    return strata_from_independent_marginals(
        ONE - c.phi0_loaded_prob, ONE - c.phi1_loaded_prob
    )
