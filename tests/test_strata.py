from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donoharm import (
    ChamberParameterization,
    ModelError,
    ScenarioFile,
    StrataDistribution,
    as_population,
    expand,
    strata_from_independent_marginals,
)

F = Fraction

probs = st.fractions(min_value=0, max_value=1)


def chamber_law(phi0, phi1):
    """The joint law a chambers scenario reads as: the cross-arm dependence
    its one pooled unit records."""
    (unit,) = as_population(ScenarioFile("c", ChamberParameterization(phi0, phi1))).unit_types
    return unit.cross_arm_dependence


def test_roulette_strata():
    d = strata_from_independent_marginals(F(5, 6), F(6, 7))
    assert d.mass((1, 1)) == F(30, 42)
    assert d.mass((0, 0)) == F(1, 42)
    assert d.mass((1, 0)) == F(5, 42)
    assert d.mass((0, 1)) == F(6, 42)


def test_degenerate_survival():
    d = strata_from_independent_marginals(F(1), F(1))
    assert d.mass((1, 1)) == 1
    assert d.mass((0, 0)) == d.mass((1, 0)) == d.mass((0, 1)) == 0


def test_symmetric_half():
    d = strata_from_independent_marginals(F(1, 2), F(1, 2))
    assert all(mass == F(1, 4) for _, mass in d.items())


def test_joint_accepts_roulette_masses():
    d = StrataDistribution(F(30, 42), F(1, 42), F(5, 42), F(6, 42))
    assert expand(d).sums.marginals() == (F(5, 6), F(6, 7))


def test_joint_zero_effect():
    d = StrataDistribution(F(1), F(0), F(0), F(0))
    assert expand(d).sums.marginals() == (F(1), F(1))


def test_joint_rejects_excess_mass():
    with pytest.raises(ModelError):
        StrataDistribution(F(1, 2), F(1, 2), F(1, 42), F(0))


def test_marginals_of_extremes():
    assert expand(StrataDistribution(F(0), F(0), F(0), F(1))).sums.marginals() == (F(0), F(1))


def test_chambers_roulette():
    d = chamber_law(F(1, 6), F(1, 7))
    assert d == strata_from_independent_marginals(F(5, 6), F(6, 7))


def test_chambers_never_loaded():
    d = chamber_law(F(0), F(0))
    assert d == strata_from_independent_marginals(F(1), F(1))
    assert d.mass((1, 1)) == 1


def test_chambers_arm0_always_fatal():
    d = chamber_law(F(1), F(0))
    assert d == strata_from_independent_marginals(F(0), F(1))
    assert d.mass((0, 1)) == 1


@given(probs, probs)
def test_marginals_round_trip(p0, p1):
    assert expand(strata_from_independent_marginals(p0, p1)).sums.marginals() == (p0, p1)


@given(probs, probs)
def test_chamber_formulation_agrees_with_marginals(a, b):
    assert chamber_law(a, b) == strata_from_independent_marginals(1 - a, 1 - b)


@given(probs, probs)
def test_masses_sum_to_one(p0, p1):
    d = strata_from_independent_marginals(p0, p1)
    assert sum(mass for _, mass in d.items()) == 1
