import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Chance,
    Degenerate,
    Leaf,
    ModelError,
    OutcomeUtility,
    PenaltySpec,
    PopulationModel,
    StrataDistribution,
    UnitType,
    probability,
)
from donoharm.model import exact
from test_engine import one_unit

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100)
nonzero_rationals = rationals.filter(lambda q: q != 0)


class TestRational:
    """exact reads an 'a/b' string, an int or a Fraction as a Fraction in
    lowest terms, the sign carried by the numerator."""

    def test_gcd_normalization(self):
        q = exact("6/42")
        assert (q.numerator, q.denominator) == (1, 7)

    def test_sign_normalization(self):
        q = exact(F(-2, -4))
        assert (q.numerator, q.denominator) == (1, 2)
        assert exact("-2/4").as_integer_ratio() == (-1, 2)

    def test_zero_case(self):
        q = exact("0/5")
        assert (q.numerator, q.denominator) == (0, 1)

    def test_zero_denominator(self):
        for read in (exact, probability):
            with pytest.raises(ModelError) as excinfo:
                read("1/0")
            assert str(excinfo.value) == "zero denominator in '1/0'"

    @given(rationals, rationals)
    def test_add_subtract_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(nonzero_rationals)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1


class TestProbability:
    @pytest.mark.parametrize("value", [F(0), F(1), F(1, 6), F(41, 42)])
    def test_accepts_unit_interval(self, value):
        assert probability(value) == value

    @pytest.mark.parametrize("value", [F(-1, 6), F(43, 42), F(2)])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ModelError):
            probability(value)


class TestFloats:
    """A float is an exact rational only if it is exactly the decimal it
    prints as; every other float, inf and nan raise ModelError."""

    BUILDERS = {
        "probability": probability,
        "Leaf": Leaf,
        "Chance": lambda q: Chance(((q, Leaf(0)), (F(3, 4), Leaf(1)))),
        "OutcomeUtility": lambda q: OutcomeUtility(q, 2),
        "AsymmetricUtilitySpec": lambda q: AsymmetricUtilitySpec(1, 1, q),
        "PenaltySpec": PenaltySpec,
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("value", [0.1, 0.9, float("inf"), float("-inf"), float("nan")])
    def test_inexact_float_rejected(self, build, value):
        with pytest.raises(ModelError, match=r"^float .* is not an exact rational; use a Fraction or 'a/b'$"):
            build(value)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_exact_float_accepted(self, build):
        assert build(0.25) == build(F(1, 4))

    def test_message_names_the_float(self):
        with pytest.raises(ModelError) as excinfo:
            Chance(((0.1, Leaf(0)), (0.9, Leaf(1))))
        assert str(excinfo.value) == "float 0.1 is not an exact rational; use a Fraction or 'a/b'"


class TestNonNumericInput:
    """Whatever Fraction cannot read raises ModelError, with one message,
    from every constructor that takes a number."""

    UNREADABLE = "as an exact rational; use a Fraction, an int or 'a/b'"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Leaf("abc"), "cannot read 'abc' "),
            (lambda: probability("x"), "cannot read 'x' "),
            (lambda: Leaf(None), "cannot read None "),
            (lambda: PenaltySpec([1]), "cannot read [1] "),
            (lambda: OutcomeUtility(None, 1), "cannot read None "),
            (lambda: Chance((("z", Leaf(1)),)), "cannot read 'z' "),
        ],
        ids=["Leaf-str", "probability", "Leaf-None", "PenaltySpec", "OutcomeUtility", "Chance"],
    )
    def test_message(self, build, message):
        with pytest.raises(ModelError) as excinfo:
            build()
        assert str(excinfo.value) == message + self.UNREADABLE

    def test_object(self):
        with pytest.raises(ModelError) as excinfo:
            Bernoulli(object())
        message = re.sub(r"0x[0-9a-f]+", "0x...", str(excinfo.value))
        assert message == "cannot read <object object at 0x...> " + self.UNREADABLE


class TestStrataDistribution:
    def test_rejects_mass_sum_below_one(self):
        with pytest.raises(ModelError):
            StrataDistribution(F(1, 2), F(1, 4), F(1, 8), F(1, 16))

    def test_rejects_mass_sum_above_one(self):
        with pytest.raises(ModelError):
            StrataDistribution(F(1, 2), F(1, 2), F(1, 42), F(0))

    def test_zero_masses_allowed(self):
        d = StrataDistribution(F(1), F(0), F(0), F(0))
        assert d.mass((1, 1)) == 1
        assert d.mass((0, 1)) == 0

    def test_items_in_canonical_order(self):
        d = StrataDistribution(F(5, 7), F(1, 42), F(5, 42), F(1, 7))
        assert [s for s, _ in d.items()] == [(1, 1), (0, 0), (1, 0), (0, 1)]


class TestArmModels:
    def test_degenerate_outcome_validated(self):
        with pytest.raises(ModelError):
            Degenerate(2)

    @pytest.mark.parametrize("outcome", [True, False])
    def test_boolean_outcome_rejected(self, outcome):
        with pytest.raises(ModelError, match="binary outcome"):
            Degenerate(outcome)

    def test_bernoulli_probability_validated(self):
        with pytest.raises(ModelError):
            Bernoulli(F(7, 6))

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_degenerate_equals_boundary_bernoulli(self, outcome):
        # Metamorphic: Degenerate(o) and Bernoulli(o) agree under evaluation.
        for other in (Degenerate(0), Degenerate(1), Bernoulli(F(1, 3))):
            assert one_unit(Degenerate(outcome), other).sums.value() == (
                one_unit(Bernoulli(F(outcome)), other).sums.value()
            )
            assert one_unit(other, Degenerate(outcome)).sums.value() == (
                one_unit(other, Bernoulli(F(outcome))).sums.value()
            )


class TestUnitType:
    def test_weight_is_an_exact_probability(self):
        assert type(UnitType("a", 1, Degenerate(1), Degenerate(0)).weight) is Fraction
        with pytest.raises(ModelError, match=re.escape("probability 3/2 outside [0, 1]")):
            UnitType("a", F(3, 2), Degenerate(1), Degenerate(0))


class TestWrongTypes:
    """A constructor given the wrong kind of object refuses it with one
    ModelError that names where it is, before any reader touches it."""

    def test_arm_is_not_an_arm(self):
        with pytest.raises(ModelError) as exc:
            PopulationModel((UnitType("a", 1, "x", Degenerate(1)),))
        assert str(exc.value) == "unit type 'a': arm0 is not a Degenerate or a Bernoulli"

    def test_dependence_is_not_a_joint_law(self):
        with pytest.raises(ModelError) as exc:
            UnitType("a", 1, Degenerate(1), Degenerate(1), "dep")
        assert str(exc.value) == (
            "unit type 'a': cross_arm_dependence is not a StrataDistribution or None"
        )

    def test_unit_type_is_not_a_unit_type(self):
        with pytest.raises(ModelError) as exc:
            PopulationModel(("x",))
        assert str(exc.value) == "unit_types[0] is 'x', not a UnitType"

    def test_unit_types_not_iterable(self):
        with pytest.raises(ModelError) as exc:
            PopulationModel(5)
        assert str(exc.value) == "unit_types is 5, not an iterable"


def construction_error(*units):
    """The message of the ModelError that PopulationModel(units) raises."""
    with pytest.raises(ModelError) as exc:
        PopulationModel(units)
    return str(exc.value)


class TestValidatePopulation:
    def test_valid_single_unit(self):
        unit = UnitType("all", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7)))
        assert PopulationModel([unit]).unit_types == (unit,)

    def test_weight_sum_violation(self):
        assert construction_error(
            UnitType("a", F(20, 42), Degenerate(1), Degenerate(1)),
            UnitType("b", F(21, 42), Degenerate(0), Degenerate(0)),
        ) == "unit-type weights sum to 41/42, expected exactly 1"

    def test_marginal_mismatch_violation(self):
        dep = StrataDistribution(F(1, 4), F(1, 4), F(1, 4), F(1, 4))  # marginals 1/2, 1/2
        assert construction_error(
            UnitType("a", F(1), Bernoulli(F(1, 3)), Bernoulli(F(1, 2)), dep)
        ) == (
            "unit type 'a': cross-arm dependence marginal 1/2 "
            "does not match arm0 survival probability 1/3"
        )

    # Marginals 1/2 (arm0) and 1/3 (arm1): each arm is compared on its own,
    # and the message gives the marginal and the probability as fractions.
    SKEWED = StrataDistribution(F(1, 6), F(1, 3), F(1, 3), F(1, 6))

    @pytest.mark.parametrize(
        "arm0, arm1, message",
        [
            (
                Bernoulli(F(2, 5)),
                Bernoulli(F(1, 3)),
                "unit type 'a': cross-arm dependence marginal 1/2 "
                "does not match arm0 survival probability 2/5",
            ),
            (
                Bernoulli(F(1, 2)),
                Bernoulli(F(3, 7)),
                "unit type 'a': cross-arm dependence marginal 1/3 "
                "does not match arm1 survival probability 3/7",
            ),
            (
                Degenerate(1),
                Degenerate(0),
                "unit type 'a': cross-arm dependence marginal 1/2 "
                "does not match arm0 survival probability 1; "
                "unit type 'a': cross-arm dependence marginal 1/3 "
                "does not match arm1 survival probability 0",
            ),
        ],
        ids=["arm0", "arm1", "both"],
    )
    def test_marginal_mismatch_message_per_arm(self, arm0, arm1, message):
        assert construction_error(UnitType("a", F(1), arm0, arm1, self.SKEWED)) == message

    def test_marginals_matching_over_coprime_denominators(self):
        unit = UnitType("a", F(1), Bernoulli(F(1, 2)), Bernoulli(F(1, 3)), self.SKEWED)
        assert PopulationModel([unit]).unit_types == (unit,)

    def test_empty_population(self):
        assert construction_error() == "population has no unit types"
