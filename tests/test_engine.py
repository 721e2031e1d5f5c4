import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ModelError,
    OutcomeUtility,
    ParadoxReport,
    PopulationModel,
    StrataDistribution,
    UnitType,
    as_population,
    builtin_scenarios,
    expand,
    paradox_report,
    parse_scenario,
    pool,
    strata_from_independent_marginals,
)
from donoharm.engine import READINGS

F = Fraction

SYMMETRIC = AsymmetricUtilitySpec(gain_weight=F(1), loss_weight=F(1))
ROULETTE = strata_from_independent_marginals(F(5, 6), F(6, 7))


def one_unit(arm0, arm1):
    """The population of one unit type with these arms: its value is the
    value of one unit, each arm collapsed to its expected utility."""
    return PopulationModel((UnitType("u", 1, arm0, arm1),))


def compare(a, b, spec):
    """The asymmetric rule written out test-side: b against a."""
    if b > a:
        return spec.gain_weight * (b - a)
    if a > b:
        return -spec.loss_weight * (a - b)
    return spec.tie_value


def brute_force_deterministic(d, spec=AsymmetricUtilitySpec(), u=OutcomeUtility()):
    """Independent oracle: direct four-term summation over the comparison table."""
    total = F(0)
    for (y0, y1), mass in d.items():
        total += mass * compare(u.u1 if y0 else u.u0, u.u1 if y1 else u.u0, spec)
    return total


class TestAsymmetricRule:
    def test_gain(self):
        assert AsymmetricUtilitySpec().of(F(1) - F(0)) == F(1, 2)

    def test_loss(self):
        assert AsymmetricUtilitySpec().of(F(0) - F(1)) == F(-1)

    @pytest.mark.parametrize("u", [F(0), F(1), F(-3, 7)])
    def test_tie(self, u):
        assert AsymmetricUtilitySpec().of(u - u) == 0

    def test_custom_weights(self):
        spec = AsymmetricUtilitySpec(gain_weight=F(2), loss_weight=F(3), tie_value=F(1, 5))
        assert spec.of(F(1, 2) - F(0)) == F(1)
        assert spec.of(F(0) - F(1, 2)) == F(-3, 2)
        assert spec.of(F(7) - F(7)) == F(1, 5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(F, st.integers(1, 9), st.integers(1, 9)),
        st.builds(F, st.integers(1, 9), st.integers(1, 9)),
        st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(F, st.integers(-50, 50), st.integers(1, 50)),
    )
    @example(F(1, 2), F(1), F(0), F(0))
    @example(F(1, 2), F(1), F(-1, 5), F(1, 1000))
    @example(F(1, 2), F(1), F(-1, 5), F(-1, 1000))
    def test_of_is_the_piecewise_definition(self, gain, loss, tie, x):
        spec = AsymmetricUtilitySpec(gain, loss, tie)
        expected = gain * x if x > 0 else loss * x if x < 0 else tie
        assert spec.of(x) == expected


class TestClassicalExpectedUtility:
    """A one-unit population collapses each arm to its expected utility;
    against a certain death (utility u0 = 0) under symmetric weights, the
    value is that expected utility."""

    def test_bernoulli_default_utility(self):
        assert one_unit(Degenerate(0), Bernoulli(F(6, 7))).sums.value(spec=SYMMETRIC) == F(6, 7)

    def test_degenerate_death(self):
        assert one_unit(Bernoulli(F(1, 3)), Degenerate(0)).sums.value(spec=SYMMETRIC) == F(-1, 3)

    def test_linearity_in_utility(self):
        u = OutcomeUtility(u0=F(0), u1=F(2))
        assert one_unit(Degenerate(0), Bernoulli(F(1, 2))).sums.value(u, SYMMETRIC) == 1


class TestDeterministicEvaluator:
    def test_roulette_paradox_value(self):
        assert expand(ROULETTE).sums.value() == F(-1, 21)

    def test_zero_effect_strata(self):
        d = StrataDistribution(F(1, 3), F(2, 3), F(0), F(0))
        assert expand(d).sums.value() == 0

    def test_derived_quarter_masses(self):
        # Frozen from the brute-force oracle: 1/2*1/4 - 1*1/4 = -1/8.
        d = StrataDistribution(F(1, 2), F(0), F(1, 4), F(1, 4))
        value = expand(d).sums.value()
        assert value == F(-1, 8)
        assert value == brute_force_deterministic(d)

    def test_classical_effect_is_marginal_difference(self):
        assert expand(ROULETTE).sums.classical() == F(6, 7) - F(5, 6)

    def test_agrees_with_brute_force_on_random_strata(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = [F(rng.randint(0, 8)) for _ in range(4)]
            total = sum(raw)
            if total == 0:
                continue
            d = StrataDistribution(*(q / total for q in raw))
            assert expand(d).sums.value() == brute_force_deterministic(d)

    def test_closed_form_for_independent_marginals(self):
        rng = random.Random(11)
        spec = AsymmetricUtilitySpec()
        for _ in range(200):
            p0 = F(rng.randint(0, 12), 12)
            p1 = F(rng.randint(0, 12), 12)
            d = strata_from_independent_marginals(p0, p1)
            closed = spec.gain_weight * (1 - p0) * p1 - spec.loss_weight * p0 * (1 - p1)
            assert expand(d).sums.value(spec=spec) == closed

    def test_monotone_in_saved_versus_harmed_mass(self):
        # Moving mass from (1,0) to (0,1) strictly increases the value.
        base = StrataDistribution(F(1, 2), F(0), F(1, 4), F(1, 4))
        shifted = StrataDistribution(F(1, 2), F(0), F(1, 8), F(3, 8))
        assert expand(shifted).sums.value() > expand(base).sums.value()


class TestStochasticEvaluator:
    def test_roulette_resolution_value(self):
        value = one_unit(Bernoulli(F(5, 6)), Bernoulli(F(6, 7))).sums.value()
        assert value == F(1, 84)
        assert value > 0

    def test_degenerate_pair_reduces_to_comparison_table(self):
        assert one_unit(Degenerate(1), Degenerate(0)).sums.value() == F(-1)
        assert one_unit(Degenerate(0), Degenerate(1)).sums.value() == F(1, 2)
        assert one_unit(Degenerate(1), Degenerate(1)).sums.value() == 0
        assert one_unit(Degenerate(0), Degenerate(0)).sums.value() == 0

    def test_identical_arms_tie(self):
        assert one_unit(Bernoulli(F(2, 5)), Bernoulli(F(2, 5))).sums.value() == 0

    def test_single_unit_sign_agrees_with_dominance(self):
        rng = random.Random(3)
        for _ in range(500):
            p0 = F(rng.randint(0, 30), 30)
            p1 = F(rng.randint(0, 30), 30)
            spec = AsymmetricUtilitySpec(
                gain_weight=F(rng.randint(1, 9), rng.randint(1, 9)),
                loss_weight=F(rng.randint(1, 9), rng.randint(1, 9)),
            )
            value = one_unit(Bernoulli(p0), Bernoulli(p1)).sums.value(spec=spec)
            classical = p1 - p0
            assert (value > 0) == (classical > 0)
            assert (value < 0) == (classical < 0)
            assert (value == 0) == (classical == 0)


ROULETTE_UNIT = PopulationModel(
    (UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),)
)
SNAKEBITE = PopulationModel(
    (
        UnitType("s11", F(30, 42), Degenerate(1), Degenerate(1)),
        UnitType("s00", F(1, 42), Degenerate(0), Degenerate(0)),
        UnitType("s10", F(5, 42), Degenerate(1), Degenerate(0)),
        UnitType("s01", F(6, 42), Degenerate(0), Degenerate(1)),
    )
)
MIGRAINE = PopulationModel(
    (
        UnitType("migraine", F(3, 10), Degenerate(0), Bernoulli(F(1, 2))),
        UnitType("non_migraine", F(7, 10), Bernoulli(F(4, 5)), Bernoulli(F(7, 10))),
    )
)


class TestPopulationEvaluator:
    def test_pure_within_unit_variation(self):
        assert ROULETTE_UNIT.sums.value() == F(1, 84)

    def test_pure_across_unit_variation(self):
        assert SNAKEBITE.sums.value() == F(-1, 21)

    def test_mixed_migraine_model(self):
        # Frozen from the hand summation over two unit types:
        # 3/10 * (1/2 * 1/2) + 7/10 * (-1 * 1/10) = 3/40 - 7/100 = 1/200.
        assert MIGRAINE.sums.value() == F(1, 200)

    def test_invalid_model_raises_with_violations(self):
        # An invalid population cannot be built, so no evaluator sees one.
        with pytest.raises(ModelError) as exc:
            PopulationModel((UnitType("half", F(1, 2), Degenerate(1), Degenerate(1)),))
        assert str(exc.value) == "unit-type weights sum to 1/2, expected exactly 1"

    def test_population_marginals(self):
        assert SNAKEBITE.sums.marginals() == (F(5, 6), F(6, 7))

    def test_deterministic_view_uses_dependence_or_independence(self):
        view = SNAKEBITE.sums.view()
        assert view == StrataDistribution(F(30, 42), F(1, 42), F(5, 42), F(6, 42))
        # Bernoulli arms without recorded dependence: independent product.
        assert ROULETTE_UNIT.sums.view() == ROULETTE


class TestSymmetricCollapse:
    def test_symmetric_rule_is_plain_difference(self):
        rng = random.Random(5)
        for _ in range(300):
            a = F(rng.randint(-20, 20), rng.randint(1, 20))
            b = F(rng.randint(-20, 20), rng.randint(1, 20))
            assert SYMMETRIC.of(b - a) == b - a

    def test_all_evaluators_coincide_with_classical(self):
        rng = random.Random(9)
        for _ in range(300):
            p0 = F(rng.randint(0, 24), 24)
            p1 = F(rng.randint(0, 24), 24)
            d = strata_from_independent_marginals(p0, p1)
            det = expand(d).sums
            assert det.value(spec=SYMMETRIC) == det.classical()
            stoch = one_unit(Bernoulli(p0), Bernoulli(p1)).sums.value(spec=SYMMETRIC)
            assert stoch == det.classical()


class TestParadoxReport:
    def test_roulette_contradiction(self):
        report = paradox_report(ROULETTE_UNIT)
        assert report.dominance_direction == "arm1_dominates"
        assert report.recommendation == "stay"
        assert report.contradiction is True
        assert report.stochastic_recommendation == "switch"
        assert report.stochastic_contradiction is False
        assert "-1/21" in report.narrative and "1/84" in report.narrative

    def test_identical_arms_indifferent(self):
        # Identical arms driven by the same draw: all mass on the diagonal.
        same_draw = StrataDistribution(F(1, 3), F(2, 3), F(0), F(0))
        m = PopulationModel(
            (UnitType("all", F(1), Bernoulli(F(1, 3)), Bernoulli(F(1, 3)), same_draw),)
        )
        report = paradox_report(m)
        assert report.dominance_direction == "tie"
        assert report.recommendation == "indifferent"
        assert report.contradiction is False

    def test_tied_marginals_with_independent_churn(self):
        # Same marginals but independent draws: the deterministic reading
        # dislikes the churn, yet a tie cannot be contradicted.
        churn = strata_from_independent_marginals(F(1, 3), F(1, 3))
        m = PopulationModel(
            (UnitType("all", F(1), Bernoulli(F(1, 3)), Bernoulli(F(1, 3)), churn),)
        )
        report = paradox_report(m)
        assert report.dominance_direction == "tie"
        assert report.recommendation == "stay"
        assert report.contradiction is False

    def test_dominance_is_read_in_utility_terms(self):
        # Survival is the worse outcome here, so the arm with the higher
        # survival is dominated, and both readings agree with that.
        u = OutcomeUtility(u0=F(2), u1=F(-1))
        spec = AsymmetricUtilitySpec(F(1, 3), F(2), F(-1, 5))
        report = paradox_report(ROULETTE_UNIT, u, spec)
        assert report.dominance_direction == "arm0_dominates"
        assert (report.deterministic_value, report.stochastic_value) == (F(-31, 35), F(-1, 7))
        assert (report.recommendation, report.stochastic_recommendation) == ("stay", "stay")
        assert (report.contradiction, report.stochastic_contradiction) == (False, False)

    def test_equal_utilities_tie_whatever_the_tie_value(self):
        u = OutcomeUtility(u0=F(1), u1=F(1))
        report = paradox_report(ROULETTE_UNIT, u, AsymmetricUtilitySpec(tie_value=F(-1, 3)))
        assert report.dominance_direction == "tie"
        assert (report.recommendation, report.stochastic_recommendation) == ("stay", "stay")
        assert (report.contradiction, report.stochastic_contradiction) == (False, False)

    def test_all_saved_no_contradiction(self):
        all_saved = StrataDistribution(F(0), F(0), F(0), F(1))
        m = PopulationModel(
            (UnitType("all", F(1), Degenerate(0), Degenerate(1), all_saved),)
        )
        report = paradox_report(m)
        assert report.dominance_direction == "arm1_dominates"
        assert report.recommendation == "switch"
        assert report.contradiction is False


# ---------------------------------------------------------------------------
# Reference oracle for the integer pass: the population evaluators written
# one Fraction operation at a time, as they stood before the pass.


def reference_evaluate_population(m, u=OutcomeUtility(), spec=AsymmetricUtilitySpec()):
    """The population value and the classical effect."""
    total = F(0)
    classical = F(0)
    for t in m.unit_types:
        p0, p1 = t.arm0.survival_prob, t.arm1.survival_prob
        mean0, mean1 = u.u1 * p0 + u.u0 * (1 - p0), u.u1 * p1 + u.u0 * (1 - p1)
        total += t.weight * compare(mean0, mean1, spec)
        classical += t.weight * (mean1 - mean0)
    return total, classical


def reference_population_marginals(m):
    p0 = sum((t.weight * t.arm0.survival_prob for t in m.unit_types), F(0))
    p1 = sum((t.weight * t.arm1.survival_prob for t in m.unit_types), F(0))
    return p0, p1


def reference_deterministic_view(m):
    m11 = m00 = m10 = m01 = F(0)
    for t in m.unit_types:
        joint = t.cross_arm_dependence
        if joint is None:
            joint = strata_from_independent_marginals(
                t.arm0.survival_prob, t.arm1.survival_prob
            )
        m11 += t.weight * joint.mass_11
        m00 += t.weight * joint.mass_00
        m10 += t.weight * joint.mass_10
        m01 += t.weight * joint.mass_01
    return StrataDistribution(m11, m00, m10, m01)


def _reference_recommendation(value):
    return "switch" if value > 0 else "stay" if value < 0 else "indifferent"


def reference_paradox_report(m, u=OutcomeUtility(), spec=AsymmetricUtilitySpec()):
    p0, p1 = reference_population_marginals(m)
    view = reference_deterministic_view(m)
    assert (view.mass_11 + view.mass_10, view.mass_11 + view.mass_01) == (p0, p1)
    # Dominance in utility terms: survival is the better outcome only if u1 > u0.
    better = (u.u1 - u.u0) * (p1 - p0)
    dominance = "arm1_dominates" if better > 0 else "arm0_dominates" if better < 0 else "tie"
    det = brute_force_deterministic(view, spec, u)
    stoch = reference_evaluate_population(m, u, spec)[0]
    rec = _reference_recommendation(det)
    stoch_rec = _reference_recommendation(stoch)

    def contradicts(r):
        return (dominance, r) in (("arm1_dominates", "stay"), ("arm0_dominates", "switch"))

    narrative = (
        f"marginal survival {p0} vs {p1} ({dominance}); "
        f"deterministic reading values the switch at {det} ({rec}); "
        f"stochastic reading values it at {stoch} ({stoch_rec})."
    )
    if contradicts(rec):
        narrative += " The deterministic recommendation opposes dominance."
    return ParadoxReport(
        dominance_direction=dominance,
        recommendation=rec,
        contradiction=contradicts(rec),
        deterministic_value=det,
        stochastic_value=stoch,
        stochastic_recommendation=stoch_rec,
        stochastic_contradiction=contradicts(stoch_rec),
        narrative=narrative,
    )


probabilities = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2)]),
    st.builds(lambda k, n: F(k % (n + 1), n), st.integers(0, 60), st.integers(1, 60)),
)
rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
positive = st.builds(F, st.integers(1, 9), st.integers(1, 9))
arms = st.one_of(
    st.builds(Degenerate, st.sampled_from([0, 1])), st.builds(Bernoulli, probabilities)
)


@st.composite
def unit_types(draw, label):
    arm0, arm1 = draw(arms), draw(arms)
    dep = None
    if draw(st.booleans()):
        # A joint law with the arms' marginals: s11 anywhere in its Frechet bounds.
        p0, p1 = arm0.survival_prob, arm1.survival_prob
        lo, hi = max(F(0), p0 + p1 - 1), min(p0, p1)
        s11 = lo + (hi - lo) * draw(probabilities)
        dep = StrataDistribution(s11, 1 - p0 - p1 + s11, p0 - s11, p1 - s11)
    return label, arm0, arm1, dep


@st.composite
def populations(draw):
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
    total = sum(raw)
    return PopulationModel(
        tuple(
            UnitType(label, F(r, total), arm0, arm1, dep)
            for r, (label, arm0, arm1, dep) in zip(
                raw, [draw(unit_types(f"t{i}")) for i in range(n)]
            )
        )
    )


utilities = st.one_of(
    st.just(OutcomeUtility()),
    st.builds(OutcomeUtility, rationals, rationals),  # u1 < u0 about half the time
    st.builds(lambda q: OutcomeUtility(q, q), rationals),  # u1 == u0: every type ties
)
specs = st.one_of(
    st.just(AsymmetricUtilitySpec()),
    st.builds(AsymmetricUtilitySpec, positive, positive, rationals),
)


class TestIntegerPassMatchesReference:
    # The examples pin equal utilities under a nonzero tie value, equal arms
    # and survival as the worse outcome.
    @settings(max_examples=300, deadline=None)
    @given(arms, arms, utilities, specs)
    @example(
        Degenerate(1), Bernoulli(F(1, 2)), OutcomeUtility(F(1), F(1)),
        AsymmetricUtilitySpec(tie_value=F(-1, 5)),
    )
    @example(
        Bernoulli(F(2, 5)), Bernoulli(F(2, 5)), OutcomeUtility(),
        AsymmetricUtilitySpec(tie_value=F(1, 7)),
    )
    @example(
        Bernoulli(F(5, 6)), Bernoulli(F(6, 7)), OutcomeUtility(F(2), F(-1)),
        AsymmetricUtilitySpec(F(1, 3), F(2), F(-1, 5)),
    )
    def test_one_unit_is_the_rule_on_expected_utilities(self, arm0, arm1, u, spec):
        p0, p1 = arm0.survival_prob, arm1.survival_prob
        assert one_unit(arm0, arm1).sums.value(u, spec) == spec.of((u.u1 - u.u0) * (p1 - p0))

    @settings(max_examples=300, deadline=None)
    @given(populations(), utilities, specs)
    def test_valid_populations(self, m, u, spec):
        value, classical = reference_evaluate_population(m, u, spec)
        assert m.sums.value(u, spec) == value
        assert m.sums.classical(u) == classical
        view = reference_deterministic_view(m)
        assert m.sums.view() == view
        assert m.sums.marginals() == reference_population_marginals(m)
        report = paradox_report(m, u, spec)
        assert report == reference_paradox_report(m, u, spec)
        deterministic = READINGS["deterministic"](m)
        assert report.deterministic_value == deterministic.sums.value(u, spec)

    @settings(max_examples=150, deadline=None)
    @given(populations(), st.integers(0, 2), probabilities, probabilities)
    def test_invalid_populations_fail_alike(self, m, fault, q0, q1):
        """A population with a fault is rejected when built, with one message
        per violation: the weight sum first, then each dependence marginal
        that differs from its arm's survival probability, in type order."""
        units = list(m.unit_types)
        if fault in (0, 2):  # weights no longer sum to 1
            units[0] = UnitType("scaled", units[0].weight / 2, units[0].arm0, units[0].arm1)
        if fault in (1, 2):  # a dependence joint with other marginals than its arms
            t = units[-1]
            dep = strata_from_independent_marginals(q0, q1)
            units[-1] = UnitType(t.label, t.weight, t.arm0, t.arm1, dep)
        expected = []
        total = sum((t.weight for t in units), F(0))
        if total != 1:
            expected.append(f"unit-type weights sum to {total}, expected exactly 1")
        for t in units:
            dep = t.cross_arm_dependence
            if dep is None:
                continue
            for arm, marginal, p in (
                ("arm0", dep.mass_11 + dep.mass_10, t.arm0.survival_prob),
                ("arm1", dep.mass_11 + dep.mass_01, t.arm1.survival_prob),
            ):
                if marginal != p:
                    expected.append(
                        f"unit type {t.label!r}: cross-arm dependence marginal {marginal} "
                        f"does not match {arm} survival probability {p}"
                    )
        if not expected:  # the fault happened to keep the population valid
            assert PopulationModel(tuple(units)).unit_types == tuple(units)
            return
        with pytest.raises(ModelError) as exc:
            PopulationModel(tuple(units))
        assert str(exc.value) == "; ".join(expected)


joints = st.lists(st.integers(0, 12), min_size=4, max_size=4).filter(any).map(
    lambda raw: StrataDistribution(*(F(r, sum(raw)) for r in raw))
)


class TestTransforms:
    """expand and pool are the two readings; m.sums.value does the rest."""

    @settings(max_examples=200, deadline=None)
    @given(joints, utilities, specs)
    def test_expand_is_the_deterministic_reading(self, d, u, spec):
        m = expand(d)
        assert m.sums.value(u, spec) == brute_force_deterministic(d, spec, u)
        assert [(t.label, t.weight) for t in m.unit_types] == [
            (f"({y0},{y1})", mass) for (y0, y1), mass in d.items()
        ]
        assert m.sums.view() == d

    def test_expand_keeps_zero_mass_strata(self):
        m = expand(StrataDistribution(F(1), F(0), F(0), F(0)))
        assert [(t.label, t.weight) for t in m.unit_types] == [
            ("(1,1)", 1), ("(0,0)", 0), ("(1,0)", 0), ("(0,1)", 0)
        ]
        assert all(isinstance(t.arm0, Degenerate) for t in m.unit_types)

    @settings(max_examples=200, deadline=None)
    @given(populations())
    def test_pool_keeps_marginals_and_view(self, m):
        m = replace(m, arm0_label="old", arm1_label="new")
        pooled = pool(m)
        assert reference_population_marginals(pooled) == reference_population_marginals(m)
        assert reference_deterministic_view(pooled) == reference_deterministic_view(m)
        (unit,) = pooled.unit_types
        assert (unit.label, unit.weight) == ("everyone", 1)
        assert (pooled.arm0_label, pooled.arm1_label) == ("old", "new")
        assert pool(pooled) == pooled

    @settings(max_examples=200, deadline=None)
    @given(populations(), utilities, specs)
    def test_pool_is_the_stochastic_reading(self, m, u, spec):
        p0, p1 = reference_population_marginals(m)
        mean0 = u.u1 * p0 + u.u0 * (1 - p0)
        mean1 = u.u1 * p1 + u.u0 * (1 - p1)
        assert pool(m).sums.value(u, spec) == compare(mean0, mean1, spec)

    @settings(max_examples=100, deadline=None)
    @given(populations())
    def test_readings_table(self, m):
        # In report order: the expanded aggregate joint law, the pooled unit,
        # the model itself.
        assert list(READINGS) == ["deterministic", "stochastic", "population"]
        assert READINGS["deterministic"](m) == expand(m.sums.view())
        assert READINGS["stochastic"](m) == pool(m)
        assert READINGS["population"](m) is m

    def test_joint_law_scenarios_are_pooled_expansions(self):
        strata = {"s11": "1/2", "s00": "1/4", "s10": "0", "s01": "1/4"}
        joint_law = [sc for sc in builtin_scenarios() if sc.kind in ("strata", "chambers")]
        assert joint_law
        joint_law.append(parse_scenario({"name": "s", "kind": "strata", "payload": strata}))
        for sc in joint_law:
            if sc.kind == "strata":
                d = sc.payload
            else:
                phi0, phi1 = sc.payload.phi0_loaded_prob, sc.payload.phi1_loaded_prob
                d = strata_from_independent_marginals(1 - phi0, 1 - phi1)
            assert as_population(sc) == pool(expand(d))
        everyone = UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7)), ROULETTE)
        assert pool(expand(ROULETTE)) == PopulationModel((everyone,))


def reference_variation_locus(m):
    """The definition, over the positive-weight unit types: within units if
    some arm has 0 < p < 1, across units if the (p0, p1) pairs differ."""
    pairs = {(t.arm0.survival_prob, t.arm1.survival_prob) for t in m.unit_types if t.weight > 0}
    within = any(0 < p < 1 for pair in pairs for p in pair)
    across = len(pairs) > 1
    return {
        (True, False): "within_unit", (False, True): "across_unit", (True, True): "mixed",
    }.get((within, across))


class TestVariationLocus:
    # populations() draws zero-weight types, Bernoulli(0) and Bernoulli(1)
    # arms next to Degenerate ones, and repeated pairs; the examples pin a
    # zero-weight type that alone would change the answer, and arms that
    # differ in kind but not in probability.
    @settings(max_examples=300, deadline=None)
    @given(populations())
    @example(
        PopulationModel((
            UnitType("fixed", F(1), Degenerate(1), Degenerate(0)),
            UnitType("absent", F(0), Bernoulli(F(1, 2)), Degenerate(1)),
        ))
    )
    @example(
        PopulationModel((
            UnitType("a", F(1, 2), Bernoulli(F(1)), Degenerate(0)),
            UnitType("b", F(1, 2), Degenerate(1), Bernoulli(F(0))),
        ))
    )
    def test_matches_the_definition(self, m):
        assert m.variation_locus == reference_variation_locus(m)

    @settings(max_examples=200, deadline=None)
    @given(joints)
    def test_expand_is_across_units(self, d):
        assert expand(d).variation_locus in ("across_unit", None)

    @settings(max_examples=200, deadline=None)
    @given(populations())
    def test_pool_is_within_one_unit(self, m):
        assert pool(m).variation_locus in ("within_unit", None)
