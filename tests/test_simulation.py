import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.stats import binom

from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ModelError,
    OutcomeUtility,
    PopulationModel,
    ScenarioFile,
    SimulationConfig,
    StrataDistribution,
    UnitType,
    as_population,
    builtin,
    evaluate_population,
    expand,
    simulate_population,
    strata_from_independent_marginals,
)
from donoharm.cli import main
from donoharm.scenario import BUILTINS
from donoharm.simulate import BLOCK_SIZE, _j_laws
from test_engine import populations, specs, utilities

F = Fraction

ROULETTE = strata_from_independent_marginals(F(5, 6), F(6, 7))
ROULETTE_UNIT = PopulationModel(
    (UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),)
)


def nested_law(p0, p1, inner_samples, spec=AsymmetricUtilitySpec(), u=OutcomeUtility()):
    """The two arms' binomial inner-count pmfs and the kinked rule's value on
    the full (k0, k1) grid, rows arm 0 and columns arm 1."""
    k = np.arange(inner_samples + 1)
    pmf0 = binom.pmf(k, inner_samples, float(p0))
    pmf1 = binom.pmf(k, inner_samples, float(p1))
    span = float(u.u1 - u.u0)
    diff = span * (k[None, :] - k[:, None]) / inner_samples
    gain, loss, tie = float(spec.gain_weight), float(spec.loss_weight), float(spec.tie_value)
    values = np.where(diff == 0.0, tie, np.where(diff > 0, gain * diff, loss * diff))
    return pmf0, pmf1, values


def nested_expectation(p0, p1, inner_samples, spec=AsymmetricUtilitySpec(), u=OutcomeUtility()):
    """Exact expectation of the nested estimator for one Bernoulli unit type.

    Independent oracle: convolves the two binomial inner-mean laws and applies
    the kinked comparison rule on the full grid.  Quantifies the finite-K bias
    the simulator documents.
    """
    pmf0, pmf1, values = nested_law(p0, p1, inner_samples, spec, u)
    return float(pmf0 @ values @ pmf1)


def nested_central_moments(p0, p1, inner_samples):
    """Exact (mean, variance, fourth central moment) of one replication's
    value for one unit type at inner size K, under the default rule."""
    pmf0, pmf1, values = nested_law(p0, p1, inner_samples)
    mean = float(pmf0 @ values @ pmf1)
    return mean, float(pmf0 @ (values - mean) ** 2 @ pmf1), float(pmf0 @ (values - mean) ** 4 @ pmf1)


class TestConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ModelError):
            SimulationConfig(replications=0)
        with pytest.raises(ModelError):
            SimulationConfig(inner_samples=0)

    def test_cli_rejects_nonpositive_parallelism(self, capsys):
        # The flag is ignored, but a value below 1 is still refused.
        assert main(["simulate", "--scenario", "russian_roulette", "--parallelism", "0"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: parallelism must be >= 1\n")

    def test_fields_are_keyword_only(self):
        # A positional third argument would silently set another field.
        with pytest.raises(TypeError):
            SimulationConfig(1000, 0, 2)

    def test_rejects_out_of_range_seed_and_inner_samples(self):
        with pytest.raises(ModelError):
            SimulationConfig(seed=-1)
        with pytest.raises(ModelError):
            SimulationConfig(inner_samples=2**63)
        SimulationConfig(inner_samples=2**63 - 1)  # the int64 maximum is allowed

    def test_rejects_replications_past_int64(self):
        # numpy's multinomial takes the run's replication count as int64.
        with pytest.raises(ModelError) as exc:
            SimulationConfig(replications=2**63)
        assert str(exc.value) == f"replications must be <= {2**63 - 1}"
        SimulationConfig(replications=2**63 - 1)


# Spans several blocks, the last one partial: a model whose replications
# are all light draws them in four chunks and merges their summaries.
MULTI_BLOCK_REPS = 3 * BLOCK_SIZE + 17


class TestDeterministicSimulator:
    def test_same_seed_bitwise_identical(self):
        cfg = SimulationConfig(replications=50_000, seed=123)
        a = simulate_population(expand(ROULETTE), cfg=cfg)
        b = simulate_population(expand(ROULETTE), cfg=cfg)
        assert (a.mean, a.standard_error) == (b.mean, b.standard_error)

    def test_different_seeds_differ(self):
        a = simulate_population(expand(ROULETTE), cfg=SimulationConfig(replications=50_000, seed=1))
        b = simulate_population(expand(ROULETTE), cfg=SimulationConfig(replications=50_000, seed=2))
        assert a.mean != b.mean

    def test_degenerate_distribution_has_zero_error(self):
        d = StrataDistribution(F(1), F(0), F(0), F(0))
        est = simulate_population(expand(d), cfg=SimulationConfig(replications=1000, seed=0))
        assert est.mean == 0.0
        assert est.standard_error == 0.0

    def test_converges_to_exact_value(self):
        cfg = SimulationConfig(replications=200_000, seed=0)
        est = simulate_population(expand(ROULETTE), cfg=cfg)
        assert est.exact_target == F(-1, 21)
        assert abs(est.mean - float(F(-1, 21))) < 4 * est.standard_error

    def test_parallel_streams_converge_to_same_target(self):
        # 200,000 replications span four blocks, all from one counts draw.
        est = simulate_population(expand(ROULETTE), cfg=SimulationConfig(replications=200_000, seed=0))
        assert abs(est.mean - float(F(-1, 21))) < 4 * est.standard_error
        assert est.replications == 200_000

    def test_replications_recorded(self):
        est = simulate_population(expand(ROULETTE), cfg=SimulationConfig(replications=1001, seed=0))
        assert est.replications == 1001


class TestPopulationSimulator:
    def test_same_seed_bitwise_identical(self):
        cfg = SimulationConfig(replications=20_000, seed=99)
        a = simulate_population(ROULETTE_UNIT, cfg=cfg)
        b = simulate_population(ROULETTE_UNIT, cfg=cfg)
        assert (a.mean, a.standard_error) == (b.mean, b.standard_error)

    def test_all_degenerate_population_converges_without_inner_noise(self):
        snakebite = PopulationModel(
            (
                UnitType("s11", F(30, 42), Degenerate(1), Degenerate(1)),
                UnitType("s00", F(1, 42), Degenerate(0), Degenerate(0)),
                UnitType("s10", F(5, 42), Degenerate(1), Degenerate(0)),
                UnitType("s01", F(6, 42), Degenerate(0), Degenerate(1)),
            )
        )
        cfg = SimulationConfig(replications=200_000, seed=0, inner_samples=4)
        est = simulate_population(snakebite, cfg=cfg)
        assert abs(est.mean - float(F(-1, 21))) < 4 * est.standard_error

    def test_identical_arms_tracks_finite_inner_expectation(self):
        # Exact ties drift negative at finite inner size (the documented
        # near-tie bias); the estimator still matches its own exact
        # expectation, and the drift vanishes as inner size grows.
        m = PopulationModel(
            (UnitType("all", F(1), Bernoulli(F(1, 3)), Bernoulli(F(1, 3))),)
        )
        est = simulate_population(m, cfg=SimulationConfig(replications=20_000, seed=0))
        target = nested_expectation(F(1, 3), F(1, 3), 1024)
        assert target < 0
        assert abs(est.mean - target) < 4 * est.standard_error
        assert abs(nested_expectation(F(1, 3), F(1, 3), 4096)) < abs(target)

    def test_identical_degenerate_arms_mean_exactly_zero(self):
        m = PopulationModel(
            (UnitType("all", F(1), Degenerate(1), Degenerate(1)),)
        )
        est = simulate_population(m, cfg=SimulationConfig(replications=2_000, seed=0))
        assert est.mean == 0.0
        assert est.standard_error == 0.0

    def test_invalid_population_rejected(self):
        # Rejected when built, so the sampler never sees it.
        with pytest.raises(ModelError) as exc:
            PopulationModel((UnitType("half", F(1, 2), Degenerate(1), Degenerate(1)),))
        assert str(exc.value) == "unit-type weights sum to 1/2, expected exactly 1"

    def test_matches_exact_finite_inner_expectation(self):
        # The oracle target here is the exact expectation of the estimator
        # itself at this inner size, not the infinite-K limit.
        cfg = SimulationConfig(replications=100_000, seed=0, inner_samples=256)
        est = simulate_population(ROULETTE_UNIT, cfg=cfg)
        target = nested_expectation(F(5, 6), F(6, 7), 256)
        assert abs(est.mean - target) < 4 * est.standard_error

    def test_inner_bias_shrinks_monotonically(self):
        limit = float(F(1, 84))
        biases = [
            abs(nested_expectation(F(5, 6), F(6, 7), k) - limit) for k in (16, 256, 4096)
        ]
        assert biases[0] > biases[1] > biases[2]

    def test_parallel_streams_converge_to_same_target(self):
        target = nested_expectation(F(5, 6), F(6, 7), 1024)
        cfg = SimulationConfig(replications=100_000, seed=0)
        est = simulate_population(ROULETTE_UNIT, cfg=cfg)
        assert abs(est.mean - target) < 4 * est.standard_error

    def test_heterogeneous_population_matches_mixture_of_exact_expectations(self):
        # Two unit types with distinct arm probabilities, one degenerate arm:
        # the per-replication binomial probabilities differ by unit type.
        m = as_population(builtin("migraine_mixed"))
        target = sum(
            float(t.weight)
            * nested_expectation(t.arm0.survival_prob, t.arm1.survival_prob, 1024)
            for t in m.unit_types
        )
        est = simulate_population(m, cfg=SimulationConfig(replications=200_000, seed=0))
        assert abs(est.mean - target) < 4 * est.standard_error

    def test_memory_bounded_in_replications(self):
        def peak(replications):
            tracemalloc.start()
            try:
                simulate_population(
                    ROULETTE_UNIT, cfg=SimulationConfig(replications=replications, seed=0)
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2_000_000) <= 1.25 * peak(200_000)


def mixture_expectation(m, inner_samples, spec=AsymmetricUtilitySpec(), u=OutcomeUtility()):
    """Exact expectation of the nested estimator on a population: Σ w·E[type]."""
    return sum(
        float(t.weight)
        * nested_expectation(t.arm0.survival_prob, t.arm1.survival_prob, inner_samples, spec, u)
        for t in m.unit_types
    )


class CountingGenerator:
    """A numpy Generator that records its binomial and multinomial calls."""

    def __init__(self, rng, calls):
        self._rng = rng
        self._calls = calls

    def binomial(self, *args, **kwargs):
        self._calls["binomial"].append(args)
        return self._rng.binomial(*args, **kwargs)

    def multinomial(self, *args, **kwargs):
        drawn = self._rng.multinomial(*args, **kwargs)
        self._calls["multinomial"].append(drawn)
        return drawn

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def rng_calls(monkeypatch):
    """What the simulators draw while the test runs: the seed of every
    generator made, the arguments of every binomial call and the result of
    every multinomial call."""
    calls = {"default_rng": [], "binomial": [], "multinomial": []}
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        calls["default_rng"].append(args)
        return CountingGenerator(default_rng(*args, **kwargs), calls)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls


@pytest.fixture
def binomial_calls(rng_calls):
    """Every binomial call the simulators make while the test runs."""
    return rng_calls["binomial"]


def assert_light_chunks(binomial_calls, light, arms):
    """The binomial calls draw `light` replications in chunks of at most
    BLOCK_SIZE, one call per random arm and chunk."""
    lengths = [np.size(p) for _, p in binomial_calls]
    assert len(lengths) == arms * -(-light // BLOCK_SIZE)
    assert max(lengths) <= BLOCK_SIZE
    assert sum(lengths) == arms * light


# (utility, asymmetry) pairs off the default: equal outcome utilities (every
# comparison is a tie), u1 < u0 (the gain and loss sides swap), a nonzero tie.
NON_DEFAULT_UTILITIES = {
    "span_zero": (OutcomeUtility(F(1), F(1)), AsymmetricUtilitySpec(tie_value=F(1, 3))),
    "span_negative": (OutcomeUtility(F(2), F(-1)), AsymmetricUtilitySpec(F(1, 3), F(2))),
    "nonzero_tie": (OutcomeUtility(), AsymmetricUtilitySpec(F(1, 2), F(1), F(-1, 5))),
}
# One type of each inner kind: both arms random, one arm random, both fixed.
MIXED_KINDS = PopulationModel(
    (
        UnitType("random", F(1, 2), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),
        UnitType("half", F(1, 4), Degenerate(0), Bernoulli(F(1, 2))),
        UnitType("harmed", F(1, 8), Degenerate(1), Degenerate(0)),
        UnitType("saved", F(1, 8), Degenerate(0), Degenerate(1)),
    )
)


@pytest.mark.parametrize("case", NON_DEFAULT_UTILITIES)
class TestNonDefaultUtilities:
    def test_deterministic_matches_exact_value(self, case):
        u, spec = NON_DEFAULT_UTILITIES[case]
        exact = evaluate_population(expand(ROULETTE), u, spec).expected_relative_utility
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=3)
        est = simulate_population(expand(ROULETTE), u, spec, cfg)
        # A zero standard error leaves only float rounding in the mean.
        assert abs(est.mean - float(exact)) <= 4 * est.standard_error + 1e-12

    def test_nested_matches_finite_inner_expectation(self, case):
        u, spec = NON_DEFAULT_UTILITIES[case]
        target = mixture_expectation(MIXED_KINDS, 64, spec, u)
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=3, inner_samples=64)
        est = simulate_population(MIXED_KINDS, u, spec, cfg)
        assert abs(est.mean - target) <= 4 * est.standard_error + 1e-12


def test_equal_utilities_are_all_ties():
    u, spec = NON_DEFAULT_UTILITIES["span_zero"]
    cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=3, inner_samples=64)
    for est in (
        simulate_population(expand(ROULETTE), u, spec, cfg),
        simulate_population(MIXED_KINDS, u, spec, cfg),
    ):
        assert est.mean == 1 / 3
        assert est.standard_error == 0.0


@pytest.mark.parametrize("tie", (F(1, 3), F(1, 7)))
@pytest.mark.parametrize("replications", (1, 25, 227, 100_000, MULTI_BLOCK_REPS))
def test_all_tie_run_is_exact_without_a_draw(replications, tie, rng_calls):
    # Equal outcome utilities make every replication a tie: the estimate is
    # the tie value itself, not a sum of ties divided by their count, which
    # rounds at 25 ties of 1/3 and 227 of 1/7.
    u, spec = OutcomeUtility(F(1), F(1)), AsymmetricUtilitySpec(tie_value=tie)
    cfg = SimulationConfig(replications=replications, seed=3, inner_samples=64)
    for m in (expand(ROULETTE), MIXED_KINDS):
        est = simulate_population(m, u, spec, cfg)
        assert (est.mean, est.standard_error) == (float(tie), 0.0)
        assert est.replications == replications
    assert rng_calls == {"default_rng": [], "binomial": [], "multinomial": []}


@settings(deadline=None)
@given(populations(), utilities, specs)
@example(MIXED_KINDS, *NON_DEFAULT_UTILITIES["span_negative"])
@example(MIXED_KINDS, *NON_DEFAULT_UTILITIES["span_zero"])
@example(MIXED_KINDS, *NON_DEFAULT_UTILITIES["nonzero_tie"])
def test_target_is_the_population_value(m, u, spec):
    est = simulate_population(m, u, spec, SimulationConfig(replications=16, inner_samples=4))
    assert est.exact_target == evaluate_population(m, u, spec).expected_relative_utility


HARMED = (Degenerate(1), Degenerate(0))  # value -1 under the default rule


class TestOuterDraw:
    @pytest.mark.parametrize("position", ("first", "middle", "last"))
    def test_zero_weight_types_never_drawn(self, position, binomial_calls):
        # Every type that can be drawn is worth exactly -1; a zero-weight
        # type drawn even once would move the mean or the standard error,
        # and the random one would make binomial calls.
        zero = [
            UnitType("saved", F(0), Degenerate(0), Degenerate(1)),
            UnitType("random", F(0), Bernoulli(F(1, 2)), Bernoulli(F(1, 3))),
        ]
        drawn = [UnitType("a", F(1, 3), *HARMED), UnitType("b", F(2, 3), *HARMED)]
        units = {
            "first": zero + drawn,
            "middle": drawn[:1] + zero + drawn[1:],
            "last": drawn + zero,
        }[position]
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=4)
        est = simulate_population(PopulationModel(tuple(units)), cfg=cfg)
        assert (est.mean, est.standard_error) == (-1.0, 0.0)
        assert binomial_calls == []

    @pytest.mark.parametrize("stratum", range(4))
    def test_zero_mass_strata_never_drawn(self, stratum):
        # The stratum of mass 1 sits first, in the middle or last among
        # zero-mass ones.  Harmed (-1), saved (1/2) and the two tie strata
        # (1/3) take three values, so a draw from a zero-mass stratum of
        # another value would move the mean or the standard error.
        masses = [F(0)] * 4
        masses[stratum] = F(1)
        d = StrataDistribution(*masses)
        u, spec = OutcomeUtility(), AsymmetricUtilitySpec(tie_value=F(1, 3))
        values = [float(v) for *_, v in evaluate_population(expand(d), u, spec).per_unit_breakdown]
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=4)
        est = simulate_population(expand(d), u, spec, cfg)
        assert est.mean == pytest.approx(values[stratum], rel=1e-12)
        assert est.standard_error == pytest.approx(0.0, abs=1e-12)

    def test_all_degenerate_population_makes_no_binomial_call(self, binomial_calls):
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=4)
        simulate_population(as_population(builtin("snakebite")), cfg=cfg)
        assert binomial_calls == []
        # At K = 1024 the single random type draws j from its law instead.
        simulate_population(ROULETTE_UNIT, cfg=cfg)
        assert binomial_calls == []
        # The counter does see calls: at K >= BLOCK_SIZE/2 the support 2K + 1
        # outgrows a full block, so every replication is light and its four
        # chunks make one call per random arm each.
        binomial = SimulationConfig(
            replications=MULTI_BLOCK_REPS, seed=4, inner_samples=BLOCK_SIZE // 2
        )
        simulate_population(ROULETTE_UNIT, cfg=binomial)
        assert len(binomial_calls) == 4 * 2
        binomial_calls.clear()
        one_arm = PopulationModel((UnitType("t", F(1), Degenerate(1), Bernoulli(F(1, 2))),))
        simulate_population(one_arm, cfg=binomial)
        assert len(binomial_calls) == 4

    @pytest.mark.parametrize("replications", (1, BLOCK_SIZE, 10 * BLOCK_SIZE + 17))
    @pytest.mark.parametrize("model", ("snakebite", "roulette_unit"))
    def test_counts_drawn_once_per_run(self, model, replications, rng_calls):
        # All fixed (snakebite) or all heavy (the roulette at K = 1024): the
        # run draws its unit-type counts, and the heavy types' counts of j,
        # once, from one generator, however many blocks it spans.
        m, multinomials = {
            "snakebite": (as_population(builtin("snakebite")), 1),
            "roulette_unit": (ROULETTE_UNIT, 2),
        }[model]
        est = simulate_population(m, cfg=SimulationConfig(replications=replications, seed=4))
        assert est.replications == replications
        assert len(rng_calls["default_rng"]) == 1
        assert len(rng_calls["multinomial"]) == multinomials
        assert rng_calls["multinomial"][-1].sum() == replications
        assert rng_calls["binomial"] == []

    def test_three_bernoulli_types_match_mixture_expectation(self):
        m = PopulationModel(
            (
                UnitType("a", F(1, 2), Bernoulli(F(1, 3)), Bernoulli(F(1, 2))),
                UnitType("b", F(1, 3), Bernoulli(F(9, 10)), Bernoulli(F(4, 5))),
                UnitType("c", F(1, 6), Bernoulli(F(1, 7)), Bernoulli(F(1, 7))),
            )
        )
        target = mixture_expectation(m, 16)
        cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=4, inner_samples=16)
        est = simulate_population(m, cfg=cfg)
        assert abs(est.mean - target) < 4 * est.standard_error


@pytest.mark.parametrize(
    "K, p0, p1",
    [(1, 1 / 2, 1 / 3), (2, 0.0, 1 / 3), (64, 5 / 6, 6 / 7), (64, 1.0, 1 / 2), (1024, 5 / 6, 6 / 7)],
)
def test_law_of_j_matches_direct_convolution(K, p0, p1):
    # Reference: scipy's pmfs convolved directly, O(K^2), no FFT.  The FFT
    # rounds each entry by a few float64 ulps of the largest one.
    k = np.arange(K + 1)
    reference = np.convolve(binom.pmf(k, K, p1), binom.pmf(k, K, p0)[::-1])
    law = _j_laws(K, np.array([p0]), np.array([p1]))[0]
    assert law.shape == (2 * K + 1,)
    assert np.abs(law - reference).max() < 1e-13
    assert law.min() >= 0.0


# Inner draws at K = 64: a type expected at least 2K + 1 = 129 times in a
# full block (weight >= 129/BLOCK_SIZE, about 1/508) draws j from its law,
# a lighter one draws binomials.
LAW_K = 64
LIGHT_COPIES = 1024  # equal copies of one type, each expected 64 times a block
# Heavy types of every inner kind next to 125 light ones, so both paths draw
# in one run.
MIXED_PATHS = PopulationModel(
    (
        UnitType("random", F(1, 2), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),
        UnitType("one_arm", F(1, 4), Degenerate(0), Bernoulli(F(1, 2))),
        UnitType("harmed", F(1, 8), Degenerate(1), Degenerate(0)),
    )
    + tuple(
        UnitType(f"light{i}", F(1, 1000), Bernoulli(F(1, 3)), Bernoulli(F(1, 2)))
        if i % 2
        else UnitType(f"light{i}", F(1, 1000), Bernoulli(F(9, 10)), Degenerate(1))
        for i in range(125)
    )
)


@pytest.mark.parametrize(
    "arms",
    [(Bernoulli(F(5, 6)), Bernoulli(F(6, 7))), (Degenerate(1), Bernoulli(F(1, 2)))],
    ids=["both_random", "one_degenerate"],
)
@pytest.mark.parametrize("path", ("law", "binomial"))
def test_inner_draw_matches_exact_mean_and_variance(arms, path, binomial_calls):
    # One type of weight 1 takes the law path; the same type split into
    # LIGHT_COPIES equal types takes the binomial path.  Both are one law of
    # j, so both must match its exact mean and variance: a law with the
    # right mean and the wrong spread fails the second check.
    copies = 1 if path == "law" else LIGHT_COPIES
    m = PopulationModel(
        tuple(UnitType(f"t{i}", F(1, copies), *arms) for i in range(copies))
    )
    cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=8, inner_samples=LAW_K)
    est = simulate_population(m, cfg=cfg)
    if path == "law":
        assert binomial_calls == []
    else:  # every replication is light: four chunks, the last one partial
        random_arms = sum(isinstance(arm, Bernoulli) for arm in arms)
        assert_light_chunks(binomial_calls, MULTI_BLOCK_REPS, random_arms)
    mean, variance, fourth = nested_central_moments(
        arms[0].survival_prob, arms[1].survival_prob, LAW_K
    )
    n = est.replications
    assert abs(est.mean - mean) < 4 * est.standard_error
    # The sample variance's own standard error is sqrt((mu4 - sigma^4) / n).
    sample_variance = est.standard_error**2 * n
    assert abs(sample_variance - variance) < 4 * math.sqrt((fourth - variance**2) / n)


def test_both_inner_paths_in_one_block_match_mixture_expectation(rng_calls):
    cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=9, inner_samples=LAW_K)
    est = simulate_population(MIXED_PATHS, cfg=cfg)
    # Only the light types, the last 125, make binomial calls, both arms
    # random, one call each per chunk of their replications.
    light = int(rng_calls["multinomial"][0][3:].sum())
    assert_light_chunks(rng_calls["binomial"], light, 2)
    assert abs(est.mean - mixture_expectation(MIXED_PATHS, LAW_K)) < 4 * est.standard_error


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_oracle_at_a_billion_replications(seed):
    # The heavy law path draws its counts once whatever the replication
    # count, so the exact moments can be checked at 10^9 replications.
    n = 10**9
    est = simulate_population(ROULETTE_UNIT, cfg=SimulationConfig(replications=n, seed=seed))
    mean, variance, fourth = nested_central_moments(F(5, 6), F(6, 7), 1024)
    assert est.replications == n
    assert abs(est.mean - mean) < 4 * est.standard_error
    sample_variance = est.standard_error**2 * n
    assert abs(sample_variance - variance) < 4 * math.sqrt((fourth - variance**2) / n)


@pytest.mark.parametrize("model", ("roulette_unit", "mixed_paths"))
def test_law_path_bitwise_identical_across_runs(model):
    m, K = {"roulette_unit": (ROULETTE_UNIT, 1024), "mixed_paths": (MIXED_PATHS, LAW_K)}[model]
    cfg = SimulationConfig(replications=MULTI_BLOCK_REPS, seed=5, inner_samples=K)
    first, second = simulate_population(m, cfg=cfg), simulate_population(m, cfg=cfg)
    assert (first.mean, first.standard_error) == (second.mean, second.standard_error)
    assert first.replications == second.replications == MULTI_BLOCK_REPS


@pytest.mark.parametrize("parallelism", (2, 3))
@pytest.mark.parametrize("model", ("roulette_unit", "mixed_paths"))
def test_law_path_bitwise_identical_across_parallelism(model, parallelism, monkeypatch, capsys):
    # The CLI accepts --parallelism and ignores it: a multi-block run of the
    # law path prints the same report, floats and all, whatever its value.
    m, K = {"roulette_unit": (ROULETTE_UNIT, 1024), "mixed_paths": (MIXED_PATHS, LAW_K)}[model]
    monkeypatch.setitem(BUILTINS, model, lambda: ScenarioFile(name=model, payload=m))

    def run(p):
        argv = ["simulate", "--scenario", model, "--replications", str(MULTI_BLOCK_REPS),
                "--seed", "5", "--inner-samples", str(K), "--parallelism", str(p),
                "--format", "structured"]
        assert main(argv) == 0
        return capsys.readouterr()

    serial = run(1)
    assert serial.err == "" and f'"replications": {MULTI_BLOCK_REPS}' in serial.out
    assert run(parallelism) == serial
