import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ModelError,
    OutcomeUtility,
    PopulationModel,
    SimulationConfig,
    UnitType,
    as_population,
    builtin,
    simulate_deterministic,
    simulate_population,
    strata_from_independent_marginals,
    strata_from_joint,
)
from donoharm.simulate import BLOCK_SIZE

F = Fraction

ROULETTE = strata_from_independent_marginals(F(5, 6), F(6, 7))
ROULETTE_UNIT = PopulationModel(
    (UnitType("everyone", F(1), Bernoulli(F(5, 6)), Bernoulli(F(6, 7))),)
)


def nested_expectation(p0, p1, inner_samples, spec=AsymmetricUtilitySpec(), u=OutcomeUtility()):
    """Exact expectation of the nested estimator for one Bernoulli unit type.

    Independent oracle: convolves the two binomial inner-mean laws and applies
    the kinked comparison rule on the full grid.  Quantifies the finite-K bias
    the simulator documents.
    """
    k = np.arange(inner_samples + 1)
    pmf0 = binom.pmf(k, inner_samples, float(p0))
    pmf1 = binom.pmf(k, inner_samples, float(p1))
    span = float(u.u1 - u.u0)
    diff = span * (k[None, :] - k[:, None]) / inner_samples  # rows: arm0, cols: arm1
    gain, loss, tie = float(spec.gain_weight), float(spec.loss_weight), float(spec.tie_value)
    values = np.where(diff == 0.0, tie, np.where(diff > 0, gain * diff, loss * diff))
    return float(pmf0 @ values @ pmf1)


class TestConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ModelError):
            SimulationConfig(replications=0)
        with pytest.raises(ModelError):
            SimulationConfig(parallelism=0)
        with pytest.raises(ModelError):
            SimulationConfig(inner_samples=0)

    def test_rejects_out_of_range_seed_and_inner_samples(self):
        with pytest.raises(ModelError):
            SimulationConfig(seed=-1)
        with pytest.raises(ModelError):
            SimulationConfig(inner_samples=2**63)
        SimulationConfig(inner_samples=2**63 - 1)  # the int64 maximum is allowed


# Spans several blocks, the last one partial, so the parallel path merges.
MULTI_BLOCK_REPS = 3 * BLOCK_SIZE + 17


class TestParallelismInvariance:
    @pytest.mark.parametrize("parallelism", (2, 3))
    def test_deterministic_bitwise_identical_across_parallelism(self, parallelism):
        serial = simulate_deterministic(
            ROULETTE, cfg=SimulationConfig(replications=MULTI_BLOCK_REPS, seed=5)
        )
        parallel = simulate_deterministic(
            ROULETTE,
            cfg=SimulationConfig(replications=MULTI_BLOCK_REPS, seed=5, parallelism=parallelism),
        )
        assert (parallel.mean, parallel.standard_error) == (serial.mean, serial.standard_error)
        assert parallel.replications == serial.replications == MULTI_BLOCK_REPS

    @pytest.mark.parametrize("parallelism", (2, 3))
    def test_population_bitwise_identical_across_parallelism(self, parallelism):
        m = as_population(builtin("migraine_mixed"))
        serial = simulate_population(
            m, cfg=SimulationConfig(replications=MULTI_BLOCK_REPS, seed=5)
        )
        parallel = simulate_population(
            m,
            cfg=SimulationConfig(replications=MULTI_BLOCK_REPS, seed=5, parallelism=parallelism),
        )
        assert (parallel.mean, parallel.standard_error) == (serial.mean, serial.standard_error)
        assert parallel.replications == serial.replications == MULTI_BLOCK_REPS


class TestDeterministicSimulator:
    def test_same_seed_bitwise_identical(self):
        cfg = SimulationConfig(replications=50_000, seed=123)
        a = simulate_deterministic(ROULETTE, cfg=cfg)
        b = simulate_deterministic(ROULETTE, cfg=cfg)
        assert (a.mean, a.standard_error) == (b.mean, b.standard_error)

    def test_different_seeds_differ(self):
        a = simulate_deterministic(ROULETTE, cfg=SimulationConfig(replications=50_000, seed=1))
        b = simulate_deterministic(ROULETTE, cfg=SimulationConfig(replications=50_000, seed=2))
        assert a.mean != b.mean

    def test_degenerate_distribution_has_zero_error(self):
        d = strata_from_joint(F(1), F(0), F(0), F(0))
        est = simulate_deterministic(d, cfg=SimulationConfig(replications=1000, seed=0))
        assert est.mean == 0.0
        assert est.standard_error == 0.0

    def test_converges_to_exact_value(self):
        cfg = SimulationConfig(replications=200_000, seed=0)
        est = simulate_deterministic(ROULETTE, cfg=cfg, exact_target=F(-1, 21))
        assert abs(est.mean - float(F(-1, 21))) < 4 * est.standard_error

    def test_parallel_streams_converge_to_same_target(self):
        serial = simulate_deterministic(
            ROULETTE, cfg=SimulationConfig(replications=200_000, seed=0, parallelism=1)
        )
        parallel = simulate_deterministic(
            ROULETTE, cfg=SimulationConfig(replications=200_000, seed=0, parallelism=4)
        )
        target = float(F(-1, 21))
        assert abs(serial.mean - target) < 4 * serial.standard_error
        assert abs(parallel.mean - target) < 4 * parallel.standard_error
        assert parallel.replications == serial.replications

    def test_replications_recorded(self):
        est = simulate_deterministic(ROULETTE, cfg=SimulationConfig(replications=1001, seed=0))
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
        bad = PopulationModel((UnitType("half", F(1, 2), Degenerate(1), Degenerate(1)),))
        with pytest.raises(ModelError):
            simulate_population(bad)

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
        for parallelism in (1, 3):
            cfg = SimulationConfig(replications=100_000, seed=0, parallelism=parallelism)
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
