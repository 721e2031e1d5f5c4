"""Seeded Monte Carlo oracle for the exact evaluators.

Independent approximation of the closed forms: it samples the generative
story directly rather than reusing the exact algebra.

Replications are cut into fixed blocks of BLOCK_SIZE.  Block i draws from
its own generator, seeded with SeedSequence(seed, spawn_key=(i,)) (the i-th
child of the master seed), and is reduced to (count, mean, M2).  The block
summaries are merged strictly in block order with the pairwise update of
Chan, Golub & LeVeque (1979).  So memory is O(BLOCK_SIZE) whatever the
replication count, and a run is bit-reproducible for a given
(seed, replications, inner_samples): `parallelism` only sets how many
worker threads draw blocks, never the result.

This is the one module where floats are at home.  numpy is imported
inside the simulator functions, not at module level, so importing donoharm
and running the exact commands never loads it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .engine import DEFAULT_ASYMMETRY, DEFAULT_UTILITY, asymmetric_relative_utility
from .model import (
    AsymmetricUtilitySpec,
    ModelError,
    OutcomeUtility,
    PopulationModel,
    StrataDistribution,
    validate_population,
)

if TYPE_CHECKING:
    import numpy as np

BLOCK_SIZE = 1 << 16  # replications per block: the unit of seeding, memory and work
INT64_MAX = 2**63 - 1  # numpy's binomial takes its trial count as int64


@dataclass(frozen=True)
class SimulationConfig:
    replications: int = 1_000_000
    seed: int = 0
    parallelism: int = 1  # worker threads; the result does not depend on it
    inner_samples: int = 1024  # per-arm draws used to collapse within-unit noise

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ModelError("replications must be >= 1")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if self.parallelism < 1:
            raise ModelError("parallelism must be >= 1")
        if self.inner_samples < 1:
            raise ModelError("inner_samples must be >= 1")
        if self.inner_samples > INT64_MAX:
            raise ModelError(f"inner_samples must be <= {INT64_MAX}")


@dataclass(frozen=True)
class SimulationEstimate:
    mean: float
    standard_error: float
    replications: int
    exact_target: Fraction | None = None


Moments = tuple[int, float, float]  # (count, mean, sum of squared deviations)


def _merge(a: Moments, b: Moments) -> Moments:
    """Chan-Golub-LeVeque pairwise update of two (count, mean, M2) summaries."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2a + m2b + delta * delta * na * nb / n


def _run_blocks(
    cfg: SimulationConfig,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    exact_target: Fraction | None,
) -> SimulationEstimate:
    """Draw every block, reduce each to its moments and merge them in block order.

    draw(rng, size) returns the block's `size` replication values.
    """
    import numpy as np

    n_blocks = -(-cfg.replications // BLOCK_SIZE)

    def block(i: int) -> Moments:
        # np.random.default_rng is looked up per call so it can be instrumented.
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        values = draw(rng, min(BLOCK_SIZE, cfg.replications - i * BLOCK_SIZE))
        mean = float(values.mean())
        return values.size, mean, float(np.square(values - mean).sum())

    workers = min(cfg.parallelism, n_blocks, os.cpu_count() or 1)
    if workers == 1:
        total = block(0)
        for i in range(1, n_blocks):
            total = _merge(total, block(i))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # At most `workers` blocks in flight; results merge in submission order.
            pending = deque(pool.submit(block, i) for i in range(workers))
            total = pending.popleft().result()
            for i in range(workers, n_blocks):
                pending.append(pool.submit(block, i))
                total = _merge(total, pending.popleft().result())
            while pending:
                total = _merge(total, pending.popleft().result())

    n, mean, m2 = total
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return SimulationEstimate(
        mean=mean, standard_error=se, replications=n, exact_target=exact_target
    )


def simulate_deterministic(
    d: StrataDistribution,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
    cfg: SimulationConfig = SimulationConfig(),
    exact_target: Fraction | None = None,
) -> SimulationEstimate:
    """Draw a joint class per replication and apply the asymmetric rule to it."""
    import numpy as np

    # Per-stratum relative utilities, in the distribution's canonical order.
    values = np.array(
        [
            float(asymmetric_relative_utility(u.of(y0), u.of(y1), spec))
            for (y0, y1), _ in d.items()
        ]
    )
    cdf = np.cumsum([float(mass) for _, mass in d.items()])
    cdf[-1] = 1.0

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return values[np.searchsorted(cdf, rng.random(size), side="right")]

    return _run_blocks(cfg, draw, exact_target)


def simulate_population(
    m: PopulationModel,
    u: OutcomeUtility = DEFAULT_UTILITY,
    spec: AsymmetricUtilitySpec = DEFAULT_ASYMMETRY,
    cfg: SimulationConfig = SimulationConfig(),
    exact_target: Fraction | None = None,
) -> SimulationEstimate:
    """Nested two-level simulation of the population evaluator.

    Outer level draws a unit type per replication; inner level draws
    inner_samples outcomes per arm to estimate the arm means, then applies
    the asymmetric rule to those means.  Applying a kinked rule to inner
    means is biased for finite inner_samples when the arms are close; the
    bias shrinks as inner_samples grows (see tests for the exact finite-K
    expectation oracle).
    """
    import numpy as np

    violations = validate_population(m)
    if violations:
        raise ModelError("invalid population: " + "; ".join(violations))
    units = m.unit_types
    wcdf = np.cumsum([float(t.weight) for t in units])
    wcdf[-1] = 1.0
    p0 = np.array([float(t.arm0.survival_prob) for t in units])
    p1 = np.array([float(t.arm1.survival_prob) for t in units])
    gain = float(spec.gain_weight)
    loss = float(spec.loss_weight)
    tie = float(spec.tie_value)
    span = float(u.u1 - u.u0)
    K = cfg.inner_samples

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        unit_idx = np.searchsorted(wcdf, rng.random(size), side="right")
        # Mean of K Bernoulli draws per arm, sampled as one binomial per
        # replication with that replication's unit-type probability.
        m0 = rng.binomial(K, p0[unit_idx]) / K
        m1 = rng.binomial(K, p1[unit_idx]) / K
        diff = span * (m1 - m0)
        return np.where(diff == 0.0, tie, np.where(diff > 0, gain * diff, loss * diff))

    return _run_blocks(cfg, draw, exact_target)
