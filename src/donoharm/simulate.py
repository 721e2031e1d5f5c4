"""Seeded Monte Carlo oracle for the exact evaluator.

Independent approximation of the closed forms: it samples the generative
story's draws, or their exact counts, rather than reusing the exact
algebra.  It shares only the rule itself,
:meth:`~donoharm.model.AsymmetricUtilitySpec.of`, whose values it turns
into floats once per run.  There is one sampler,
:func:`simulate_population`, a nested draw over a population model: the
outer level draws a unit type, the inner level draws each arm's outcomes.
The two readings are the same sampler on the transformed model: the
deterministic reading on ``expand(d)``, whose unit types are the joint
strata with fixed outcomes, so it draws no inner randomness at all, and
the stochastic reading on ``pool(m)``, one unit drawn every time.  A
population model is valid by construction, so the sampler does not check
it again.

Draws are counts first.  Replications are iid and a run reduces to
(count, mean, M2), so their order does not matter: a run draws how many
replications fall in each unit type with one multinomial over all of
them, instead of one uniform per replication.  A unit type whose two arms
are degenerate then contributes one (value, count) pair.  The inner draw
is counts first too: a replication's value depends only on j = k1 - k0,
the difference of its arms' Binomial(K, p) success counts.  A heavy unit
type, expected at least 2K + 1 times in a full block of BLOCK_SIZE (the
size of j's support -K..K), draws how many of its replications take each
j from the law of j, computed once per run: one multinomial call per run
for all heavy types.  So a model with no light type costs the same at any
replication count.

Only the light unit types get values per replication, in chunks of at
most BLOCK_SIZE of their replications taken type by type: one binomial
call per chunk and per arm that is random in a light type, over the
types' probabilities repeated by their counts in the chunk, so equal
probabilities come in runs.  The counts draw uses the generator seeded
with SeedSequence(seed, spawn_key=(0,)); the first chunk continues it and
chunk i >= 1 draws from child i.  Each chunk is reduced to (count, mean,
M2), the first together with the run's (value, count) pairs, and the
summaries are merged strictly in chunk order with the pairwise update of
Chan, Golub & LeVeque (1979).  So memory is O(unit types + BLOCK_SIZE)
whatever the replication count, a run of at most BLOCK_SIZE replications
makes the same draws a single block did, and a run is bit-reproducible
for a given (seed, replications, inner_samples).

This is the one module where floats are at home.  numpy is imported
inside the simulator functions, not at module level, so importing donoharm
and running the exact commands never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import TYPE_CHECKING, Callable, Iterable

from .model import AsymmetricUtilitySpec, ModelError, OutcomeUtility, PopulationModel

if TYPE_CHECKING:
    import numpy as np

    Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]  # (values, integer weights, light counts)
    Sampler = tuple[
        Callable[[np.random.Generator, int], Pairs],  # the run's counts draw
        Callable[[np.random.Generator, np.ndarray], np.ndarray],  # a light chunk's singles
    ]

BLOCK_SIZE = 1 << 16  # light replications per chunk, each its own stream: bounds memory
INT64_MAX = 2**63 - 1  # numpy's binomial and multinomial take their trial counts as int64


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    replications: int = 1_000_000
    seed: int = 0
    inner_samples: int = 1024  # per-arm draws used to collapse within-unit noise

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ModelError("replications must be >= 1")
        if self.replications > INT64_MAX:
            raise ModelError(f"replications must be <= {INT64_MAX}")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if self.inner_samples < 1:
            raise ModelError("inner_samples must be >= 1")
        if self.inner_samples > INT64_MAX:
            raise ModelError(f"inner_samples must be <= {INT64_MAX}")


@dataclass(frozen=True)
class SimulationEstimate:
    mean: float
    standard_error: float
    replications: int
    exact_target: Fraction  # the exact population value of the simulated model


Moments = tuple[int, float, float]  # (count, mean, sum of squared deviations)


def _merge(a: Moments, b: Moments) -> Moments:
    """Chan-Golub-LeVeque pairwise update of two (count, mean, M2) summaries."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2a + m2b + delta * delta * na * nb / n


def _moments(values: np.ndarray, weights: np.ndarray, singles: np.ndarray) -> Moments:
    """(count, mean, M2) of `values`, each repeated by its integer weight,
    together with `singles`, each counted once.

    Elementwise products and sums only: a BLAS dot product starts OpenBLAS
    threads and ran slower.  Unit weights are never materialised: a weight
    array per replication made the reduction about six times slower.
    """
    n = int(weights.sum()) + singles.size
    mean = (float((weights * values).sum()) + float(singles.sum())) / n
    dev, sdev = values - mean, singles - mean
    return n, mean, float((weights * dev * dev).sum()) + float((sdev * sdev).sum())


def _run_blocks(cfg: SimulationConfig, sampler: Sampler) -> Moments:
    """Draw the run's (value, count) pairs and light counts once, then the
    light replications chunk by chunk, each chunk's per-type counts cut from
    the cumulative light counts, and merge the chunks in chunk order."""
    import numpy as np

    def rng(i: int) -> np.random.Generator:
        # np.random.default_rng is looked up per call so it can be instrumented.
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))

    counts, singles = sampler
    first = rng(0)
    values, weights, light = counts(first, cfg.replications)
    size = int(light.sum())

    def chunk(g: np.random.Generator, i: int) -> np.ndarray:
        lo = i * BLOCK_SIZE
        ends = np.clip(np.cumsum(light), lo, min(lo + BLOCK_SIZE, size))
        return singles(g, np.diff(ends, prepend=lo))

    total = _moments(values, weights, chunk(first, 0) if size else np.empty(0))
    for i in range(1, -(-size // BLOCK_SIZE)):
        total = _merge(total, _moments(values[:0], weights[:0], chunk(rng(i), i)))
    return total


def _floats(qs: Iterable[Fraction]) -> np.ndarray:
    """Fractions as a float array.  int / int rounds exactly as float(q)
    does, in a third of the time: the conversion dominates the set-up of a
    simulation over 10^5 unit types."""
    import numpy as np

    return np.array([truediv(*q.as_integer_ratio()) for q in qs])


def _binomial_pmfs(K: int, p: np.ndarray) -> np.ndarray:
    """Row i is the Binomial(K, p[i]) pmf over 0..K, from float64 log space;
    p = 0.0 and p = 1.0 give a point mass at 0 and at K."""
    import numpy as np

    k = np.arange(K + 1)
    log_choose = np.zeros(K + 1)
    np.cumsum(np.log(np.arange(K, 0, -1)) - np.log(k[1:]), out=log_choose[1:])
    random = (p > 0.0) & (p < 1.0)
    q = np.where(random, p, 0.5)[:, None]
    log_pmf = log_choose + k * np.log(q) + (K - k) * np.log1p(-q)
    pmf = np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True))
    pmf[~random] = 0.0
    pmf[p == 0.0, 0] = 1.0
    pmf[p == 1.0, K] = 1.0
    return pmf / pmf.sum(axis=1, keepdims=True)


def _j_laws(K: int, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Row i is the law of j = k1 - k0 over -K..K, for independent
    k0 ~ Binomial(K, p0[i]) and k1 ~ Binomial(K, p1[i]).

    P(j = d) = sum_k P(k1 = k + d) P(k0 = k), the convolution of the arm-1
    pmf with the reversed arm-0 pmf, taken by FFT in O(K log K) per row.
    Rounding leaves entries of order 1e-17 where the law is below that, so
    negatives are clipped to 0 and each row renormalised.
    """
    import numpy as np

    n = 2 * K + 1
    size = 1 << (n - 1).bit_length()  # a power of two >= 2K + 1: no wrap-around
    spectrum = np.fft.rfft(_binomial_pmfs(K, p1), size) * np.fft.rfft(
        _binomial_pmfs(K, p0)[:, ::-1], size
    )
    laws = np.maximum(np.fft.irfft(spectrum, size)[:, :n], 0.0)
    return laws / laws.sum(axis=1, keepdims=True)


def simulate_population(
    m: PopulationModel,
    u: OutcomeUtility = OutcomeUtility(),
    spec: AsymmetricUtilitySpec = AsymmetricUtilitySpec(),
    cfg: SimulationConfig = SimulationConfig(),
) -> SimulationEstimate:
    """Nested two-level simulation of the population evaluator, with the
    exact value it estimates, m.sums.value(u, spec), as its target.

    A replication's value is the rule applied to the difference of its
    arms' inner means, K = inner_samples draws each.  Applying a kinked
    rule to inner means is biased for finite K when the arms are close;
    the bias shrinks as K grows (see tests for the exact finite-K
    expectation oracle).  A unit type is fixed, with no draws, when both
    its arms have float probability 0.0 or 1.0; a fixed arm of a light type
    passes p = 0.0 or 1.0 to the binomial call, which returns exactly 0 or K.
    """
    target = m.sums.value(u, spec)
    if u.u1 == u.u0:  # equal outcome utilities: every replication is a tie, exactly
        return SimulationEstimate(float(spec.tie_value), 0.0, cfg.replications, target)
    n, mean, m2 = _run_blocks(cfg, _sampler(m, u, spec, cfg.inner_samples))
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return SimulationEstimate(mean, se, n, target)


def _sampler(
    m: PopulationModel, u: OutcomeUtility, spec: AsymmetricUtilitySpec, K: int
) -> Sampler:
    """The two draws of simulate_population, K inner samples per arm, on
    outcome utilities that differ: the run-level (value, count) pairs and
    light counts, and the singles of a chunk of light replications."""
    import numpy as np

    span = u.u1 - u.u0
    units = [t for t in m.unit_types if t.weight]  # zero weight: never drawn
    weights = _floats(t.weight for t in units)
    p0 = _floats(t.arm0.survival_prob for t in units)
    p1 = _floats(t.arm1.survival_prob for t in units)
    random0 = (p0 > 0.0) & (p0 < 1.0)
    random1 = (p1 > 0.0) & (p1 < 1.0)
    fixed = ~(random0 | random1)
    # The law costs O(K) to draw from, binomial draws O(count): weigh the
    # support 2K + 1 against the type's expected count in a full block,
    # which also keeps the laws at most BLOCK_SIZE floats.
    heavy = ~fixed & (weights * BLOCK_SIZE >= 2.0 * K + 1.0)
    light = ~fixed & ~heavy
    # Values of the fixed types, looked up by 2*o0 + o1.
    table = np.array([float(spec.of(span * (o1 - o0))) for o0 in (0, 1) for o1 in (0, 1)])
    values = table[2 * (p0[fixed] == 1.0) + (p1[fixed] == 1.0)]
    # The rule on j = k1 - k0 is spec.of(span * j / K): the value per unit
    # of j on each side of zero.
    up, down, tie = float(spec.of(span) / K), float(-spec.of(-span) / K), float(spec.tie_value)

    def kinked(j: np.ndarray) -> np.ndarray:
        v = np.where(j > 0, up, down)
        v *= j
        v[j == 0] = tie
        return v

    laws = None
    if heavy.any():
        laws = _j_laws(K, p0[heavy], p1[heavy])
        values = np.concatenate((values, kinked(np.arange(-K, K + 1))))
    draw0, draw1 = bool(random0[light].any()), bool(random1[light].any())
    p0, p1 = p0[light], p1[light]

    def counts(rng: np.random.Generator, replications: int) -> Pairs:
        drawn = rng.multinomial(replications, weights)
        repeats = drawn[fixed]
        if laws is not None:
            repeats = np.concatenate((repeats, rng.multinomial(drawn[heavy], laws).sum(axis=0)))
        return values, repeats, drawn[light]

    def inner(rng: np.random.Generator, p: np.ndarray, random: bool, c: np.ndarray) -> np.ndarray:
        if random:
            return rng.binomial(K, np.repeat(p, c))
        # K*o from exact ints: K may be as large as 2**63 - 1.
        return np.repeat(np.where(p == 1.0, K, 0), c)

    def singles(rng: np.random.Generator, c: np.ndarray) -> np.ndarray:
        return kinked(inner(rng, p1, draw1, c) - inner(rng, p0, draw0, c))

    return counts, singles
