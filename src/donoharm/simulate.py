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

Replications are cut into fixed blocks of BLOCK_SIZE.  Block i draws from
its own generator, seeded with SeedSequence(seed, spawn_key=(i,)) (the i-th
child of the master seed), and is reduced to (count, mean, M2).  The block
summaries are merged strictly in block order with the pairwise update of
Chan, Golub & LeVeque (1979).  So memory is O(BLOCK_SIZE) whatever the
replication count, and a run is bit-reproducible for a given
(seed, replications, inner_samples).

Draws are counts first.  Replications are iid and a block reduces to
(count, mean, M2), so their order inside a block does not matter: a block
draws how many replications fall in each unit type with one multinomial,
instead of one uniform per replication.  A unit type whose two arms are
degenerate then contributes one (value, count) pair.  The inner draw is
counts first too: a replication's value depends only on j = k1 - k0, the
difference of its arms' Binomial(K, p) success counts.  A heavy unit type,
expected at least 2K + 1 times in a full block (the size of j's support
-K..K), draws how many of its replications take each j from the law of j,
computed once per run; all heavy types share one multinomial call per
block and the 2K + 1 (value, count) pairs, O(K) work instead of O(count).
Only the light unit types get values per replication: one binomial call
per arm that is random in one of them, over the types' probabilities
repeated by their counts, so equal probabilities come in runs.

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

    Block = tuple[np.ndarray, np.ndarray, np.ndarray]  # (values, integer weights, singles)

BLOCK_SIZE = 1 << 16  # replications per block: the unit of seeding, memory and work
INT64_MAX = 2**63 - 1  # numpy's binomial takes its trial count as int64


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    replications: int = 1_000_000
    seed: int = 0
    inner_samples: int = 1024  # per-arm draws used to collapse within-unit noise

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ModelError("replications must be >= 1")
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


def _run_blocks(
    cfg: SimulationConfig, draw: Callable[[np.random.Generator, int], Block]
) -> Moments:
    """Draw every block, reduce each to its moments and merge them in block order.

    draw(rng, size) returns the block's `size` replications as (values,
    integer weights, singles): each value stands for as many replications
    as its weight, and each single for one.
    """
    import numpy as np

    def block(i: int) -> Moments:
        # np.random.default_rng is looked up per call so it can be instrumented.
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        return _moments(*draw(rng, min(BLOCK_SIZE, cfg.replications - i * BLOCK_SIZE)))

    total = block(0)
    for i in range(1, -(-cfg.replications // BLOCK_SIZE)):
        total = _merge(total, block(i))
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
    n, mean, m2 = _run_blocks(cfg, _sampler(m, u, spec, cfg.inner_samples))
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return SimulationEstimate(mean, se, n, m.sums.value(u, spec))


def _sampler(
    m: PopulationModel, u: OutcomeUtility, spec: AsymmetricUtilitySpec, K: int
) -> Callable[[np.random.Generator, int], Block]:
    """The draw of one block of simulate_population, K inner samples per arm."""
    import numpy as np

    tie = float(spec.tie_value)
    span = u.u1 - u.u0
    if not span:  # equal outcome utilities: every replication is a tie
        ties, none = np.array([tie]), np.empty(0)
        return lambda rng, size: (ties, np.array([size]), none)

    units = [t for t in m.unit_types if t.weight]  # zero weight: never drawn
    weights = _floats(t.weight for t in units)
    p0 = _floats(t.arm0.survival_prob for t in units)
    p1 = _floats(t.arm1.survival_prob for t in units)
    random0 = (p0 > 0.0) & (p0 < 1.0)
    random1 = (p1 > 0.0) & (p1 < 1.0)
    fixed = ~(random0 | random1)
    # The law costs O(K) per block, binomial draws O(count): weigh the
    # support 2K + 1 against the type's expected count in a full block.
    heavy = ~fixed & (weights * BLOCK_SIZE >= 2.0 * K + 1.0)
    light = ~fixed & ~heavy
    # Values of the fixed types, looked up by 2*o0 + o1.
    table = np.array([float(spec.of(span * (o1 - o0))) for o0 in (0, 1) for o1 in (0, 1)])
    values = table[2 * (p0[fixed] == 1.0) + (p1[fixed] == 1.0)]
    # The rule on j = k1 - k0 is spec.of(span * j / K): the value per unit
    # of j on each side of zero.
    up, down = float(spec.of(span) / K), float(-spec.of(-span) / K)

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

    def inner(rng: np.random.Generator, p: np.ndarray, random: bool, c: np.ndarray) -> np.ndarray:
        if random:
            return rng.binomial(K, np.repeat(p, c))
        # K*o from exact ints: K may be as large as 2**63 - 1.
        return np.repeat(np.where(p == 1.0, K, 0), c)

    def draw(rng: np.random.Generator, size: int) -> Block:
        counts = rng.multinomial(size, weights)
        repeats = counts[fixed]
        if laws is not None:
            repeats = np.concatenate((repeats, rng.multinomial(counts[heavy], laws).sum(axis=0)))
        c = counts[light]
        if not c.any():
            return values, repeats, np.empty(0)
        return values, repeats, kinked(inner(rng, p1, draw1, c) - inner(rng, p0, draw0, c))

    return draw
