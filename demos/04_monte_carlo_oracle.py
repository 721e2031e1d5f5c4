"""The seeded simulator independently confirms both closed forms.

One nested sampler (outer draws mix unit types, inner draws collapse
within-unit noise) serves both readings.  On the expanded joint law every
unit type has fixed outcomes, so only the outer draw is left and it
reproduces the joint-law evaluation; on the pooled model it reproduces
the population evaluation, up to a small, shrinking finite-inner-size
bias near ties.
"""

from donoharm import SimulationConfig, as_population, builtin, simulate_population
from donoharm.engine import READINGS

roulette = as_population(builtin("russian_roulette"))  # the pooled unit
cfg = SimulationConfig(replications=1_000_000, seed=0)

det = simulate_population(READINGS["deterministic"](roulette), cfg=cfg)
print(f"joint-law simulation:  mean {det.mean:+.6f}  (exact {det.exact_target}),")
print(f"                       stderr {det.standard_error:.2e}")

pop = simulate_population(roulette, cfg=cfg)
print(f"nested simulation:     mean {pop.mean:+.6f}  (exact limit {pop.exact_target}),")
print(f"                       stderr {pop.standard_error:.2e}")
print("the small gap on the nested side is the documented finite-inner-size bias;")
print("rerun with SimulationConfig(inner_samples=8192) to watch it shrink")
