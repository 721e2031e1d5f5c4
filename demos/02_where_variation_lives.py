"""The built-in scenarios differ only in where the randomness lives.

Russian roulette: every application of the treatment re-rolls the outcome
(within-unit).  Snakebite: each patient's fate under each antidote is a
fixed genetic attribute (across-unit).  The two share identical joint
distributions and identical marginals, yet the one exact kernel values
them with opposite signs.  The migraine model mixes both levels.

Each locus is read off a model, not declared: the deterministic reading
expands the joint law into fixed-outcome strata (variation across units),
the stochastic reading pools it into one coin-flipping unit (variation
within it), and the population reading keeps the scenario's own model.
"""

from donoharm import AsymmetricUtilitySpec, as_population, builtin, paradox_report
from donoharm.engine import READINGS

rule = AsymmetricUtilitySpec()
for name in ("russian_roulette", "snakebite", "ssn_divisibility", "migraine_mixed"):
    sc = builtin(name)
    model = as_population(sc)
    print(f"{name} [{sc.variation_locus}]")
    print(f"  expected relative utility: {model.sums.value()}")
    for t in model.unit_types[:4]:
        value = rule.of(t.arm1.survival_prob - t.arm0.survival_prob)
        print(f"    {t.label}: weight {t.weight}, unit value {value}")
    if len(model.unit_types) > 4:
        print(f"    ... {len(model.unit_types) - 4} more unit types")
    for reading, read in READINGS.items():
        m = read(model)
        value = m.sums.value()
        print(f"  {reading} reading [{m.variation_locus}]: {value}")
    report = paradox_report(model)
    print(f"  {report.narrative}\n")
