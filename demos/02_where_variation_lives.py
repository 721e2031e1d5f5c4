"""The built-in scenarios differ only in where the randomness lives.

Russian roulette: every application of the treatment re-rolls the outcome
(within-unit).  Snakebite: each patient's fate under each antidote is a
fixed genetic attribute (across-unit).  The two share identical joint
distributions and identical marginals, yet the unified evaluator values
them with opposite signs.  The migraine model mixes both levels.

Each locus is read off a model, not declared: the deterministic reading
expands the joint law into fixed-outcome strata (variation across units),
the stochastic reading pools it into one coin-flipping unit (variation
within it), and the population reading keeps the scenario's own model.
"""

from donoharm import as_population, builtin, evaluate_population, paradox_report
from donoharm.engine import READINGS

for name in ("russian_roulette", "snakebite", "ssn_divisibility", "migraine_mixed"):
    sc = builtin(name)
    model = as_population(sc)
    result = evaluate_population(model)
    print(f"{name} [{sc.variation_locus}]")
    print(f"  expected relative utility: {result.expected_relative_utility}")
    for label, weight, value in result.per_unit_breakdown[:4]:
        print(f"    {label}: weight {weight}, unit value {value}")
    if len(result.per_unit_breakdown) > 4:
        print(f"    ... {len(result.per_unit_breakdown) - 4} more unit types")
    for reading, read in READINGS.items():
        m = read(model)
        value = evaluate_population(m).expected_relative_utility
        print(f"  {reading} reading [{m.variation_locus}]: {value}")
    report = paradox_report(model)
    print(f"  {report.narrative}\n")
