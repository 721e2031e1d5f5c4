"""Two revolver games, one utility rule, two opposite recommendations.

The status quo kills with chance 1/6, the alternative with chance 1/7.
Reading the outcomes as fixed-but-unknown attributes and applying the
asymmetric rule inside the joint law says "stay"; collapsing each game to
its survival probability first says "switch".  Same numbers, different
order of operations: ``expand`` makes each joint class a unit with fixed
outcomes, ``pool`` makes the whole law one unit at its marginals, and the
one exact kernel, ``sums.value``, reads either model.
"""

from fractions import Fraction as F

from donoharm import expand, pool, strata_from_independent_marginals

strata = strata_from_independent_marginals(F(5, 6), F(6, 7))
print("joint classes of (outcome under stay, outcome under switch):")
for stratum, mass in strata.items():
    print(f"  {stratum}: {mass}")

det = expand(strata).sums
print(f"\nevaluate utilities inside the joint law, then average: {det.value()}")
print("  -> negative: the rule says stay with the riskier game")

stoch = pool(expand(strata)).sums.value()
print(f"collapse each game to its survival chance, then compare: {stoch}")
print("  -> positive: the rule says switch, agreeing with plain dominance")

print(f"\na symmetric rule would report {det.classical()} either way")
