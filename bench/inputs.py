"""Seeded scenario generators and their independent integer references.

Nothing here imports donoharm: inputs are written as scenario JSON with
plain integer arithmetic (every number an exact "a/b" string), and the
expected results are computed the same way, so a defect in the program
cannot also hide in the inputs or in the values it is checked against.

The utility and asymmetry are the defaults (U(0)=0, U(1)=1, gain 1/2,
loss 1, tie 0); the generated documents do not override them.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from math import gcd

# The paradox on the catalog, as exact strings: evaluate --evaluator all
# and paradox values per built-in scenario.
CATALOG_EXPECTED = {
    "russian_roulette": {
        "deterministic": "-1/21", "stochastic": "1/84", "population": "1/84", "classical": "1/42",
    },
    "snakebite": {
        "deterministic": "-1/21", "stochastic": "1/84", "population": "-1/21", "classical": "1/42",
    },
    "ssn_divisibility": {
        "deterministic": "-1/21", "stochastic": "1/84", "population": "-1/21", "classical": "1/42",
    },
    "migraine_mixed": {
        "deterministic": "-11/250", "stochastic": "1/25", "population": "1/200", "classical": "2/25",
    },
}
POPULATION_BUILTINS = tuple(CATALOG_EXPECTED)
CATALOG = [  # list-scenarios --format structured
    {"name": "russian_roulette", "kind": "chambers"},
    {"name": "snakebite", "kind": "population"},
    {"name": "ssn_divisibility", "kind": "population"},
    {"name": "migraine_mixed", "kind": "population"},
    {"name": "nm_incoherence", "kind": "lottery_pair"},
]

# (weight, arm0 survival, arm1 survival) per unit type of the simulated
# built-ins, for the simulator's finite-K expectation.
BUILTIN_ARMS = {
    "russian_roulette": [(1.0, 5 / 6, 6 / 7)],
    "snakebite": [(30 / 42, 1.0, 1.0), (1 / 42, 0.0, 0.0), (5 / 42, 1.0, 0.0), (6 / 42, 0.0, 1.0)],
    "migraine_mixed": [(0.3, 0.0, 0.5), (0.7, 0.8, 0.7)],
}

NM_INCOHERENCE = {
    "name": "nm_incoherence",
    "kind": "lottery_pair",
    "payload": {
        "left": {"chance": [["3/5", {"leaf": "1"}], ["2/5", {"leaf": "0"}]]},
        "right": {
            "chance": [
                ["1/2", {"leaf": "1"}],
                ["1/2", {"chance": [["1/5", {"leaf": "1"}], ["4/5", {"leaf": "0"}]]}],
            ]
        },
        "penalty": "9/10",
    },
}
NM_INCOHERENCE_EXPECTED = {
    "same_distribution": True,
    "nm_left": "3/5",
    "nm_right": "3/5",
    "penalized_left": "27/50",
    "penalized_right": "531/1000",
    "violation": True,
}
NM_INCOHERENCE_REDUCED = {"chance": [["2/5", {"leaf": "0"}], ["3/5", {"leaf": "1"}]]}

SCALE = 1000  # Bernoulli probabilities are k/1000


def frac(n: int, d: int) -> str:
    """Lowest-terms "a/b" (or "a" when b is 1), the form the program prints."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _rng(tag: str, seed: int) -> random.Random:
    # String seeds are hashed with sha512, so this is stable across processes.
    return random.Random(f"{tag}:{seed}")


# ---------------------------------------------------------------------------
# population_wide


def population_doc(seed: int, n_types: int) -> dict:
    """n_types unit types: 30% degenerate arms, 70% Bernoulli k/1000 arms,
    10% of types with an explicit comonotone dependence joint."""
    rng = _rng("population_wide", seed)
    n_degenerate = round(0.3 * n_types)
    kinds = ["degenerate"] * n_degenerate + ["bernoulli"] * (n_types - n_degenerate)
    rng.shuffle(kinds)
    bernoulli = [i for i, k in enumerate(kinds) if k == "bernoulli"]
    dependent = set(rng.sample(bernoulli, min(len(bernoulli), round(0.1 * n_types))))
    weights = [rng.randint(1, 100) for _ in range(n_types)]
    total = sum(weights)
    units = []
    for i, kind in enumerate(kinds):
        unit = {"label": f"type_{i:05d}", "weight": f"{weights[i]}/{total}"}
        if kind == "degenerate":
            unit["arm0"] = {"degenerate": rng.randint(0, 1)}
            unit["arm1"] = {"degenerate": rng.randint(0, 1)}
        else:
            k0, k1 = rng.randint(1, SCALE - 1), rng.randint(1, SCALE - 1)
            unit["arm0"] = {"bernoulli": f"{k0}/{SCALE}"}
            unit["arm1"] = {"bernoulli": f"{k1}/{SCALE}"}
            if i in dependent:
                both = min(k0, k1)
                unit["dependence"] = {
                    "s11": f"{both}/{SCALE}",
                    "s00": f"{SCALE - max(k0, k1)}/{SCALE}",
                    "s10": f"{k0 - both}/{SCALE}",
                    "s01": f"{k1 - both}/{SCALE}",
                }
        units.append(unit)
    return {
        "name": f"population_wide_{seed}",
        "kind": "population",
        "variation_locus": "mixed",
        "payload": {"unit_types": units},
    }


def _arm_k(arm: dict) -> int:
    if "degenerate" in arm:
        return SCALE * arm["degenerate"]
    num, den = arm["bernoulli"].split("/")
    assert int(den) == SCALE
    return int(num)


def _population_terms(doc: dict):
    """(weight numerator, k0, k1, mass_10, mass_01) per type; masses over SCALE**2."""
    for unit in doc["payload"]["unit_types"]:
        w = int(unit["weight"].split("/")[0])
        k0, k1 = _arm_k(unit["arm0"]), _arm_k(unit["arm1"])
        dep = unit.get("dependence")
        if dep is None:
            m10, m01 = k0 * (SCALE - k1), (SCALE - k0) * k1
        else:
            m10 = int(dep["s10"].split("/")[0]) * SCALE
            m01 = int(dep["s01"].split("/")[0]) * SCALE
        yield w, k0, k1, m10, m01


def _sign(x: int) -> str:
    return "switch" if x > 0 else "stay" if x < 0 else "indifferent"


def population_reference(doc: dict) -> dict:
    """Exact deterministic, stochastic, population and classical values and
    the paradox verdicts, by integer arithmetic on the scenario document."""
    terms = list(_population_terms(doc))
    W = sum(t[0] for t in terms)
    # asymmetric rule on a difference d: d/2 if d > 0, d if d < 0 -> over 2
    kinked = lambda d: d if d > 0 else 2 * d  # noqa: E731
    det = sum(w * (m01 - 2 * m10) for w, _, _, m10, m01 in terms)  # over 2 W SCALE^2
    pop = sum(w * kinked(k1 - k0) for w, k0, k1, _, _ in terms)  # over 2 W SCALE
    P0 = sum(w * k0 for w, k0, _, _, _ in terms)
    P1 = sum(w * k1 for w, _, k1, _, _ in terms)  # over W SCALE
    dominance = "arm1_dominates" if P1 > P0 else "arm0_dominates" if P0 > P1 else "tie"
    rec, stoch_rec = _sign(det), _sign(pop)

    def contradicts(r: str) -> bool:
        return (dominance, r) in (("arm1_dominates", "stay"), ("arm0_dominates", "switch"))

    return {
        "results": {
            "deterministic": frac(det, 2 * W * SCALE * SCALE),
            "stochastic": frac(kinked(P1 - P0), 2 * W * SCALE),
            "population": frac(pop, 2 * W * SCALE),
            "classical": frac(P1 - P0, W * SCALE),
        },
        "paradox": {
            "dominance": dominance,
            "recommendation": rec,
            "contradiction": contradicts(rec),
            "deterministic_value": frac(det, 2 * W * SCALE * SCALE),
            "stochastic_value": frac(pop, 2 * W * SCALE),
            "stochastic_recommendation": stoch_rec,
            "stochastic_contradiction": contradicts(stoch_rec),
        },
    }


def population_arms(doc: dict) -> list[tuple[float, float, float]]:
    terms = list(_population_terms(doc))
    W = sum(t[0] for t in terms)
    return [(w / W, k0 / SCALE, k1 / SCALE) for w, k0, k1, _, _ in terms]


def _log_binomial_coefficients(k: int) -> list[float]:
    lk = math.lgamma(k + 1)
    return [lk - math.lgamma(i + 1) - math.lgamma(k - i + 1) for i in range(k + 1)]


def _binomial_pmf(p: float, k: int, log_coef: list[float]) -> array:
    if p <= 0.0 or p >= 1.0:
        pmf = array("d", bytes(8 * (k + 1)))
        pmf[k if p >= 1.0 else 0] = 1.0
        return pmf
    lp, lq = math.log(p), math.log1p(-p)
    return array("d", (math.exp(c + i * lp + (k - i) * lq) for i, c in enumerate(log_coef)))


def _rule_given_arm0(pmf1: array, k: int) -> array:
    """h[i] = E g((J - i) / k) for J ~ pmf1, with g the default asymmetric rule
    (gain 1/2 above 0, loss 1 below, tie 0), by prefix sums over J."""
    below_mass = below_sum = 0.0  # sum of pmf1[j] and j pmf1[j] over j < i
    mean = sum(j * q for j, q in enumerate(pmf1))
    h = array("d", bytes(8 * (k + 1)))
    for i in range(k + 1):
        above = (mean - below_sum - i * pmf1[i]) - i * (1.0 - below_mass - pmf1[i])
        below = below_sum - i * below_mass
        h[i] = (0.5 * above + 1.0 * below) / k
        below_mass += pmf1[i]
        below_sum += i * pmf1[i]
    return h


def nested_expectation(arms: list[tuple[float, float, float]], inner_samples: int) -> float:
    """Exact expectation of the simulator's nested population estimate.

    Per unit type the simulator draws I ~ Bin(K, p0) and J ~ Bin(K, p1)
    independently and scores g((J - I) / K); the estimate's expectation is
    sum_t w_t sum_i P(I = i) E g((J - i) / K).  This is what a simulated
    mean converges to at finite K, so checks compare against it rather than
    against the K -> infinity value.  O(K) per distinct probability.
    """
    k = inner_samples
    log_coef = _log_binomial_coefficients(k)
    pmfs: dict[float, array] = {}
    rules: dict[float, array] = {}

    def pmf(p: float) -> array:
        if p not in pmfs:
            pmfs[p] = _binomial_pmf(p, k, log_coef)
        return pmfs[p]

    total = 0.0
    for w, p0, p1 in arms:
        if p1 not in rules:
            rules[p1] = _rule_given_arm0(pmf(p1), k)
        total += w * sum(map(operator.mul, pmf(p0), rules[p1]))
    return total


# ---------------------------------------------------------------------------
# lottery_trees

PENALTY = (9, 10)
UTILITY_DEN = 4  # leaf utilities are k/4 with k in 1..6, all positive


def _reduced(counts: dict[int, int], total: int) -> dict:
    """Bench-written one-stage reduction: one branch per utility, ascending."""
    return {
        "chance": [
            [frac(c, total), {"leaf": frac(k, UTILITY_DEN)}] for k, c in sorted(counts.items())
        ]
    }


def ternary_pair(seed: int, depth: int) -> tuple[dict, dict]:
    """Full ternary tree with uniform branches against its reduction."""
    rng = _rng("lottery_ternary", seed)
    leaves = [rng.randint(1, 6) for _ in range(3**depth)]
    it = iter(leaves)

    def build(level: int) -> dict:
        if level == depth:
            return {"leaf": frac(next(it), UTILITY_DEN)}
        return {"chance": [["1/3", build(level + 1)] for _ in range(3)]}

    counts: dict[int, int] = {}
    for k in leaves:
        counts[k] = counts.get(k, 0) + 1
    n = len(leaves)
    f_num, f_den = PENALTY
    s = sum(leaves)  # NM value = s / (UTILITY_DEN n), the leaf mean
    doc = {
        "name": f"ternary_depth{depth}_{seed}",
        "kind": "lottery_pair",
        "payload": {"left": build(0), "right": _reduced(counts, n), "penalty": frac(*PENALTY)},
    }
    right_factor = (f_num, f_den) if len(counts) > 1 else (1, 1)
    expected = {
        "same_distribution": True,
        "nm_left": frac(s, UTILITY_DEN * n),
        "nm_right": frac(s, UTILITY_DEN * n),
        "penalized_left": frac(f_num**depth * s, f_den**depth * UTILITY_DEN * n),
        "penalized_right": frac(right_factor[0] * s, right_factor[1] * UTILITY_DEN * n),
    }
    expected["violation"] = expected["penalized_left"] != expected["penalized_right"]
    return doc, {"report": expected, "reduced": doc["payload"]["right"]}


def wide_pair(seed: int, branches: int) -> tuple[dict, dict]:
    """One chance node with `branches` branches against a two-stage split."""
    rng = _rng("lottery_wide", seed)
    weights = [rng.randint(1, 100) for _ in range(branches)]
    utils = [rng.randint(1, 6) for _ in range(branches)]
    W = sum(weights)
    half = branches // 2
    groups = [range(0, half), range(half, branches)]
    group_w = [sum(weights[i] for i in g) for g in groups]

    def leaf(i: int) -> dict:
        return {"leaf": frac(utils[i], UTILITY_DEN)}

    flat = {"chance": [[f"{weights[i]}/{W}", leaf(i)] for i in range(branches)]}
    split = {
        "chance": [
            [frac(gw, W), {"chance": [[f"{weights[i]}/{gw}", leaf(i)] for i in g]}]
            for g, gw in zip(groups, group_w)
        ]
    }
    counts: dict[int, int] = {}
    for w, k in zip(weights, utils):
        counts[k] = counts.get(k, 0) + w
    f_num, f_den = PENALTY
    s = sum(w * k for w, k in zip(weights, utils))  # NM value = s / (UTILITY_DEN W)
    doc = {
        "name": f"wide{branches}_{seed}",
        "kind": "lottery_pair",
        "payload": {"left": flat, "right": split, "penalty": frac(*PENALTY)},
    }
    expected = {
        "same_distribution": True,
        "nm_left": frac(s, UTILITY_DEN * W),
        "nm_right": frac(s, UTILITY_DEN * W),
        "penalized_left": frac(f_num * s, f_den * UTILITY_DEN * W),
        "penalized_right": frac(f_num**2 * s, f_den**2 * UTILITY_DEN * W),
        "violation": True,
    }
    return doc, {"report": expected, "reduced": _reduced(counts, W)}


def count_nodes(tree: dict) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        if "chance" in node:
            stack.extend(sub for _, sub in node["chance"])
    return n
