"""Compound lotteries, their classical value, and the uncertainty penalty.

The classical value of a lottery tree depends only on its outcome
distribution, so it is invariant under flattening a compound lottery into a
single stage.  The penalized value multiplies every genuinely uncertain
chance node by a factor, so two trees with identical outcome distributions
can receive different values.  coherence_check detects exactly that.

Every reader shares one walk of the tree, iterative so that depth is bounded
only by memory.  It carries each path probability as a reduced integer pair
and adds it into buckets keyed by leaf utility, the number e of uncertain
chance nodes on the path and the path denominator.  Everything is read off
those buckets: the outcome distribution is the mass per utility, the
classical value is the sum over e of S_e, the expected utility of paths
through e uncertain nodes, and the penalized value is the sum of
factor**e * S_e.  coherence_check walks each tree once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .model import ModelError, ONE, ZERO, probability


def _tree_eq(self: LotteryTree, other: object) -> bool:
    """The dataclass equality of two trees, field by field, without recursion."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__:
            return False
        if isinstance(a, Leaf):
            if a.utility != b.utility:
                return False
        elif isinstance(a, Chance):
            if len(a.branches) != len(b.branches):
                return False
            for (p, sub), (q, other_sub) in zip(a.branches, b.branches):
                if p != q:
                    return False
                stack.append((sub, other_sub))
        elif a != b:
            return False
    return True


def _tree_repr(self: LotteryTree) -> str:
    """The dataclass repr of a tree, built without recursion."""
    parts: list[str] = []
    stack: list[object] = [self]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif isinstance(t, Leaf):
            parts.append(f"Leaf(utility={t.utility!r})")
        elif isinstance(t, Chance):
            items: list[object] = ["Chance(branches=("]
            for p, sub in t.branches:
                items += [f"({p!r}, ", sub, "), "]
            # A one-branch tuple prints as "(x,)", a longer one as "(x, y)".
            items[-1] = ")," if len(t.branches) == 1 else ")"
            items.append("))")
            stack.extend(reversed(items))
        else:
            parts.append(repr(t))
    return "".join(parts)


def _tree_hash(self: LotteryTree) -> int:
    """A hash consistent with _tree_eq, computed bottom-up without recursion."""
    hashes: dict[int, int] = {}  # id(node) -> hash; the tree keeps every node alive
    stack: list[object] = [self]
    while stack:
        t = stack[-1]
        if id(t) in hashes:
            stack.pop()
        elif isinstance(t, Chance):
            pending = [sub for _, sub in t.branches if id(sub) not in hashes]
            if pending:
                stack.extend(pending)
                continue
            hashes[id(t)] = hash(tuple((p, hashes[id(sub)]) for p, sub in t.branches))
            stack.pop()
        else:
            hashes[id(t)] = hash(("leaf", t.utility)) if isinstance(t, Leaf) else hash(t)
            stack.pop()
    return hashes[id(self)]


# Leaf and Chance compare, hash and print through the three functions above
# instead of the recursive dataclass methods, so a tree as deep as memory
# allows does all three.
@dataclass(frozen=True)
class Leaf:
    utility: Fraction

    __eq__ = _tree_eq
    __hash__ = _tree_hash
    __repr__ = _tree_repr

    def __post_init__(self) -> None:
        if type(self.utility) is not Fraction:
            object.__setattr__(self, "utility", Fraction(self.utility))


@dataclass(frozen=True)
class Chance:
    branches: tuple[tuple[Fraction, "LotteryTree"], ...]

    __eq__ = _tree_eq
    __hash__ = _tree_hash
    __repr__ = _tree_repr

    def __post_init__(self) -> None:
        branches = tuple((probability(p), sub) for p, sub in self.branches)
        if not branches:
            raise ModelError("chance node has no branches")
        # Exact sum on integers over the common denominator.
        common = lcm(*(p.denominator for p, _ in branches))
        if sum(p.numerator * (common // p.denominator) for p, _ in branches) != common:
            total = sum((p for p, _ in branches), ZERO)
            raise ModelError(f"branch probabilities sum to {total}, expected exactly 1")
        object.__setattr__(self, "branches", branches)


LotteryTree = Union[Leaf, Chance]


@dataclass(frozen=True)
class PenaltySpec:
    """Multiplier applied at every chance node that carries real uncertainty."""

    factor: Fraction = Fraction(9, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", Fraction(self.factor))
        if not ZERO < self.factor <= ONE:
            raise ModelError(f"penalty factor {self.factor} outside (0, 1]")


def _walk(t: LotteryTree) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Path mass of every utility, split by uncertain nodes on the path.

    One iterative pre-order walk, so tree depth is bounded only by memory.
    A path probability is an integer pair (n, d) in lowest terms; a leaf adds
    n to the bucket (utility numerator, utility denominator, e, d), where e
    counts the uncertain chance nodes above it.  Zero-probability branches
    are skipped: they add nothing to any sum.  The result maps each utility,
    in first-visit order, to {e: mass}, one Fraction built per bucket.
    """
    buckets: dict[tuple[int, int, int, int], int] = {}
    stack: list[tuple[LotteryTree, int, int, int]] = [(t, 1, 1, 0)]
    while stack:
        node, n, d, e = stack.pop()
        if isinstance(node, Leaf):
            key = (*node.utility.as_integer_ratio(), e, d)
            buckets[key] = buckets.get(key, 0) + n
            continue
        live = []
        for q, sub in node.branches:
            qn, qd = q.as_integer_ratio()
            if qn:
                live.append((qn, qd, sub))
        if len(live) > 1:
            e += 1
        for qn, qd, sub in reversed(live):
            num, den = n * qn, d * qd
            g = gcd(num, den)
            stack.append((sub, num // g, den // g, e))
    masses: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (un, ud, e, d), n in buckets.items():
        by_depth = masses.setdefault((un, ud), {})
        by_depth[e] = by_depth.get(e, ZERO) + Fraction(n, d)
    return masses


def _value_by_depth(masses: dict[tuple[int, int], dict[int, Fraction]]) -> dict[int, Fraction]:
    """S_e: expected utility carried by paths through e uncertain nodes."""
    sums: dict[int, Fraction] = {}
    for (un, ud), by_depth in masses.items():
        u = Fraction(un, ud)
        for e, mass in by_depth.items():
            sums[e] = sums.get(e, ZERO) + u * mass
    return sums


def _penalized(sums: dict[int, Fraction], factor: Fraction) -> Fraction:
    """Sum of factor**e * S_e, by Horner's rule from the deepest e."""
    value = ZERO
    for e in range(max(sums), -1, -1):
        value = value * factor + sums.get(e, ZERO)
    return value


def _distribution(masses: dict[tuple[int, int], dict[int, Fraction]]) -> dict[Fraction, Fraction]:
    return {Fraction(un, ud): sum(by_depth.values(), ZERO) for (un, ud), by_depth in masses.items()}


def nm_value(t: LotteryTree) -> Fraction:
    """Classical expected utility: probability-weighted sum, no penalty."""
    return sum(_value_by_depth(_walk(t)).values(), ZERO)


def penalized_value(t: LotteryTree, p: PenaltySpec = PenaltySpec()) -> Fraction:
    """Expected utility with each uncertain chance node scaled by the factor.

    Uncertainty means at least two branches of nonzero probability; branches
    leading to equal utilities still count, since the penalty prices the
    unresolved randomness rather than the outcome spread.
    """
    return _penalized(_value_by_depth(_walk(t)), p.factor)


def outcome_distribution(t: LotteryTree) -> dict[Fraction, Fraction]:
    """Map utility -> total path probability; zero-mass outcomes are dropped.

    Keys are in the order a left-to-right depth-first walk first reaches them.
    """
    return _distribution(_walk(t))


def reduce_compound(t: LotteryTree) -> LotteryTree:
    """Flatten to a single stage with the same outcome distribution.

    Equal-utility leaves are merged; a distribution concentrated on one
    utility reduces to a bare Leaf.  The classical value is preserved exactly.
    """
    masses = outcome_distribution(t)
    if len(masses) == 1:
        (utility,) = masses
        return Leaf(utility)
    branches = tuple((p, Leaf(u)) for u, p in sorted(masses.items(), key=lambda kv: kv[0]))
    return Chance(branches)


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of comparing two trees under reduction and under the penalty."""

    same_distribution: bool
    nm_left: Fraction
    nm_right: Fraction
    penalized_left: Fraction
    penalized_right: Fraction
    violation: bool  # identical distributions yet different penalized values


def coherence_check(
    t1: LotteryTree, t2: LotteryTree, p: PenaltySpec = PenaltySpec()
) -> CoherenceReport:
    """Flag the axiom violation: equal outcome distributions, unequal values."""
    masses1, masses2 = _walk(t1), _walk(t2)
    sums1, sums2 = _value_by_depth(masses1), _value_by_depth(masses2)
    same = _distribution(masses1) == _distribution(masses2)
    pv1 = _penalized(sums1, p.factor)
    pv2 = _penalized(sums2, p.factor)
    return CoherenceReport(
        same_distribution=same,
        nm_left=sum(sums1.values(), ZERO),
        nm_right=sum(sums2.values(), ZERO),
        penalized_left=pv1,
        penalized_right=pv2,
        violation=same and pv1 != pv2,
    )
