"""Compound lotteries, their classical value, and the uncertainty penalty.

The classical value of a lottery tree depends only on its outcome
distribution, so it is invariant under flattening a compound lottery into a
single stage.  The penalized value multiplies every genuinely uncertain
chance node by a factor, so two trees with identical outcome distributions
can receive different values.  coherence_check detects exactly that.

A Chance node accepts only (probability, Leaf or Chance) branches, so every
tree is valid by construction.  Trees are walked two ways, both iterative so
that depth is bounded only by memory.  Equality and hashing read one
pre-order stream of node tokens.  Every value reader shares one walk that
carries each path probability as a reduced integer pair and returns the
outcome distribution, the mass per utility, together with S_e, the expected
utility of paths through e uncertain chance nodes: the classical value is
the sum of the S_e and the penalized value the sum of factor**e * S_e.
Each tree is walked once, whatever reads it: the first reader keeps the walk.
The walk keeps one stack frame per chance node, reads that node's branches
left to right and adds each leaf to its bucket where its parent reaches it;
whether a chance node is uncertain is recorded when it is built.  A reader
given anything but a tree, or a penalty that is not a PenaltySpec, raises
ModelError naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Union

from .model import ModelError, ONE, ZERO, exact, require


def _preorder(t: LotteryTree) -> Iterator[object]:
    """One token per node in pre-order: a leaf's utility, or the tuple of a
    chance node's branch probabilities.  The tuples carry the arities, so a
    stream decodes to exactly one tree and no stream is a prefix of another."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node.utility
        else:
            yield tuple(p for p, _ in node.branches)
            stack.extend(sub for _, sub in reversed(node.branches))


def _tree_eq(self: LotteryTree, other: object) -> bool:
    """The dataclass equality of two trees, without recursion."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    # Streams are prefix-free, so stopping at the shorter one is exact.
    return self is other or all(a == b for a, b in zip(_preorder(self), _preorder(other)))


def _tree_hash(self: LotteryTree) -> int:
    return hash(tuple(_preorder(self)))


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
        else:
            items: list[object] = ["Chance(branches=("]
            for p, sub in t.branches:
                items += [f"({p!r}, ", sub, "), "]
            # A one-branch tuple prints as "(x,)", a longer one as "(x, y)".
            items[-1] = ")," if len(t.branches) == 1 else ")"
            items.append("))")
            stack.extend(reversed(items))
    return "".join(parts)


# Leaf and Chance compare, hash and print through _tree_eq, _tree_hash and
# _tree_repr instead of the recursive dataclass methods, so a tree as deep as
# memory allows does all three.  Each keeps its _walk in _walked, computed the
# first time a reader asks for it and seen by none of the three.  A Chance also
# keeps _uncertain, whether at least two of its branches have nonzero
# probability, set when it is built and likewise seen by none of the three.
@dataclass(frozen=True)
class Leaf:
    utility: Fraction

    __eq__ = _tree_eq
    __hash__ = _tree_hash
    __repr__ = _tree_repr
    _walked = cached_property(lambda self: _walk(self))

    def __post_init__(self) -> None:
        if type(self.utility) is not Fraction:
            object.__setattr__(self, "utility", exact(self.utility))


@dataclass(frozen=True)
class Chance:
    branches: tuple[tuple[Fraction, "LotteryTree"], ...]

    __eq__ = _tree_eq
    __hash__ = _tree_hash
    __repr__ = _tree_repr
    _walked = cached_property(lambda self: _walk(self))

    def __post_init__(self) -> None:
        try:
            items = iter(self.branches)
        except TypeError:
            raise ModelError("chance branches are not an iterable of (probability, tree) pairs") from None
        # One loop checks each pair and range, sums the probabilities as
        # integers over their common denominator, and counts the branches of
        # nonzero probability.  A (Fraction, tree) tuple is kept as it is.
        branches = []
        common, total, live = 1, 0, 0
        for branch in items:
            try:
                p, sub = branch
            except (TypeError, ValueError):  # not a pair
                sub = None
            if not isinstance(sub, (Leaf, Chance)):
                raise ModelError(f"chance branch {len(branches)} is not a (probability, tree) pair")
            if type(branch) is not tuple or type(p) is not Fraction:
                p = exact(p)
                branch = (p, sub)
            n, d = p.as_integer_ratio()
            if not 0 <= n <= d:  # the denominator is positive
                raise ModelError(f"probability {p} outside [0, 1]")
            if common % d:
                scale = lcm(common, d) // common
                common, total = common * scale, total * scale
            total += n * (common // d)
            live += n > 0
            branches.append(branch)
        if not branches:
            raise ModelError("chance node has no branches")
        if total != common:
            total = sum((p for p, _ in branches), ZERO)
            raise ModelError(f"branch probabilities sum to {total}, expected exactly 1")
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "_uncertain", live > 1)


LotteryTree = Union[Leaf, Chance]


@dataclass(frozen=True)
class PenaltySpec:
    """Multiplier applied at every chance node that carries real uncertainty."""

    factor: Fraction = Fraction(9, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", exact(self.factor))
        if not ZERO < self.factor <= ONE:
            raise ModelError(f"penalty factor {self.factor} outside (0, 1]")


def _walk(t: LotteryTree) -> tuple[dict[Fraction, Fraction], dict[int, Fraction]]:
    """The outcome distribution of a tree and its S_e, in one walk.

    One iterative pre-order walk, so tree depth is bounded only by memory.
    The stack holds one frame per chance node on the current path: an
    iterator over its branches, its path probability as an integer pair
    (n, d) in lowest terms, and e, the uncertain chance nodes down to and
    including it.  Its branches are read left to right; a leaf adds n to the
    bucket (utility numerator, utility denominator, e, d) there and then,
    and a chance node pushes its own frame, so no leaf is ever stacked.
    Zero-probability branches are skipped: they add nothing to any sum.  The
    distribution maps each utility, in first-visit order, to its total mass;
    S_e maps each e to the expected utility of the paths through e
    uncertain nodes.
    """
    buckets: dict[tuple[int, int, int, int], int] = {}
    # The root is the one branch, of probability 1, of a frame above it.
    stack = [(iter(((ONE, t),)), 1, 1, 0)]
    while stack:
        # The innermost chance node whose branches are not all read yet.
        branches, n, d, e = stack[-1]
        for q, sub in branches:
            qn, qd = q.as_integer_ratio()
            if not qn:
                continue
            num, den = n * qn, d * qd
            g = gcd(num, den)
            if isinstance(sub, Leaf):
                key = (*sub.utility.as_integer_ratio(), e, den // g)
                buckets[key] = buckets.get(key, 0) + num // g
            else:
                stack.append((iter(sub.branches), num // g, den // g, e + sub._uncertain))
                break
        else:
            stack.pop()
    # One Fraction per (utility, e), summed over the path denominators.  A first
    # term is stored as it is: adding it to zero would cost a Fraction addition.
    masses: dict[tuple[int, int, int], Fraction] = {}
    for (un, ud, e, d), n in buckets.items():
        key, mass = (un, ud, e), Fraction(n, d)
        masses[key] = masses[key] + mass if key in masses else mass
    distribution: dict[Fraction, Fraction] = {}
    sums: dict[int, Fraction] = {}
    for (un, ud, e), mass in masses.items():
        u = Fraction(un, ud)
        distribution[u] = distribution[u] + mass if u in distribution else mass
        sums[e] = sums[e] + u * mass if e in sums else u * mass
    return distribution, sums


def _penalized(sums: dict[int, Fraction], factor: Fraction) -> Fraction:
    """Sum of factor**e * S_e, by Horner's rule from the deepest e."""
    value = ZERO
    for e in range(max(sums), -1, -1):
        value = value * factor + sums.get(e, ZERO)
    return value


def _walk_of(t: LotteryTree) -> tuple[dict[Fraction, Fraction], dict[int, Fraction]]:
    """The kept walk of the tree argument t."""
    return require(t, (Leaf, Chance), "t")._walked


def nm_value(t: LotteryTree) -> Fraction:
    """Classical expected utility: probability-weighted sum, no penalty."""
    return sum(_walk_of(t)[1].values(), ZERO)


def penalized_value(t: LotteryTree, p: PenaltySpec = PenaltySpec()) -> Fraction:
    """Expected utility with each uncertain chance node scaled by the factor.

    Uncertainty means at least two branches of nonzero probability; branches
    leading to equal utilities still count, since the penalty prices the
    unresolved randomness rather than the outcome spread.
    """
    return _penalized(_walk_of(t)[1], require(p, PenaltySpec, "p").factor)


def outcome_distribution(t: LotteryTree) -> dict[Fraction, Fraction]:
    """Map utility -> total path probability; zero-mass outcomes are dropped.

    Keys are in the order a left-to-right depth-first walk first reaches them.
    """
    return dict(_walk_of(t)[0])


def reduce_compound(t: LotteryTree) -> LotteryTree:
    """Flatten to a single stage with the same outcome distribution.

    Equal-utility leaves are merged; a distribution concentrated on one
    utility reduces to a bare Leaf.  The classical value is preserved exactly.
    """
    masses = _walk_of(t)[0]
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
    require(t1, (Leaf, Chance), "t1")
    require(t2, (Leaf, Chance), "t2")
    require(p, PenaltySpec, "p")
    same = outcome_distribution(t1) == outcome_distribution(t2)
    pv1, pv2 = penalized_value(t1, p), penalized_value(t2, p)
    return CoherenceReport(
        same_distribution=same,
        nm_left=nm_value(t1),
        nm_right=nm_value(t2),
        penalized_left=pv1,
        penalized_right=pv2,
        violation=same and pv1 != pv2,
    )
