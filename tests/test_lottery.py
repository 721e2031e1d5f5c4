import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import donoharm.lottery
from donoharm import (
    Chance,
    CoherenceReport,
    Leaf,
    ModelError,
    PenaltySpec,
    coherence_check,
    nm_value,
    outcome_distribution,
    penalized_value,
    reduce_compound,
)

F = Fraction

OPTION_A = Chance(((F(3, 5), Leaf(F(1))), (F(2, 5), Leaf(F(0)))))
OPTION_B = Chance(
    (
        (F(1, 2), Leaf(F(1))),
        (F(1, 2), Chance(((F(1, 5), Leaf(F(1))), (F(4, 5), Leaf(F(0)))))),
    )
)


def random_tree(rng, depth):
    """Random finite tree, depth <= `depth`, exact branch probabilities."""
    if depth == 0 or rng.random() < 0.35:
        return Leaf(F(rng.randint(-6, 6), rng.randint(1, 6)))
    n = rng.randint(1, 3)
    raw = [rng.randint(0, 4) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return Chance(tuple((F(r, total), random_tree(rng, depth - 1)) for r in raw))


class TestConstruction:
    def test_rejects_empty_chance(self):
        with pytest.raises(ModelError):
            Chance(())

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ModelError):
            Chance(((F(1, 2), Leaf(F(0))), (F(1, 3), Leaf(F(1)))))

    @pytest.mark.parametrize(
        "probs, total",
        [
            ((F(1, 2), F(1, 3)), "5/6"),
            ((F(1, 2), F(1, 3), F(1, 5)), "31/30"),
            ((F(2, 7), F(3, 11), F(5, 13), F(1, 17)), "17049/17017"),
            ((F(1, 6), F(1, 10), F(1, 15)), "1/3"),
            ((F(1, 4), F(1, 9), F(1, 25), F(1, 49), F(1, 121)), "2293369/5336100"),
        ],
    )
    def test_sum_error_message(self, probs, total):
        assert str(sum(probs, F(0))) == total
        message = f"branch probabilities sum to {total}, expected exactly 1"
        with pytest.raises(ModelError) as excinfo:
            Chance(tuple((p, Leaf(F(i))) for i, p in enumerate(probs)))
        assert str(excinfo.value) == message

    def test_coprime_denominators_summing_to_one(self):
        t = Chance(((F(1, 2), Leaf(F(0))), (F(1, 3), Leaf(F(1))), (F(1, 6), Leaf(F(2)))))
        assert [p for p, _ in t.branches] == [F(1, 2), F(1, 3), F(1, 6)]

    @pytest.mark.parametrize(
        "branch",
        [
            (F(1), 5),
            (F(1), OPTION_A.branches),
            (F(1), Leaf(F(1)), Leaf(F(2))),
            (F(1),),
            F(1),
        ],
    )
    def test_rejects_branch_that_is_not_a_probability_and_a_tree(self, branch):
        message = r"^chance branch 1 is not a \(probability, tree\) pair$"
        with pytest.raises(ModelError, match=message):
            Chance(((F(0), Leaf(F(0))), branch))

    @pytest.mark.parametrize("branches", [5, None, Leaf(F(1))], ids=["int", "none", "leaf"])
    def test_rejects_branches_that_are_not_iterable(self, branches):
        message = r"^chance branches are not an iterable of \(probability, tree\) pairs$"
        with pytest.raises(ModelError, match=message):
            Chance(branches)

    def test_rejects_negative_probability(self):
        with pytest.raises(ModelError):
            Chance(((F(3, 2), Leaf(F(0))), (F(-1, 2), Leaf(F(1)))))

    @pytest.mark.parametrize(
        "probs, message",
        [
            ((F(3, 2), F(-1, 2)), "probability 3/2 outside [0, 1]"),
            ((F(1, 2), 2), "probability 2 outside [0, 1]"),
            ((F(1), F(-1, 3)), "probability -1/3 outside [0, 1]"),
        ],
    )
    def test_out_of_range_probability_message(self, probs, message):
        with pytest.raises(ModelError) as excinfo:
            Chance(tuple((p, Leaf(F(i))) for i, p in enumerate(probs)))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("probs", [(1,), (F(1, 2), "1/2"), (0.25, F(3, 4))])
    def test_probabilities_stored_as_fractions(self, probs):
        t = Chance(tuple((p, Leaf(F(i))) for i, p in enumerate(probs)))
        stored = [p for p, _ in t.branches]
        assert stored == [F(p) for p in probs]
        assert all(type(p) is F for p in stored)

    def test_leaf_utility_is_fraction(self):
        assert type(Leaf(3).utility) is F and Leaf(3).utility == 3
        q = F(-1, 2)
        assert Leaf(q).utility is q

    def test_penalty_factor_bounds(self):
        with pytest.raises(ModelError):
            PenaltySpec(F(0))
        with pytest.raises(ModelError):
            PenaltySpec(F(11, 10))


class TestClassicalValue:
    def test_option_a(self):
        assert nm_value(OPTION_A) == F(3, 5)

    def test_option_b_same_distribution(self):
        assert nm_value(OPTION_B) == F(3, 5)

    def test_leaf(self):
        assert nm_value(Leaf(F(7, 3))) == F(7, 3)


class TestPenalizedValue:
    def test_option_a(self):
        assert penalized_value(OPTION_A) == F(27, 50)

    def test_option_b_pays_twice(self):
        assert penalized_value(OPTION_B) == F(531, 1000)

    def test_degenerate_chance_node_not_penalized(self):
        t = Chance(((F(1), Leaf(F(2, 3))),))
        assert penalized_value(t) == F(2, 3)

    def test_zero_probability_branch_carries_no_uncertainty(self):
        t = Chance(((F(1), Leaf(F(1))), (F(0), Leaf(F(0)))))
        assert penalized_value(t) == F(1)

    def test_equal_utility_branches_still_penalized(self):
        # The penalty prices unresolved randomness, not outcome spread.
        t = Chance(((F(1, 2), Leaf(F(1))), (F(1, 2), Leaf(F(1)))))
        assert penalized_value(t) == F(9, 10)

    def test_factor_one_recovers_classical(self):
        assert penalized_value(OPTION_B, PenaltySpec(F(1))) == nm_value(OPTION_B)


class TestReduceCompound:
    def test_option_b_flattens(self):
        reduced = reduce_compound(OPTION_B)
        assert isinstance(reduced, Chance)
        assert outcome_distribution(reduced) == {F(1): F(3, 5), F(0): F(2, 5)}

    def test_option_a_unchanged_distribution(self):
        assert outcome_distribution(reduce_compound(OPTION_A)) == outcome_distribution(OPTION_A)

    def test_leaf_stays_leaf(self):
        assert reduce_compound(Leaf(F(4))) == Leaf(F(4))

    def test_single_outcome_collapses_to_leaf(self):
        t = Chance(((F(1, 2), Leaf(F(3))), (F(1, 2), Leaf(F(3)))))
        assert reduce_compound(t) == Leaf(F(3))


class TestCoherenceCheck:
    def test_canonical_pair_flags_violation(self):
        report = coherence_check(OPTION_A, OPTION_B)
        assert report.same_distribution is True
        assert report.penalized_left == F(27, 50)
        assert report.penalized_right == F(531, 1000)
        assert report.violation is True

    def test_reflexive_no_violation(self):
        report = coherence_check(OPTION_A, OPTION_A)
        assert report.violation is False

    def test_factor_one_no_violation(self):
        report = coherence_check(OPTION_A, OPTION_B, PenaltySpec(F(1)))
        assert report.same_distribution is True
        assert report.penalized_left == report.penalized_right == F(3, 5)
        assert report.violation is False


class TestRandomTreeProperties:
    def test_reduction_preserves_classical_value(self):
        rng = random.Random(23)
        for _ in range(500):
            t = random_tree(rng, 5)
            assert nm_value(reduce_compound(t)) == nm_value(t)

    def test_factor_one_equals_classical(self):
        rng = random.Random(29)
        for _ in range(500):
            t = random_tree(rng, 5)
            assert penalized_value(t, PenaltySpec(F(1))) == nm_value(t)

    def test_penalized_never_exceeds_classical_for_nonnegative_leaves(self):
        # With all leaf utilities >= 0, every penalty only shrinks mass.
        rng = random.Random(31)
        for _ in range(300):
            t = random_tree(rng, 4)
            if any(u < 0 for u in outcome_distribution(t)):
                continue
            assert penalized_value(t) <= nm_value(t)

    def test_reduced_tree_is_flat_with_unit_mass(self):
        rng = random.Random(37)
        for _ in range(300):
            reduced = reduce_compound(random_tree(rng, 5))
            if isinstance(reduced, Leaf):
                continue
            assert all(isinstance(sub, Leaf) for _, sub in reduced.branches)
            assert sum(p for p, _ in reduced.branches) == 1


# ---------------------------------------------------------------------------
# Reference oracle: the recursive walks that the one-walk kernel replaced.


def reference_nm_value(t):
    if isinstance(t, Leaf):
        return t.utility
    return sum((p * reference_nm_value(sub) for p, sub in t.branches), F(0))


def reference_penalized_value(t, p=PenaltySpec()):
    if isinstance(t, Leaf):
        return t.utility
    value = sum((q * reference_penalized_value(sub, p) for q, sub in t.branches), F(0))
    uncertain = sum(1 for q, _ in t.branches if q > 0) >= 2
    return p.factor * value if uncertain else value


def reference_outcome_distribution(t):
    masses = {}

    def walk(node, path_prob):
        if path_prob == 0:
            return
        if isinstance(node, Leaf):
            masses[node.utility] = masses.get(node.utility, F(0)) + path_prob
        else:
            for q, sub in node.branches:
                walk(sub, path_prob * q)

    walk(t, F(1))
    return masses


def reference_reduce_compound(t):
    masses = reference_outcome_distribution(t)
    if len(masses) == 1:
        (utility,) = masses
        return Leaf(utility)
    return Chance(tuple((p, Leaf(u)) for u, p in sorted(masses.items(), key=lambda kv: kv[0])))


def reference_coherence_check(t1, t2, p=PenaltySpec()):
    same = reference_outcome_distribution(t1) == reference_outcome_distribution(t2)
    pv1 = reference_penalized_value(t1, p)
    pv2 = reference_penalized_value(t2, p)
    return CoherenceReport(
        same_distribution=same,
        nm_left=reference_nm_value(t1),
        nm_right=reference_nm_value(t2),
        penalized_left=pv1,
        penalized_right=pv2,
        violation=same and pv1 != pv2,
    )


# Small ranges make repeated utilities and zero-weight branches common.
leaves = st.builds(Leaf, st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def chance_nodes(draw, children):
    subs = draw(st.lists(children, min_size=1, max_size=4))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(subs), max_size=len(subs)).filter(any))
    return Chance(tuple((F(r, sum(raw)), sub) for r, sub in zip(raw, subs)))


trees = st.recursive(leaves, chance_nodes, max_leaves=24)
penalties = st.builds(lambda k, n: PenaltySpec(F(k, n)), st.integers(1, 12), st.integers(12, 13))
penalties = st.one_of(st.just(PenaltySpec(F(1))), st.just(PenaltySpec()), penalties)


# Each edge case once for certain, whatever the generator draws.
ZERO_BRANCH = Chance(((F(1), Leaf(F(-2))), (F(0), OPTION_B)))
SINGLE_BRANCH = Chance(((F(1), Chance(((F(1), Leaf(F(3))),))),))
REPEATED = Chance(((F(1, 3), Leaf(F(-1, 2))), (F(2, 3), Chance(((F(1, 2), Leaf(F(-1, 2))),
                                                                (F(1, 2), Leaf(F(1))))))))


class TestKernelMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(trees, penalties)
    @example(Leaf(F(-3, 2)), PenaltySpec(F(1)))
    @example(ZERO_BRANCH, PenaltySpec())
    @example(SINGLE_BRANCH, PenaltySpec())
    @example(REPEATED, PenaltySpec(F(1)))
    @example(OPTION_B, PenaltySpec(F(1, 13)))
    def test_single_tree(self, t, p):
        assert nm_value(t) == reference_nm_value(t)
        assert penalized_value(t, p) == reference_penalized_value(t, p)
        dist = outcome_distribution(t)
        assert list(dist.items()) == list(reference_outcome_distribution(t).items())
        assert all(type(u) is F and type(m) is F for u, m in dist.items())
        assert reduce_compound(t) == reference_reduce_compound(t)

    @settings(max_examples=100, deadline=None)
    @given(trees, trees, penalties)
    def test_coherence_check(self, t1, t2, p):
        for left, right in ((t1, t2), (t1, reduce_compound(t1)), (t1, t1)):
            assert coherence_check(left, right, p) == reference_coherence_check(left, right, p)


# Each reader, and the recursive reference it must match, on a tree t, a
# second tree u (coherence_check only) and a penalty p.
READERS = {
    "nm_value": (lambda t, u, p: nm_value(t), lambda t, u, p: reference_nm_value(t)),
    "penalized_value": (
        lambda t, u, p: penalized_value(t, p),
        lambda t, u, p: reference_penalized_value(t, p),
    ),
    "outcome_distribution": (
        lambda t, u, p: list(outcome_distribution(t).items()),
        lambda t, u, p: list(reference_outcome_distribution(t).items()),
    ),
    "reduce_compound": (lambda t, u, p: reduce_compound(t), lambda t, u, p: reference_reduce_compound(t)),
    "coherence_check": (
        lambda t, u, p: coherence_check(t, u, p),
        lambda t, u, p: reference_coherence_check(t, u, p),
    ),
}


def fresh_option_b():
    """OPTION_B as a new object that no reader has seen."""
    inner = Chance(((F(1, 5), Leaf(F(1))), (F(4, 5), Leaf(F(0)))))
    return Chance(((F(1, 2), Leaf(F(1))), (F(1, 2), inner)))


class TestOneWalkPerTree:
    """A tree keeps the result of its first walk; every reader reads that."""

    @settings(max_examples=150, deadline=None)
    @given(
        trees,
        trees,
        penalties,
        st.lists(st.tuples(st.sampled_from(sorted(READERS)), st.booleans()), min_size=1, max_size=12),
    )
    def test_readers_in_any_order_match_reference(self, t1, t2, p, calls):
        for name, swap in calls:
            t, u = (t2, t1) if swap else (t1, t2)
            reader, reference = READERS[name]
            assert reader(t, u, p) == reference(t, u, p), name
            # A caller's edit to a returned distribution reaches no later reader.
            outcome_distribution(t).clear()

    def test_each_tree_object_is_walked_once(self, monkeypatch):
        walked = []
        walk = donoharm.lottery._walk
        monkeypatch.setattr(donoharm.lottery, "_walk", lambda t: walked.append(t) or walk(t))
        left, right = fresh_option_b(), random_tree(random.Random(41), 6)
        for _ in range(3):
            for name in READERS:
                for t, u in ((left, right), (right, left)):
                    READERS[name][0](t, u, PenaltySpec())
        assert len(walked) == 2 and walked[0] is left and walked[1] is right
        # The walk is kept per object, not per value, and not for subtrees.
        same, sub = fresh_option_b(), left.branches[1][1]
        assert same == left and nm_value(same) == F(3, 5)
        assert nm_value(sub) == penalized_value(sub, PenaltySpec(F(1))) == F(1, 5)
        assert len(walked) == 4 and walked[2] is same and walked[3] is sub

    def test_edits_to_a_returned_distribution_reach_no_reader(self):
        t = fresh_option_b()
        dist = outcome_distribution(t)
        dist[F(1)], dist[F(5)] = F(7), F(1)
        del dist[F(0)]
        assert outcome_distribution(t) == {F(1): F(3, 5), F(0): F(2, 5)}
        assert outcome_distribution(t) is not outcome_distribution(t)
        assert reduce_compound(t) == Chance(((F(2, 5), Leaf(F(0))), (F(3, 5), Leaf(F(1)))))
        assert nm_value(t) == F(3, 5) and penalized_value(t) == F(531, 1000)
        assert coherence_check(OPTION_A, t) == coherence_check(OPTION_A, fresh_option_b())

    def test_kept_walk_is_outside_equality_hash_and_repr(self):
        read, unread = fresh_option_b(), fresh_option_b()
        coherence_check(read, OPTION_A)
        assert "_walked" in vars(read) and "_walked" not in vars(unread)
        assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)


def reference_key(t):
    """The nested tuple the dataclass equality and hash of a tree compare."""
    if isinstance(t, Leaf):
        return ("leaf", t.utility)
    return ("chance", tuple((p, reference_key(sub)) for p, sub in t.branches))


def reference_repr(t):
    """The repr a dataclass would generate, written recursively."""
    if isinstance(t, Leaf):
        return f"Leaf(utility={t.utility!r})"
    return f"Chance(branches={tuple(ReprOf(p, sub) for p, sub in t.branches)!r})"


class ReprOf(tuple):
    """A (probability, subtree) pair whose repr uses reference_repr for the subtree."""

    def __new__(cls, p, sub):
        return super().__new__(cls, (p, sub))

    def __repr__(self):
        return f"({self[0]!r}, {reference_repr(self[1])})"


class TestEqualityAndRepr:
    @settings(max_examples=200, deadline=None)
    @given(trees, trees)
    @example(SINGLE_BRANCH, SINGLE_BRANCH)
    @example(OPTION_A, OPTION_B)
    @example(Leaf(F(1)), Chance(((F(1), Leaf(F(1))),)))
    @example(OPTION_A, Chance((*OPTION_A.branches, (F(0), Leaf(F(2))))))  # one more branch
    def test_match_dataclass_semantics(self, t1, t2):
        assert repr(t1) == reference_repr(t1)
        assert (t1 == t2) is (reference_key(t1) == reference_key(t2))
        assert (t1 != t2) is (reference_key(t1) != reference_key(t2))
        assert t1 == reduce_compound(t1) or reference_key(t1) != reference_key(reduce_compound(t1))
        rebuilt = eval(repr(t1), {"Leaf": Leaf, "Chance": Chance, "Fraction": F})
        assert rebuilt == t1 and hash(rebuilt) == hash(t1)

    def test_single_branch_repr(self):
        assert repr(Chance(((F(1), Leaf(F(2))),))) == (
            "Chance(branches=((Fraction(1, 1), Leaf(utility=Fraction(2, 1))),))"
        )

    def test_other_types_are_not_equal(self):
        assert Leaf(F(1)) != F(1)
        assert Leaf(F(1)) != ("leaf", F(1))
        assert OPTION_A != OPTION_A.branches


class TestDeepTrees:
    """A chain of chance nodes far deeper than the interpreter's recursion limit."""

    DEPTH = 3000
    FACTOR = F(9, 10)

    def chain(self):
        t = Leaf(F(0))
        for k in range(self.DEPTH):
            t = Chance(((F(1, 2), Leaf(F(k % 3))), (F(1, 2), t)))
        return t

    def expected(self):
        nm = pv = F(0)
        for k in range(self.DEPTH):
            nm = F(k % 3, 2) + nm / 2
            pv = self.FACTOR * (F(k % 3, 2) + pv / 2)
        masses = {}
        for k in reversed(range(self.DEPTH)):  # outermost node first
            u = F(k % 3)
            masses[u] = masses.get(u, F(0)) + F(1, 2 ** (self.DEPTH - k))
        masses[F(0)] += F(1, 2**self.DEPTH)
        return nm, pv, masses

    def test_every_reader(self):
        t = self.chain()
        nm, pv, masses = self.expected()
        p = PenaltySpec(self.FACTOR)
        assert nm_value(t) == nm
        assert penalized_value(t, p) == pv
        assert list(outcome_distribution(t).items()) == list(masses.items())
        reduced = reduce_compound(t)
        assert reduced == Chance(tuple((m, Leaf(u)) for u, m in sorted(masses.items())))
        report = coherence_check(t, reduced, p)
        assert report.same_distribution is True
        assert report.nm_left == report.nm_right == nm
        assert report.penalized_left == pv
        assert report.penalized_right == self.FACTOR * nm
        assert report.violation is True

    def test_equality_and_repr(self):
        t, same = self.chain(), self.chain()
        assert t == same and not t != same and hash(t) == hash(same)
        other = Leaf(F(1))  # differs only at the bottom of the chain
        for k in range(self.DEPTH):
            other = Chance(((F(1, 2), Leaf(F(k % 3))), (F(1, 2), other)))
        assert t != other and not t == other
        text = repr(t)
        assert text.startswith("Chance(branches=((Fraction(1, 2), Leaf(utility=Fraction(2, 1))), ")
        assert text.count("Chance(") == self.DEPTH and text.endswith(")" * 3 * self.DEPTH)
