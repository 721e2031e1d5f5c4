import dataclasses
import gc
import json
import re
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import donoharm.scenario
from donoharm import (
    AsymmetricUtilitySpec,
    Bernoulli,
    ChamberParameterization,
    Chance,
    CoherenceReport,
    Degenerate,
    Leaf,
    ModelError,
    OutcomeUtility,
    ParadoxReport,
    PenaltySpec,
    PopulationModel,
    ScenarioFile,
    SimulationEstimate,
    StrataDistribution,
    UnitType,
    Report,
    ScenarioError,
    as_population,
    builtin,
    builtin_scenarios,
    expand,
    load_scenario,
    nm_value,
    parse_scenario,
    pool,
    render_report,
    serialize_scenario,
    strata_from_independent_marginals,
)
from donoharm.engine import READINGS
from donoharm.scenario import (
    BUILTINS,
    KINDS,
    MAX_TREE_DEPTH,
    VARIATION_LOCI,
    LotteryPair,
    decimal_str,
)
from test_lottery import trees

F = Fraction

ROULETTE_DOC = """
{
  "name": "roulette",
  "kind": "chambers",
  "payload": {"phi0": "1/6", "phi1": "1/7"},
  "variation_locus": "within_unit"
}
"""

UTILITY_DOC = {
    "name": "x",
    "kind": "strata",
    "payload": {"s11": "1", "s00": "0", "s10": "0", "s01": "0"},
}


class TestParsing:
    def test_chambers_document(self):
        sc = parse_scenario(ROULETTE_DOC)
        assert sc.kind == "chambers"
        assert sc.payload.phi0_loaded_prob == F(1, 6)
        assert sc.payload.phi1_loaded_prob == F(1, 7)

    def test_decimal_string_rejected(self):
        doc = {"name": "x", "kind": "chambers", "payload": {"phi0": "0.5", "phi1": "1/7"}}
        with pytest.raises(ScenarioError, match="use exact fractions"):
            parse_scenario(doc)

    def test_float_literal_rejected(self):
        text = '{"name": "x", "kind": "chambers", "payload": {"phi0": 0.5, "phi1": "1/7"}}'
        with pytest.raises(ScenarioError, match="use exact fractions"):
            parse_scenario(text)

    def test_decimal_weight_rejected_with_path(self):
        doc = {
            "name": "x",
            "kind": "population",
            "payload": {
                "unit_types": [
                    {"label": "a", "weight": "0.5", "arm0": {"degenerate": 1}, "arm1": {"degenerate": 1}}
                ]
            },
        }
        with pytest.raises(ScenarioError, match=r"unit_types\[0\]\.weight"):
            parse_scenario(doc)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown kind"):
            parse_scenario({"name": "x", "kind": "mystery", "payload": {}})

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_scenario("{not json")

    def test_missing_field_reported_with_path(self):
        with pytest.raises(ScenarioError, match=r"\$\.payload.*phi1"):
            parse_scenario({"name": "x", "kind": "chambers", "payload": {"phi0": "1/6"}})

    def test_strata_sum_violation_surfaces(self):
        doc = {
            "name": "x",
            "kind": "strata",
            "payload": {"s11": "1/2", "s00": "1/2", "s10": "1/42", "s01": "0"},
        }
        with pytest.raises(ScenarioError, match="sum"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "dependence, message",
        [
            (None, "$.payload: unit-type weights sum to 1/2, expected exactly 1"),
            (
                {"s11": "1/4", "s00": "1/4", "s10": "1/4", "s01": "1/4"},
                "$.payload: unit-type weights sum to 1/2, expected exactly 1; "
                "unit type 't': cross-arm dependence marginal 1/2 "
                "does not match arm0 survival probability 1; "
                "unit type 't': cross-arm dependence marginal 1/2 "
                "does not match arm1 survival probability 1",
            ),
            (
                {"s11": "1", "s00": "0", "s10": "0"},
                "$.payload.unit_types[0].dependence: missing field(s) ['s01']",
            ),
            (
                {"s11": "1", "s00": "0", "s10": "0", "s01": "a"},
                "$.payload.unit_types[0].dependence.s01: 'a' is not 'a/b' or an integer; "
                "use exact fractions",
            ),
        ],
    )
    def test_invalid_population_messages(self, dependence, message):
        unit = {"label": "t", "weight": "1/2", "arm0": {"degenerate": 1}, "arm1": {"degenerate": 1}}
        if dependence is not None:
            unit["dependence"] = dependence
        doc = {"name": "x", "kind": "population", "payload": {"unit_types": [unit]}}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("name",), None, "$.name: expected a string, got NoneType"),
            (("description",), {"x": [1, 2]}, "$.description: expected a string, got dict"),
            (("payload", "arm0_label"), [1], "$.payload.arm0_label: expected a string, got list"),
            (("payload", "arm1_label"), 7, "$.payload.arm1_label: expected a string, got int"),
            (
                ("payload", "unit_types", 0, "label"),
                False,
                "$.payload.unit_types[0].label: expected a string, got bool",
            ),
        ],
    )
    def test_text_fields_must_be_strings(self, where, value, message):
        # Each was coerced by str() or, for description, kept as any JSON value.
        unit = {"label": "t", "weight": "1", "arm0": {"degenerate": 1}, "arm1": {"degenerate": 1}}
        doc = {"name": "x", "kind": "population", "payload": {"unit_types": [unit]}}
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "where, value, path",
        [
            (("payload", "arm0_label"), "old\nnew", "$.payload.arm0_label"),
            (("payload", "arm1_label"), "\ud800", "$.payload.arm1_label"),
            (("payload", "unit_types", 0, "label"), "t\x00", "$.payload.unit_types[0].label"),
            (("payload", "unit_types", 0, "label"), "\u2028", "$.payload.unit_types[0].label"),
        ],
    )
    def test_labels_must_be_printable(self, where, value, path):
        # A report may print a label on a line of its own, as it does a name.
        unit = {"label": "t", "weight": "1", "arm0": {"degenerate": 1}, "arm1": {"degenerate": 1}}
        doc = {"name": "x", "kind": "population", "payload": {"unit_types": [unit]}}
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == f"{path}: {value!r} is not printable text on one line"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"name": "a", "name": "b", "kind": "chambers", "payload": {"phi0": "0", "phi1": "0"}}',
             "name"),
            ('{"name": "x", "kind": "chambers", "payload": {"phi0": "1/2", "phi1": "0", "phi0": "1"}}',
             "phi0"),
            ('{"name": "x", "kind": "lottery_pair", "payload": {"left": {"leaf": "0"}, '
             '"right": {"leaf": "0", "leaf": "1"}, "penalty": "1"}}', "leaf"),
        ],
        ids=["top-level", "payload", "tree-node"],
    )
    def test_repeated_key_rejected(self, text, key):
        # json alone keeps a repeated key's last value: the file would mean one thing and say two.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert str(exc.value) == f"repeated key {key!r} in one object; each key may appear once"

    def test_lottery_pair_document(self):
        doc = {
            "name": "pair",
            "kind": "lottery_pair",
            "payload": {
                "left": {"chance": [["3/5", {"leaf": "1"}], ["2/5", {"leaf": "0"}]]},
                "right": {"leaf": "3/5"},
                "penalty": "9/10",
            },
        }
        sc = parse_scenario(doc)
        assert isinstance(sc.payload, LotteryPair)
        assert nm_value(sc.payload.left) == F(3, 5)

    def test_round_trip_identity(self):
        for sc in builtin_scenarios():
            assert parse_scenario(serialize_scenario(sc)) == sc

    def test_round_trip_through_json_text(self):
        sc = parse_scenario(ROULETTE_DOC)
        text = json.dumps(serialize_scenario(sc))
        assert parse_scenario(text) == sc

    def test_utility_and_asymmetry_overrides(self):
        doc = {
            "name": "x",
            "kind": "strata",
            "payload": {"s11": "1", "s00": "0", "s10": "0", "s01": "0"},
            "utility": {"u0": "0", "u1": "2"},
            "asymmetry": {"gain": "1/3", "loss": "2", "tie": "0"},
        }
        sc = parse_scenario(doc)
        assert sc.utility.u1 == 2
        assert sc.asymmetry.gain_weight == F(1, 3)
        assert sc.asymmetry.loss_weight == 2

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1/7", F(1, 7)),
            ("-3", F(-3)),
            ("-0", F(0)),
            ("006/014", F(3, 7)),
            ("1/7\n", F(1, 7)),  # `$` lets one trailing newline through
            ("\u0661/\u0667", F(1, 7)),  # Arabic-Indic digits match \d
            ("\uff13/\uff17", F(3, 7)),  # fullwidth digits match \d
        ],
    )
    def test_accepted_fraction_strings(self, text, value):
        doc = {**UTILITY_DOC, "utility": {"u0": text, "u1": "1"}}
        assert parse_scenario(doc).utility.u0 == value

    @pytest.mark.parametrize(
        "text",
        ["+1", " 1/7", "1/7 ", "1/7\n\n", "\n1/7", "1_0/7", "1/-7", "1/7/2", "/7", "1/",
         "1e3", "\u00b9/7", ""],
    )
    def test_rejected_fraction_strings(self, text):
        doc = {**UTILITY_DOC, "utility": {"u0": text, "u1": "1"}}
        with pytest.raises(ScenarioError, match=r"\$\.utility\.u0: .*use exact fractions"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "u0",
        ["1/" + "1" * 4001, "-" + "1" * 4001 + "/3", -(10**4000), 10**4001],
        ids=["long-denominator", "long-numerator", "long-negative-int", "long-int"],
    )
    def test_overlong_fraction_rejected_with_path(self, u0):
        doc = {**UTILITY_DOC, "utility": {"u0": u0, "u1": "1"}}
        with pytest.raises(ScenarioError, match=r"\$\.utility\.u0: .*4000 digits"):
            parse_scenario(doc)

    def test_longest_fraction_accepted(self):
        big = "9" * 4000
        doc = {**UTILITY_DOC, "utility": {"u0": f"-{big}/1{big[1:]}", "u1": 1 - 10**4000}}
        sc = parse_scenario(doc)
        assert sc.utility.u0 == F(-int(big), int("1" + big[1:]))
        assert sc.utility.u1 == 1 - 10**4000

    def test_overlong_integer_literal_rejected(self):
        text = '{"name": "x", "kind": "chambers", "payload": {"phi0": %s, "phi1": 0}}' % ("9" * 5000)
        with pytest.raises(ScenarioError, match="4000 digits"):
            parse_scenario(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_degenerate_rejected(self, value):
        doc = {
            "name": "x",
            "kind": "population",
            "payload": {
                "unit_types": [
                    {"label": "a", "weight": "1", "arm0": {"degenerate": value}, "arm1": {"degenerate": 1}}
                ]
            },
        }
        with pytest.raises(ScenarioError, match=r"unit_types\[0\]\.arm0\.degenerate"):
            parse_scenario(doc)

    @staticmethod
    def lottery_doc(left):
        return {
            "name": "pair",
            "kind": "lottery_pair",
            "payload": {"left": left, "right": {"leaf": "1"}, "penalty": "9/10"},
        }

    @staticmethod
    def chain(depth):
        node = {"leaf": "1"}
        for _ in range(depth):
            node = {"chance": [["1/2", {"leaf": "0"}], ["1/2", node]]}
        return node

    def test_tree_at_depth_limit_accepted(self):
        sc = parse_scenario(self.lottery_doc(self.chain(MAX_TREE_DEPTH)))
        assert nm_value(sc.payload.left) == F(1, 2**MAX_TREE_DEPTH)

    @pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 1200])
    def test_deep_tree_rejected(self, depth):
        with pytest.raises(ScenarioError, match=r"^\$\.payload\.left\.chance\[1\]\[1\].*"
                                                r"nested more than 300 chance nodes deep$"):
            parse_scenario(self.lottery_doc(self.chain(depth)))

    def test_tree_at_depth_limit_round_trips(self):
        sc = parse_scenario(self.lottery_doc(self.chain(MAX_TREE_DEPTH)))
        assert parse_scenario(json.dumps(serialize_scenario(sc))) == sc

    def test_tree_at_depth_limit_serializes_to_its_document(self):
        doc = self.lottery_doc(self.chain(MAX_TREE_DEPTH))
        assert serialize_scenario(parse_scenario(doc)) == doc

    def test_deep_api_tree_serializes(self):
        # Ten times deeper than a scenario file may nest; built through the API.
        depth = 10 * MAX_TREE_DEPTH
        t = Leaf(F(-1))
        for k in range(depth):
            t = Chance(((F(1, 2), t), (F(1, 2), Leaf(F(k)))))
        sc = ScenarioFile("deep", LotteryPair(t, Leaf(F(1)), PenaltySpec()))
        node = serialize_scenario(sc)["payload"]["left"]
        for k in reversed(range(depth)):  # outermost node first
            (p, node), (q, leaf) = node["chance"]
            assert (p, q, leaf) == ("1/2", "1/2", {"leaf": str(k)})
        assert node == {"leaf": "-1"}

    def test_deeply_nested_json_text_rejected(self):
        text = '{"name": "x", "kind": "strata", "payload": ' + "[" * 5000 + "]" * 5000 + "}"
        with pytest.raises(ScenarioError, match="nested too deeply"):
            parse_scenario(text)

    def test_repeated_string_checked_in_each_role(self):
        # "3/2" is a valid utility; the same string as a probability is not.
        left = {"chance": [["3/2", {"leaf": "3/2"}], ["-1/2", {"leaf": "3/2"}]]}
        with pytest.raises(ScenarioError, match=r"left\.chance: probability 3/2 outside"):
            parse_scenario(self.lottery_doc(left))
        left = {"chance": [["1/2", {"leaf": "3/2"}], ["1/2", {"leaf": "3/2"}]]}
        assert nm_value(parse_scenario(self.lottery_doc(left)).payload.left) == F(3, 2)

    def test_load_scenario_reads_utf8(self, tmp_path):
        path = tmp_path / "roulette.json"
        path.write_bytes(ROULETTE_DOC.replace('"roulette"', '"roulette \u2620"').encode("utf-8"))
        assert load_scenario(path).name == "roulette \u2620"

    def test_load_scenario_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"name":1}')
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_scenario(path)


def wide_population(n, arms, every_dependent=0):
    """A population document of n equal-weight unit types whose arms cycle
    through `arms`; every arm is a fresh dict, as a JSON decoder makes it.
    With every_dependent = k, each k-th type is a fair coin per arm with
    an independent recorded dependence."""
    types = []
    for i in range(n):
        t = {
            "label": f"t{i}",
            "weight": f"1/{n}",
            "arm0": dict(arms[i % len(arms)]),
            "arm1": dict(arms[(i + 1) % len(arms)]),
        }
        if every_dependent and i % every_dependent == 0:
            t["arm0"], t["arm1"] = {"bernoulli": "1/2"}, {"bernoulli": "1/2"}
            t["dependence"] = {"s11": "1/4", "s00": "1/4", "s10": "1/4", "s01": "1/4"}
        types.append(t)
    return {"name": "wide", "kind": "population", "payload": {"unit_types": types}}


def ternary_tree(depth):
    """A full ternary tree document `depth` chance nodes deep."""
    if depth == 0:
        return {"leaf": "1"}
    return {"chance": [["1/3", ternary_tree(depth - 1)] for _ in range(3)]}


ARMS = ({"degenerate": 1}, {"bernoulli": "1/2"}, {"bernoulli": "2/3"})


class TestInterning:
    """Within one document every distinct literal is parsed once and its arm
    or leaf shared; no parsed value outlives its document."""

    @pytest.mark.parametrize(
        "arm, message",
        [
            ({"degenerate": True}, "$.payload.unit_types[1].arm0.degenerate: expected 0 or 1, got True"),
            ({"bernoulli": True}, "$.payload.unit_types[1].arm0.bernoulli: expected a fraction, got a boolean"),
        ],
        ids=["degenerate", "bernoulli"],
    )
    def test_boolean_after_equal_integer_still_rejected(self, arm, message):
        # True == 1 and hash(True) == hash(1): an interned 1 must not answer for True.
        kind = next(iter(arm))
        doc = wide_population(2, ({kind: 1}, {"degenerate": 1}))
        doc["payload"]["unit_types"][1]["arm0"] = arm
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == message

    def test_boolean_leaf_after_integer_leaf_rejected(self):
        left = {"chance": [["1/2", {"leaf": 1}], ["1/2", {"leaf": True}]]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(TestParsing.lottery_doc(left))
        assert str(exc.value) == "$.payload.left.chance[1][1].leaf: expected a fraction, got a boolean"

    def test_integer_and_string_literals_give_equal_arms(self):
        doc = wide_population(2, ({"bernoulli": 1}, {"bernoulli": "1"}))
        t0, t1 = parse_scenario(doc).payload.unit_types
        assert t0.arm0 == t1.arm0 == t0.arm1 == Bernoulli(F(1))
        assert type(t0.arm0.survival_prob) is type(t1.arm0.survival_prob) is F

    def test_arms_shared_within_a_document(self):
        doc = wide_population(1000, ARMS)
        m = parse_scenario(json.dumps(doc)).payload
        assert len({id(arm) for t in m.unit_types for arm in (t.arm0, t.arm1)}) <= 3
        fresh = (lambda: Degenerate(1), lambda: Bernoulli(F(1, 2)), lambda: Bernoulli(F(2, 3)))
        units = (UnitType(f"t{i}", F(1, 1000), fresh[i % 3](), fresh[(i + 1) % 3]()) for i in range(1000))
        assert m == PopulationModel(tuple(units))

    def test_leaves_shared_within_a_document(self):
        sc = parse_scenario(TestParsing.lottery_doc(ternary_tree(4)))
        leaves = [sc.payload.left]
        while not isinstance(leaves[-1], Leaf):
            leaves = [sub for t in leaves for _, sub in t.branches]
        assert len(leaves) == 81
        assert len({id(leaf) for leaf in leaves} | {id(sc.payload.right)}) == 1

    def test_nothing_shared_between_documents(self):
        text = json.dumps(wide_population(30, ARMS))
        first, second = parse_scenario(text).payload, parse_scenario(text).payload
        assert first == second
        arms = [{id(a) for t in m.unit_types for a in (t.arm0, t.arm1)} for m in (first, second)]
        assert not arms[0] & arms[1]
        doc = TestParsing.lottery_doc(ternary_tree(1))
        first, second = parse_scenario(doc).payload, parse_scenario(doc).payload
        leaves = [{id(sub) for _, sub in p.left.branches} | {id(p.right)} for p in (first, second)]
        assert not leaves[0] & leaves[1]


@st.composite
def shared_populations(draw):
    """A population document whose weight and arm literals repeat, so a parse
    shares their values between unit types, with recorded dependences that
    may or may not match their arms and weights that may miss 1."""
    weights = draw(st.integers(1, 8).flatmap(simplex))
    if draw(st.booleans()):
        weights[draw(st.integers(0, len(weights) - 1))] /= 2
    arms = st.sampled_from(
        [{"degenerate": 0}, {"degenerate": 1}, {"bernoulli": 1}, {"bernoulli": "1/2"}, {"bernoulli": "2/3"}]
    )
    units = []
    for i, w in enumerate(weights):
        unit = {"label": f"t{i}", "weight": str(w), "arm0": draw(arms), "arm1": draw(arms)}
        if draw(st.booleans()):
            s11, s00, s10, s01 = draw(simplex(4))
            unit["dependence"] = {"s11": str(s11), "s00": str(s00), "s10": str(s10), "s01": str(s01)}
            if draw(st.booleans()):  # the arms the dependence's marginals give
                unit["arm0"], unit["arm1"] = {"bernoulli": str(s11 + s10)}, {"bernoulli": str(s11 + s01)}
        units.append(unit)
    return {"name": "shared", "kind": "population", "payload": {"unit_types": units}}


def fresh_units(doc):
    """The unit types of a population document, each built from new Fraction
    and arm objects, so no two types share a value."""

    def arm(obj):
        ((kind, value),) = obj.items()
        return Degenerate(value) if kind == "degenerate" else Bernoulli(F(str(value)))

    return tuple(
        UnitType(
            u["label"],
            F(u["weight"]),
            arm(u["arm0"]),
            arm(u["arm1"]),
            StrataDistribution(*(F(u["dependence"][k]) for k in ("s11", "s00", "s10", "s01")))
            if "dependence" in u
            else None,
        )
        for u in doc["payload"]["unit_types"]
    )


class TestParseWork:
    """What a parse computes does not depend on the values it shares, and how
    much Python work it does per unit type stays bounded."""

    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(shared_populations())
    def test_sums_do_not_depend_on_sharing(self, doc):
        try:
            fresh = PopulationModel(fresh_units(doc))
        except ModelError as exc:
            with pytest.raises(ScenarioError) as parsed:
                parse_scenario(json.dumps(doc))
            assert str(parsed.value) == f"$.payload: {exc}"
            return
        m = parse_scenario(json.dumps(doc)).payload
        assert m == fresh
        assert dataclasses.astuple(m.sums) == dataclasses.astuple(fresh.sums)

    def test_python_calls_per_unit_type(self):
        # Each unit type is read, checked and summed once: about 19 Python
        # calls per type, of which the JSON hooks make 3 or 4.  Reading each
        # ratio through Fraction's properties, or checking each label twice,
        # takes it past 30.
        n = 2000
        text = json.dumps(wide_population(n, ARMS, every_dependent=10))
        parse_scenario(text)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            parse_scenario(text)
        finally:
            sys.setprofile(None)
        assert calls <= 20 * n


def lottery_text(left, right=None):
    """A lottery_pair document's text; the right tree defaults to a leaf."""
    payload = {"left": left, "right": right or {"leaf": "1"}, "penalty": "9/10"}
    return json.dumps({"name": "pair", "kind": "lottery_pair", "payload": payload})


def chain(depth):
    """A lottery tree document that is a chain of `depth` chance nodes."""
    node = {"leaf": "1"}
    for _ in range(depth):
        node = {"chance": [["1/2", {"leaf": "0"}], ["1/2", node]]}
    return node


class TestCollectorPaused:
    """parse_scenario pauses the cyclic collector and then restores the state it found."""

    GOOD = {
        "lottery text": lottery_text(ternary_tree(3)),
        "population object": wide_population(50, ARMS, every_dependent=7),
        "built-in text": json.dumps(serialize_scenario(builtin("nm_incoherence"))),
    }
    BAD = {
        "malformed JSON": '{"name": "pair", "kind": ',
        "tree too deep": lottery_text(chain(MAX_TREE_DEPTH + 1)),
        "bad branch sum": lottery_text({"chance": [["1/2", {"leaf": "0"}], ["1/3", {"leaf": "1"}]]}),
    }

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        """The collector's state before the parse; re-enabled afterwards."""
        if not request.param:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("document", GOOD.values(), ids=GOOD.keys())
    def test_parse(self, collector, document):
        parse_scenario(document)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("text", BAD.values(), ids=BAD.keys())
    def test_rejected_document(self, collector, text):
        with pytest.raises(ScenarioError):
            parse_scenario(text)
        assert gc.isenabled() is collector

    def test_threads_parsing_at_once_leave_it_enabled(self):
        text, expected = self.GOOD["built-in text"], builtin("nm_incoherence")
        results = []

        def parse_many():
            results.extend(parse_scenario(text) == expected for _ in range(300))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse_many) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 1200
        assert gc.isenabled()

    def test_a_parse_waits_for_another_to_restore_it(self, monkeypatch):
        # Parse `first` holds in the middle, with the collector paused, until
        # parse `second` has read the collector's state, or for 0.5 s; `second`
        # then waits until `first` is done.  Were `second` to read while
        # `first` held, it would find the collector paused, and after `first`
        # restored it, pause it again and leave it paused.
        read, first_done = threading.Event(), threading.Event()
        parse = donoharm.scenario._parse_document

        def holding(document):
            if threading.current_thread().name == "first":
                read.wait(timeout=0.5)
            return parse(document)

        class Collector:
            enable, disable = gc.enable, gc.disable

            @staticmethod
            def isenabled():
                state = gc.isenabled()
                if threading.current_thread().name == "second":
                    read.set()
                    first_done.wait(timeout=5)
                return state

        monkeypatch.setattr(donoharm.scenario, "_parse_document", holding)
        monkeypatch.setattr(donoharm.scenario, "gc", Collector)
        text = self.GOOD["built-in text"]

        def first():
            parse_scenario(text)
            first_done.set()

        threads = [threading.Thread(target=first, name="first"),
                   threading.Thread(target=parse_scenario, args=(text,), name="second")]
        for thread in threads:
            thread.start()
            time.sleep(0.05)
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()

    def test_no_collection_runs_during_a_parse(self):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        text = lottery_text(ternary_tree(6), ternary_tree(6))
        gc.callbacks.append(count)
        try:
            parse_scenario(text)
            during = len(starts)
            json.loads(text)  # the decoder's allocations alone start collections
        finally:
            gc.callbacks.remove(count)
        assert during == 0 and len(starts) > 0


class TestErrorTextDeepInside:
    """Exact messages for faults deep inside large documents."""

    # The last chance node of a full ternary tree five chance nodes deep.
    DEEP = "$.payload.left.chance[2][1].chance[2][1].chance[2][1].chance[2][1].chance"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "arm1",
                {"bernoulli": "2/0"},
                "$.payload.unit_types[1999].arm1.bernoulli: zero denominator in '2/0'",
            ),
            ("arm0", {"flip": "1/2"}, "$.payload.unit_types[1999].arm0: unknown arm kind 'flip'"),
            (
                "arm0",
                {"bernoulli": "3/2"},
                "$.payload.unit_types[1999].arm0.bernoulli: probability 3/2 outside [0, 1]",
            ),
            (
                "dependence",
                {"s11": "1/4", "s00": "1/4", "s10": "1/4"},
                "$.payload.unit_types[1999].dependence: missing field(s) ['s01']",
            ),
            (
                "dependence",
                {"s11": "1/4", "s00": "1/4", "s10": "1/4", "s01": "1/4.0"},
                "$.payload.unit_types[1999].dependence.s01: '1/4.0' is not 'a/b' or an integer; "
                "use exact fractions",
            ),
            (
                "dependence",
                {"s11": "1/4", "s00": "1/4", "s10": "1/4", "s01": "1/2"},
                "$.payload.unit_types[1999].dependence: strata masses sum to 5/4, expected exactly 1",
            ),
            ("weight", "3/2", "$.payload.unit_types[1999].weight: probability 3/2 outside [0, 1]"),
        ],
    )
    def test_population(self, field, value, message):
        doc = wide_population(2000, ARMS, every_dependent=10)
        doc["payload"]["unit_types"][1999][field] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == message

    def test_arm_kind_named_like_a_value_already_read(self):
        # The weight "1/2" is read, and its probability kept, before arm0.
        unit = {"label": "a", "weight": "1/2", "arm0": {"probability": "1/2"}, "arm1": {"degenerate": 1}}
        doc = {"name": "x", "kind": "population", "payload": {"unit_types": [unit, {**unit, "arm0": {"degenerate": 0}}]}}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "$.payload.unit_types[0].arm0: unknown arm kind 'probability'"

    @pytest.mark.parametrize(
        "branch, message",
        [
            (["1/0", {"leaf": "1"}], DEEP + "[1][0]: zero denominator in '1/0'"),
            (["2/3", {"leaf": "1"}], DEEP + ": branch probabilities sum to 4/3, expected exactly 1"),
            (["3/2", {"leaf": "1"}], DEEP + ": probability 3/2 outside [0, 1]"),
            (
                ["1/3", {"leaf": "x"}],
                DEEP + "[1][1].leaf: 'x' is not 'a/b' or an integer; use exact fractions",
            ),
            (
                ["1/3", {"leaf": "1", "extra": "0"}],
                DEEP + "[1][1]: expected {'leaf': ...} or {'chance': [...]}",
            ),
        ],
    )
    def test_tree_five_chance_nodes_deep(self, branch, message):
        left = ternary_tree(5)
        node = left
        for _ in range(4):
            node = node["chance"][2][1]
        node["chance"][1] = branch
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(TestParsing.lottery_doc(left)))
        assert str(exc.value) == message


class TestBuiltins:
    def test_catalog_names(self):
        names = [sc.name for sc in builtin_scenarios()]
        assert names == [
            "russian_roulette",
            "snakebite",
            "ssn_divisibility",
            "migraine_mixed",
            "nm_incoherence",
        ]

    def test_catalog_keys_are_names(self):
        assert [builtin(name).name for name in BUILTINS] == list(BUILTINS)
        assert [builtin(name) for name in BUILTINS] == builtin_scenarios()

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_catalog_entry_is_canonical(self, name):
        # Each entry is the document serialize_scenario writes for it: fractions
        # in lowest terms, every key in the format's order.
        assert json.dumps(serialize_scenario(builtin(name))) == json.dumps(BUILTINS[name])

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="no built-in scenario named 'roulette'"):
            builtin("roulette")

    def test_every_builtin_validates_and_evaluates(self):
        for sc in builtin_scenarios():
            if sc.kind == "lottery_pair":
                assert nm_value(sc.payload.left) == nm_value(sc.payload.right)
                continue
            m = as_population(sc)
            m.sums.value()
            READINGS["deterministic"](m).sums.value()

    def test_ssn_matches_residue_enumeration(self):
        # Independent oracle: count residues 1..42 by divisibility pattern.
        counts = {"both": 0, "six_only": 0, "seven_only": 0, "neither": 0}
        for r in range(1, 43):
            by6, by7 = r % 6 == 0, r % 7 == 0
            key = (
                "both" if by6 and by7
                else "six_only" if by6
                else "seven_only" if by7
                else "neither"
            )
            counts[key] += 1
        assert counts == {"both": 1, "six_only": 6, "seven_only": 5, "neither": 30}
        view = as_population(builtin("ssn_divisibility")).sums.view()
        assert view.mass((1, 1)) == F(counts["neither"], 42)
        assert view.mass((0, 0)) == F(counts["both"], 42)
        assert view.mass((1, 0)) == F(counts["seven_only"], 42)
        assert view.mass((0, 1)) == F(counts["six_only"], 42)

    def test_ssn_and_roulette_same_strata_different_locus(self):
        ssn = builtin("ssn_divisibility")
        roulette = builtin("russian_roulette")
        view = as_population(ssn).sums.view()
        assert view == as_population(roulette).sums.view()
        assert ssn.variation_locus != roulette.variation_locus

    @pytest.mark.parametrize(
        "name, locus",
        [
            ("russian_roulette", "within_unit"),
            ("snakebite", "across_unit"),
            ("ssn_divisibility", "across_unit"),
            ("migraine_mixed", "mixed"),
        ],
    )
    def test_each_reading_locus(self, name, locus):
        # The paper's argument, read off the models: expanding puts all the
        # variation across units, pooling puts it within one.
        sc = builtin(name)
        m = as_population(sc)
        assert {reading: read(m).variation_locus for reading, read in READINGS.items()} == {
            "deterministic": "across_unit",
            "stochastic": "within_unit",
            "population": locus,
        }
        assert sc.variation_locus == locus

    def test_snakebite_deterministic_value(self):
        view = as_population(builtin("snakebite")).sums.view()
        assert expand(view).sums.value() == F(-1, 21)

    def test_snakebite_arms_are_degenerate(self):
        m = as_population(builtin("snakebite"))
        assert all(
            isinstance(t.arm0, Degenerate) and isinstance(t.arm1, Degenerate)
            for t in m.unit_types
        )

    def test_migraine_value(self):
        m = as_population(builtin("migraine_mixed"))
        assert m.sums.value() == F(1, 200)


class TestRendering:
    def _roulette_report(self):
        return Report(
            scenario="russian_roulette",
            variation_locus="within_unit",
            results={"deterministic": F(-1, 21), "stochastic": F(1, 84)},
        )

    def test_text_golden(self):
        expected = (
            "scenario: russian_roulette\n"
            "variation: within_unit\n"
            "deterministic: -1/21 (-0.047619047619047619048)\n"
            "stochastic: 1/84 (0.011904761904761904762)\n"
        )
        assert render_report(self._roulette_report(), "text") == expected

    def test_text_contains_required_lines(self):
        text = render_report(self._roulette_report(), "text")
        assert "deterministic: -1/21" in text
        assert "stochastic: 1/84" in text

    def test_structured_round_trips_fractions(self):
        doc = json.loads(render_report(self._roulette_report(), "structured"))
        assert F(doc["results"]["deterministic"]["fraction"]) == F(-1, 21)
        assert F(doc["results"]["stochastic"]["fraction"]) == F(1, 84)

    def test_empty_sections_omitted(self):
        doc = json.loads(render_report(Report(scenario="x", results={"a": F(0)}), "structured"))
        assert "simulation" not in doc and "paradox" not in doc and "lottery" not in doc

    def test_decimal_rendering_precision(self):
        assert decimal_str(F(1, 3)) == "0.33333333333333333333"
        assert decimal_str(F(-1, 21)).startswith("-0.047619047619047619")

    def test_unknown_format_rejected(self):
        message = "unknown report format 'yaml'; expected one of ('text', 'structured')"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            render_report(self._roulette_report(), "yaml")

    FULL_REPORT = Report(
        scenario="full",
        results={"deterministic": F(-1, 21), "classical": F(1, 42)},
        variation_locus="within_unit",
        simulation=SimulationEstimate(0.0125, 0.001, 1000, F(1, 84)),
        paradox=ParadoxReport("arm1_dominates", "stay", True, F(-1, 21), F(1, 84), "switch", False, "a note"),
        lottery=CoherenceReport(True, F(3, 5), F(3, 5), F(27, 50), F(531, 1000), True),
    )

    def test_every_section_text_golden(self):
        # No command builds a report with every section; this pins their order.
        expected = (
            "scenario: full\n"
            "variation: within_unit\n"
            "deterministic: -1/21 (-0.047619047619047619048)\n"
            "classical: 1/42 (0.023809523809523809524)\n"
            "simulation: mean=0.0125 stderr=0.001 replications=1000 target=1/84\n"
            "paradox: dominance=arm1_dominates recommendation=stay contradiction=true\n"
            "note: a note\n"
            "lottery: nm_left=3/5 nm_right=3/5 penalized_left=27/50 penalized_right=531/1000 "
            "violation=true\n"
        )
        assert render_report(self.FULL_REPORT, "text") == expected

    def test_every_section_structured_golden(self):
        expected = {
            "scenario": "full",
            "variation_locus": "within_unit",
            "results": {
                "deterministic": {"fraction": "-1/21", "decimal": "-0.047619047619047619048"},
                "classical": {"fraction": "1/42", "decimal": "0.023809523809523809524"},
            },
            "simulation": {"mean": 0.0125, "stderr": 0.001, "replications": 1000, "target": "1/84"},
            "paradox": {
                "dominance": "arm1_dominates",
                "recommendation": "stay",
                "contradiction": True,
                "deterministic_value": "-1/21",
                "stochastic_value": "1/84",
                "stochastic_recommendation": "switch",
                "stochastic_contradiction": False,
            },
            "lottery": {
                "same_distribution": True,
                "nm_left": "3/5",
                "nm_right": "3/5",
                "penalized_left": "27/50",
                "penalized_right": "531/1000",
                "violation": True,
            },
        }
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert render_report(self.FULL_REPORT, "structured") == text

    # The keys each section's text line shows, in order; structured output
    # has these and more.
    TEXT_KEYS = {
        "simulation": ["mean", "stderr", "replications", "target"],
        "paradox": ["dominance", "recommendation", "contradiction"],
        "lottery": ["nm_left", "nm_right", "penalized_left", "penalized_right", "violation"],
    }
    _fractions = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    _floats = st.floats(allow_nan=False, allow_infinity=False)
    _words = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)

    @given(
        st.none() | st.builds(SimulationEstimate, _floats, _floats, st.integers(0, 10**9), _fractions),
        st.none() | st.builds(
            ParadoxReport, _words, _words, st.booleans(), _fractions, _fractions, _words,
            st.booleans(), _words,
        ),
        st.none() | st.builds(
            CoherenceReport, st.booleans(), _fractions, _fractions, _fractions, _fractions, st.booleans()
        ),
    )
    def test_text_lines_agree_with_structured(self, simulation, paradox, lottery):
        r = Report("x", simulation=simulation, paradox=paradox, lottery=lottery)
        doc = json.loads(render_report(r, "structured"))
        lines = render_report(r, "text").splitlines()
        for section, keys in self.TEXT_KEYS.items():
            found = [line[len(section) + 2 :] for line in lines if line.startswith(f"{section}: ")]
            assert len(found) == (section in doc)
            for line in found:
                pairs = [pair.split("=", 1) for pair in line.split(" ")]
                assert [k for k, _ in pairs] == keys
                for k, v in pairs:
                    value = doc[section][k]
                    assert v == (("true" if value else "false") if isinstance(value, bool) else str(value))


class TestCanonicalization:
    def test_chambers_population_is_single_unit(self):
        m = as_population(builtin("russian_roulette"))
        assert len(m.unit_types) == 1
        t = m.unit_types[0]
        assert t.arm0.survival_prob == F(5, 6)
        assert t.arm1.survival_prob == F(6, 7)
        assert t.cross_arm_dependence == strata_from_independent_marginals(F(5, 6), F(6, 7))

    @settings(deadline=None)
    @given(st.fractions(0, 1), st.fractions(0, 1))
    @example(F(0), F(0))
    @example(F(0), F(1))
    @example(F(1), F(0))
    @example(F(1), F(1))
    def test_chambers_reading_is_the_pooled_independent_law(self, a, b):
        # Two independent chamber draws: the joint law is the product of the
        # survival marginals 1 - a and 1 - b, read stochastically.
        m = as_population(ScenarioFile("c", ChamberParameterization(a, b)))
        expected = pool(expand(strata_from_independent_marginals(1 - a, 1 - b)))
        assert m == expected
        assert m.sums == expected.sums

    def test_lottery_has_no_population(self):
        with pytest.raises(ScenarioError):
            as_population(builtin("nm_incoherence"))


class TestScenarioFileConstruction:
    PAYLOADS = {
        "strata": StrataDistribution(F(1), F(0), F(0), F(0)),
        "population": builtin("snakebite").payload,
        "chambers": ChamberParameterization(F(1, 6), F(1, 7)),
        "lottery_pair": builtin("nm_incoherence").payload,
    }

    def test_every_kind_has_a_sample_payload(self):
        assert tuple(self.PAYLOADS) == KINDS == ("strata", "population", "chambers", "lottery_pair")

    def test_fields(self):
        # kind and variation_locus are derived from the payload, not stored.
        names = [f.name for f in dataclasses.fields(ScenarioFile)]
        assert names == ["name", "payload", "utility", "asymmetry", "description"]
        assert isinstance(ScenarioFile.kind, property)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_is_read_off_the_payload(self, kind):
        payload = self.PAYLOADS[kind]
        sc = ScenarioFile("x", payload)
        assert sc.payload is payload
        assert sc.kind == kind
        assert serialize_scenario(sc)["kind"] == kind

    @pytest.mark.parametrize("payload", [5, {}, None, "strata", OutcomeUtility()])
    def test_non_payload_rejected(self, payload):
        message = (
            "payload must be one of StrataDistribution, PopulationModel, "
            f"ChamberParameterization, LotteryPair; got {type(payload).__name__}"
        )
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioFile("x", payload)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        ("attr", "value", "message"),
        [
            ("utility", (0, 1), "utility must be OutcomeUtility or None; got tuple"),
            (
                "utility",
                AsymmetricUtilitySpec(),
                "utility must be OutcomeUtility or None; got AsymmetricUtilitySpec",
            ),
            (
                "asymmetry",
                OutcomeUtility(),
                "asymmetry must be AsymmetricUtilitySpec or None; got OutcomeUtility",
            ),
            ("asymmetry", {"gain": "1/2"}, "asymmetry must be AsymmetricUtilitySpec or None; got dict"),
            ("description", 5, "description must be str or None; got int"),
            ("description", b"d", "description must be str or None; got bytes"),
        ],
    )
    def test_optional_field_of_the_wrong_type_rejected(self, attr, value, message):
        # Each would otherwise build a scenario serialize_scenario cannot write
        # as a document that parse_scenario reads back.
        with pytest.raises(ScenarioError) as excinfo:
            dataclasses.replace(builtin("snakebite"), **{attr: value})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("other", KINDS)
    def test_payload_must_match_kind(self, kind, other):
        # A kind lives only in a document, where it picks the payload reader;
        # no two kinds share a required payload key.
        doc = serialize_scenario(ScenarioFile("x", self.PAYLOADS[other]))
        doc["kind"] = kind
        if kind == other:
            assert parse_scenario(doc).payload == self.PAYLOADS[other]
            return
        required = sorted(donoharm.scenario._PAYLOADS[kind].keys[0])
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == f"$.payload: missing field(s) {required}"

    @pytest.mark.parametrize("kind", ["lottery", "", None, ["strata"]])
    def test_unknown_kind_rejected(self, kind):
        doc = {"name": "x", "kind": kind, "payload": {"s11": "1", "s00": "0", "s10": "0", "s01": "0"}}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == f"$.kind: unknown kind {kind!r}; expected one of {KINDS}"

    @pytest.mark.parametrize("name", ["x\nstochastic: 1/84 (0.0119)", "a\rb", "\x1b[2J", "\u2028", None])
    def test_name_must_be_printable(self, name):
        # The text report prints the name on a line of its own.
        message = f"^name {re.escape(repr(name))} is not printable text on one line$"
        with pytest.raises(ScenarioError, match=message):
            ScenarioFile(name, self.PAYLOADS["strata"])

    @pytest.mark.parametrize(
        "field, where",
        [
            ("arm0_label", "payload.arm0_label"),
            ("arm1_label", "payload.arm1_label"),
            ("label", "payload.unit_types[1].label"),
        ],
    )
    @pytest.mark.parametrize("label", ["a\nb", "\ud800", None])
    def test_labels_must_be_printable(self, field, where, label):
        # Refused where the scenario is built, so serialize_scenario never
        # writes a label parse_scenario would refuse.
        population = self.PAYLOADS["population"]
        if field == "label":
            units = list(population.unit_types)
            units[1] = dataclasses.replace(units[1], label=label)
            population = dataclasses.replace(population, unit_types=tuple(units))
        else:
            population = dataclasses.replace(population, **{field: label})
        message = f"^{re.escape(where)} {re.escape(repr(label))} is not printable text on one line$"
        with pytest.raises(ScenarioError, match=message):
            ScenarioFile("x", population)

    @pytest.mark.parametrize("locus", ["bogus", "", "Mixed", ["mixed"]])
    def test_unknown_variation_locus_rejected(self, locus):
        doc = json.loads(ROULETTE_DOC)
        doc["variation_locus"] = locus
        message = f"$.variation_locus: {locus!r} not in ('within_unit', 'across_unit', 'mixed')"
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == message

    # A payload whose model has each locus: strata at s11 = 1 has no variation.
    LOCUS_SAMPLES = {
        None: ScenarioFile("x", PAYLOADS["strata"]),
        "within_unit": ScenarioFile("x", PAYLOADS["chambers"]),
        "across_unit": ScenarioFile("x", PAYLOADS["population"]),
        "mixed": builtin("migraine_mixed"),
    }

    @pytest.mark.parametrize("locus", (None,) + VARIATION_LOCI)
    def test_every_accepted_locus_round_trips(self, locus):
        sc = self.LOCUS_SAMPLES[locus]
        assert sc.variation_locus == locus
        doc = serialize_scenario(sc)
        assert "variation_locus" not in doc
        assert parse_scenario(json.dumps(doc)) == sc
        for declared in VARIATION_LOCI:
            doc["variation_locus"] = declared
            if declared == locus:
                assert parse_scenario(json.dumps(doc)) == sc
                continue
            reason = f"the model's variation is {locus}" if locus else "the model has no variation"
            with pytest.raises(ScenarioError) as excinfo:
                parse_scenario(json.dumps(doc))
            assert str(excinfo.value) == f"$.variation_locus: declared {declared!r}, but {reason}"

    @pytest.mark.parametrize("declared", VARIATION_LOCI)
    def test_lottery_pair_declares_no_locus(self, declared):
        sc = ScenarioFile("x", self.PAYLOADS["lottery_pair"])
        assert sc.variation_locus is None
        doc = serialize_scenario(sc)
        assert parse_scenario(doc) == sc
        doc["variation_locus"] = declared
        message = (
            f"$.variation_locus: declared {declared!r}, "
            "but a lottery_pair scenario has no population model"
        )
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == message

    def test_parser_message_for_unknown_locus_unchanged(self):
        doc = serialize_scenario(ScenarioFile("x", self.PAYLOADS["strata"]))
        doc["variation_locus"] = "bogus"
        message = "$.variation_locus: 'bogus' not in ('within_unit', 'across_unit', 'mixed')"
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == message


class TestFormatTable:
    """The one table that both the parser and the serializer read."""

    OBJECTS = [v for v in vars(donoharm.scenario).values() if isinstance(v, donoharm.scenario._Object)]

    def test_table_describes_every_value_type(self):
        assert {o.cls for o in self.OBJECTS} == {
            StrataDistribution, ChamberParameterization, UnitType, PopulationModel, LotteryPair,
            OutcomeUtility, AsymmetricUtilitySpec,
        }

    @pytest.mark.parametrize("table", OBJECTS, ids=lambda o: o.cls.__name__)
    def test_attributes_are_the_init_fields(self, table):
        # read passes the fields positionally, so each init field appears once.
        attrs = sorted(f.attr for f in table.fields)
        assert attrs == sorted(f.name for f in dataclasses.fields(table.cls) if f.init)
        assert len({f.key for f in table.fields}) == len(attrs)

    def test_payload_kinds(self):
        payloads = donoharm.scenario._PAYLOADS
        assert tuple(payloads) == KINDS
        samples = TestScenarioFileConstruction.PAYLOADS
        assert {kind: o.cls for kind, o in payloads.items()} == {k: type(p) for k, p in samples.items()}

    def test_key_order(self):
        # TestErrorBoundary in test_cli.py mutates documents by walking them in key order.
        joint = StrataDistribution(F(1, 6), F(1, 3), F(1, 3), F(1, 6))
        unit = UnitType("t", F(1), Bernoulli(F(1, 2)), Bernoulli(F(1, 3)), joint)
        sc = ScenarioFile(
            "x", PopulationModel((unit,), "a", "b"), OutcomeUtility(F(0), F(1)),
            AsymmetricUtilitySpec(), "d",
        )
        assert json.dumps(serialize_scenario(sc)) == (
            '{"name": "x", "kind": "population", "payload": {"arm0_label": "a", "arm1_label": "b", '
            '"unit_types": [{"label": "t", "weight": "1", "arm0": {"bernoulli": "1/2"}, '
            '"arm1": {"bernoulli": "1/3"}, '
            '"dependence": {"s11": "1/6", "s00": "1/3", "s10": "1/3", "s01": "1/6"}}]}, '
            '"utility": {"u0": "0", "u1": "1"}, "asymmetry": {"gain": "1/2", "loss": "1", "tie": "0"}, '
            '"description": "d"}'
        )

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 3
        for block in blocks:
            sc = parse_scenario(block)
            assert parse_scenario(serialize_scenario(sc)) == sc


# Scenario generators for the round-trip property: every field the
# serialiser writes, with small values so exact ties and zeros are common.
fractions = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
probabilities = st.integers(1, 6).flatmap(lambda d: st.builds(F, st.integers(0, d), st.just(d)))
PRINTABLE = st.characters(exclude_categories=("C", "Zl", "Zp", "Zs"), include_characters=" ")
#: A report prints names and labels on lines of their own, so the format takes
#: printable text only.
labels = st.text(PRINTABLE, max_size=6)


@st.composite
def simplex(draw, size):
    """`size` exact probabilities summing to 1, zeros included."""
    raw = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
    return [F(r, sum(raw)) for r in raw]


@st.composite
def unit_types(draw, weight):
    label = draw(labels)
    if draw(st.booleans()):
        joint = StrataDistribution(*draw(simplex(4)))
        p0, p1 = joint.mass_11 + joint.mass_10, joint.mass_11 + joint.mass_01
        return UnitType(label, weight, Bernoulli(p0), Bernoulli(p1), joint)
    arms = st.one_of(st.builds(Degenerate, st.integers(0, 1)), st.builds(Bernoulli, probabilities))
    return UnitType(label, weight, draw(arms), draw(arms))


@st.composite
def payloads(draw, kind):
    if kind == "chambers":
        return ChamberParameterization(draw(probabilities), draw(probabilities))
    if kind == "strata":
        return StrataDistribution(*draw(simplex(4)))
    if kind == "population":
        weights = draw(st.integers(1, 4).flatmap(simplex))
        return PopulationModel(
            tuple(draw(unit_types(w)) for w in weights), draw(labels), draw(labels)
        )
    factor = draw(st.integers(1, 10).map(lambda k: F(k, 10)))
    return LotteryPair(draw(trees), draw(trees), PenaltySpec(factor))


@st.composite
def scenarios(draw):
    positive = st.builds(F, st.integers(1, 5), st.integers(1, 4))
    return ScenarioFile(
        name=draw(st.text(PRINTABLE, max_size=8)),
        payload=draw(st.sampled_from(KINDS).flatmap(payloads)),
        utility=draw(st.none() | st.builds(OutcomeUtility, fractions, fractions)),
        asymmetry=draw(
            st.none() | st.builds(AsymmetricUtilitySpec, positive, positive, fractions)
        ),
        description=draw(st.none() | st.text(max_size=12)),
    )


class TestRoundTrip:
    # At least 300 examples; more under a profile that asks for more (ci).
    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(scenarios())
    def test_serialize_then_parse_is_identity(self, sc):
        assert parse_scenario(json.dumps(serialize_scenario(sc))) == sc
        assert parse_scenario(serialize_scenario(sc)) == sc
        # A document that also declares the derived locus reads back the same.
        if sc.variation_locus is not None:
            claimed = {**serialize_scenario(sc), "variation_locus": sc.variation_locus}
            assert parse_scenario(json.dumps(claimed)) == sc
