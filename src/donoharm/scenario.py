"""Scenario files, the built-in catalog, and report rendering.

Scenario files are JSON.  Every numeric literal must be an exact fraction
string "a/b" or an integer; decimals are rejected outright, because a silent
float conversion would break the exact-equality guarantees downstream.
"""

from __future__ import annotations

import gc
import json
import re
import threading
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Union

from .engine import ParadoxReport, expand, pool
from .lottery import Chance, CoherenceReport, Leaf, LotteryTree, PenaltySpec
from .model import (
    ArmOutcomeModel,
    AsymmetricUtilitySpec,
    Bernoulli,
    Degenerate,
    ModelError,
    OutcomeUtility,
    PopulationModel,
    StrataDistribution,
    UnitType,
    rational,
)
from .simulate import SimulationEstimate
from .strata import ChamberParameterization, strata_from_chambers

VARIATION_LOCI = ("within_unit", "across_unit", "mixed")


class ScenarioError(ValueError):
    """Malformed or invalid scenario document; message carries the field path."""


@dataclass(frozen=True)
class LotteryPair:
    left: LotteryTree
    right: LotteryTree
    penalty: PenaltySpec


Payload = Union[StrataDistribution, PopulationModel, ChamberParameterization, LotteryPair]

#: Each scenario kind and the payload type it carries, in listing order.
_PAYLOAD_TYPES: dict[str, type] = {
    "strata": StrataDistribution,
    "population": PopulationModel,
    "chambers": ChamberParameterization,
    "lottery_pair": LotteryPair,
}
KINDS = tuple(_PAYLOAD_TYPES)


@dataclass(frozen=True)
class ScenarioFile:
    name: str
    kind: str
    payload: Payload
    utility: OutcomeUtility | None = None
    asymmetry: AsymmetricUtilitySpec | None = None
    variation_locus: str | None = None
    description: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        expected = _PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, expected):
            raise ScenarioError(
                f"a {self.kind} scenario needs a {expected.__name__} payload, "
                f"got {type(self.payload).__name__}"
            )
        if self.variation_locus is not None and self.variation_locus not in VARIATION_LOCI:
            raise ScenarioError(
                f"unknown variation_locus {self.variation_locus!r}; expected one of {VARIATION_LOCI}"
            )


# ---------------------------------------------------------------------------
# parsing

_FRACTION_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")

#: Longest numerator or denominator accepted, in digits.  Python refuses to
#: convert decimal strings of more than 4,300 digits (CVE-2020-10735; on 3.10
#: only from 3.10.7), so the cap sits below that on every supported version.
MAX_FRACTION_DIGITS = 4000
_INT_LIMIT = 10**MAX_FRACTION_DIGITS


#: Deepest lottery tree accepted, in nested chance nodes.  Scenario text
#: nests three JSON containers per tree level, and the json module stops at
#: about 1,000, so deeper trees could not come from a scenario file anyway.
MAX_TREE_DEPTH = 300

#: Where a value sits in a document: a root such as "$.payload", or a pair of
#: a parent path and a field name or list index.  Its text, such as
#: "$.payload.unit_types[3].arm0", is built only when an error is raised.
_FieldPath = Union[str, tuple]


def _error(path: _FieldPath, message: str) -> ScenarioError:
    steps = []
    while type(path) is tuple:
        path, step = path
        steps.append(f"[{step}]" if type(step) is int else f".{step}")
    return ScenarioError(f"{path}{''.join(reversed(steps))}: {message}")


def _too_long(path: _FieldPath) -> ScenarioError:
    return _error(path, f"numerator or denominator has more than {MAX_FRACTION_DIGITS} digits")


#: Values already parsed in one document: each Fraction by its string, and
#: each arm and leaf, immutable and so shared, by the (key, literal) pair of
#: its one-field object.  A pair is stored once its literal has been checked,
#: so only as a str or int; it is looked up only for a str or int, since a
#: bool would find the pair of the int it equals.
_Memo = dict[Any, Any]
_LITERALS = (str, int)


def _fraction(value: Any, path: _FieldPath, memo: _Memo) -> Fraction:
    if type(value) is str and value in memo:
        return memo[value]
    if isinstance(value, bool):
        raise _error(path, "expected a fraction, got a boolean")
    if isinstance(value, int):
        if not -_INT_LIMIT < value < _INT_LIMIT:
            raise _too_long(path)
        return Fraction(value)
    if isinstance(value, float):
        raise _error(path, f"decimal literal {value!r} rejected; use exact fractions")
    if isinstance(value, str):
        match = _FRACTION_RE.match(value)
        if match:
            num, den = match.groups("1")
            if len(num.lstrip("-")) > MAX_FRACTION_DIGITS or len(den) > MAX_FRACTION_DIGITS:
                raise _too_long(path)
            try:
                q = memo[value] = Fraction(int(num), int(den))
            except ZeroDivisionError:
                raise _error(path, f"zero denominator in {value!r}") from None
            return q
        raise _error(path, f"{value!r} is not 'a/b' or an integer; use exact fractions")
    raise _error(path, f"expected a fraction string or integer, got {type(value).__name__}")


def _fields(required: str, optional: str = "") -> tuple[frozenset[str], frozenset[str]]:
    """An object's required fields and every field it accepts."""
    keys = frozenset(required.split())
    return keys, keys | frozenset(optional.split())


_SCENARIO_FIELDS = _fields("name kind payload", "utility asymmetry variation_locus description")
_UTILITY_FIELDS = _fields("u0 u1")
_ASYMMETRY_FIELDS = _fields("gain loss", "tie")
_CHAMBERS_FIELDS = _fields("phi0 phi1")
_POPULATION_FIELDS = _fields("unit_types", "arm0_label arm1_label")
_UNIT_FIELDS = _fields("label weight arm0 arm1", "dependence")
_LOTTERY_FIELDS = _fields("left right penalty")


def _require(obj: Any, fields: tuple[frozenset[str], frozenset[str]], path: _FieldPath) -> None:
    if not isinstance(obj, dict):
        raise _error(path, "expected an object")
    keys, accepted = fields
    if keys <= obj.keys() <= accepted:
        return
    missing = keys - obj.keys()
    if missing:
        raise _error(path, f"missing field(s) {sorted(missing)}")
    raise _error(path, f"unknown field(s) {sorted(obj.keys() - accepted)}")


def _parse_arm(obj: Any, path: _FieldPath, memo: _Memo) -> ArmOutcomeModel:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _error(path, "expected {'degenerate': 0|1} or {'bernoulli': 'a/b'}")
    ((key, value),) = obj.items()
    if type(value) in _LITERALS and (key, value) in memo:
        return memo[key, value]
    if key == "degenerate":
        if isinstance(value, bool) or value not in (0, 1):
            raise _error((path, key), f"expected 0 or 1, got {value!r}")
        return memo.setdefault((key, value), Degenerate(value))
    if key == "bernoulli":
        return memo.setdefault((key, value), Bernoulli(_fraction(value, (path, key), memo)))
    raise _error(path, f"unknown arm kind {key!r}")


def _parse_tree(obj: Any, path: _FieldPath, memo: _Memo, depth: int = 0) -> LotteryTree:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _error(path, "expected {'leaf': ...} or {'chance': [...]}")
    ((key, value),) = obj.items()
    if key == "leaf":
        if type(value) in _LITERALS and (key, value) in memo:
            return memo[key, value]
        return memo.setdefault((key, value), Leaf(_fraction(value, (path, key), memo)))
    if key == "chance":
        if depth == MAX_TREE_DEPTH:
            raise _error(path, f"lottery tree nested more than {MAX_TREE_DEPTH} chance nodes deep")
        path = (path, key)
        if not isinstance(value, list):
            raise _error(path, "expected a list of [prob, subtree] pairs")
        branches = []
        for i, item in enumerate(value):
            if not isinstance(item, list) or len(item) != 2:
                raise _error((path, i), "expected a [prob, subtree] pair")
            prob = _fraction(item[0], ((path, i), 0), memo)
            branches.append((prob, _parse_tree(item[1], ((path, i), 1), memo, depth + 1)))
        try:
            return Chance(tuple(branches))
        except ModelError as exc:
            raise _error(path, str(exc)) from None
    raise _error(path, f"unknown tree node {key!r}")


def _parse_payload(kind: str, obj: Any, path: str, memo: _Memo) -> Payload:
    try:
        if kind == "chambers":
            _require(obj, _CHAMBERS_FIELDS, path)
            return ChamberParameterization(
                _fraction(obj["phi0"], (path, "phi0"), memo),
                _fraction(obj["phi1"], (path, "phi1"), memo),
            )
        if kind == "strata":
            return _parse_strata(obj, path, memo)
        if kind == "population":
            _require(obj, _POPULATION_FIELDS, path)
            if not isinstance(obj["unit_types"], list) or not obj["unit_types"]:
                raise _error((path, "unit_types"), "expected a non-empty list")
            units = []
            for i, t in enumerate(obj["unit_types"]):
                tpath = ((path, "unit_types"), i)
                _require(t, _UNIT_FIELDS, tpath)
                dep = None
                if "dependence" in t:
                    dep = _parse_strata(t["dependence"], (tpath, "dependence"), memo)
                units.append(
                    UnitType(
                        label=str(t["label"]),
                        weight=_fraction(t["weight"], (tpath, "weight"), memo),
                        arm0=_parse_arm(t["arm0"], (tpath, "arm0"), memo),
                        arm1=_parse_arm(t["arm1"], (tpath, "arm1"), memo),
                        cross_arm_dependence=dep,
                    )
                )
            return PopulationModel(
                unit_types=tuple(units),
                arm0_label=str(obj.get("arm0_label", "control")),
                arm1_label=str(obj.get("arm1_label", "treatment")),
            )
        # parse_scenario has rejected every other kind
        _require(obj, _LOTTERY_FIELDS, path)
        return LotteryPair(
            left=_parse_tree(obj["left"], (path, "left"), memo),
            right=_parse_tree(obj["right"], (path, "right"), memo),
            penalty=PenaltySpec(_fraction(obj["penalty"], (path, "penalty"), memo)),
        )
    except ModelError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


_PARSING = threading.Lock()


def parse_scenario(document: Union[str, dict]) -> ScenarioFile:
    """Parse a scenario from JSON text or an already-loaded object, with the
    cyclic garbage collector paused (a parse builds only acyclic values) and
    then left as it was found.  Parses run one at a time, so none restores
    the collector while another has it paused."""
    with _PARSING:
        was = gc.isenabled()
        gc.disable()
        try:
            return _parse_document(document)
        finally:
            if was:
                gc.enable()


def _parse_document(document: Union[str, dict]) -> ScenarioFile:
    if isinstance(document, str):
        try:
            # parse_float trap: reject 0.5 etc. before it silently becomes a float
            obj = json.loads(document, parse_float=_reject_float, parse_int=_parse_int)
        except ScenarioError:
            raise
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"malformed JSON: {exc}") from None
        except RecursionError:
            raise ScenarioError("JSON nested too deeply to parse") from None
    else:
        obj = document
    memo: _Memo = {}
    _require(obj, _SCENARIO_FIELDS, "$")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ScenarioError(f"$.kind: unknown kind {kind!r}; expected one of {KINDS}")
    utility = None
    if "utility" in obj:
        _require(obj["utility"], _UTILITY_FIELDS, "$.utility")
        utility = OutcomeUtility(
            _fraction(obj["utility"]["u0"], "$.utility.u0", memo),
            _fraction(obj["utility"]["u1"], "$.utility.u1", memo),
        )
    asymmetry = None
    if "asymmetry" in obj:
        _require(obj["asymmetry"], _ASYMMETRY_FIELDS, "$.asymmetry")
        try:
            asymmetry = AsymmetricUtilitySpec(
                gain_weight=_fraction(obj["asymmetry"]["gain"], "$.asymmetry.gain", memo),
                loss_weight=_fraction(obj["asymmetry"]["loss"], "$.asymmetry.loss", memo),
                tie_value=_fraction(obj["asymmetry"].get("tie", 0), "$.asymmetry.tie", memo),
            )
        except ModelError as exc:
            raise ScenarioError(f"$.asymmetry: {exc}") from None
    locus = obj.get("variation_locus")
    if locus is not None and locus not in VARIATION_LOCI:
        raise ScenarioError(
            f"$.variation_locus: {locus!r} not in {VARIATION_LOCI}"
        )
    return ScenarioFile(
        name=str(obj["name"]),
        kind=kind,
        payload=_parse_payload(kind, obj["payload"], "$.payload", memo),
        utility=utility,
        asymmetry=asymmetry,
        variation_locus=locus,
        description=obj.get("description"),
    )


def _reject_float(text: str) -> float:
    raise ScenarioError(f"decimal literal {text!r} rejected; use exact fractions")


def _parse_int(text: str) -> int:
    # Checked before int() runs, which raises ValueError past 4,300 digits.
    if len(text.lstrip("-")) > MAX_FRACTION_DIGITS:
        raise ScenarioError(f"integer literal has more than {MAX_FRACTION_DIGITS} digits")
    return int(text)


def load_scenario(path: Union[str, Path]) -> ScenarioFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# serialization (inverse of parse_scenario; round trip is the identity)


def _serialize_arm(arm: ArmOutcomeModel) -> dict:
    if isinstance(arm, Degenerate):
        return {"degenerate": arm.outcome}
    return {"bernoulli": str(arm.survival_prob)}


def _serialize_tree(t: LotteryTree) -> dict:
    """A tree's scenario JSON, filled in through an explicit stack, so a tree
    as deep as the lottery module allows serializes."""
    root: dict = {}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        if isinstance(node, Leaf):
            out["leaf"] = str(node.utility)
        else:
            out["chance"] = [[str(p), {}] for p, _ in node.branches]
            stack.extend((sub, child) for (_, sub), (_, child) in zip(node.branches, out["chance"]))
    return root


# A joint law's fields, in the order of StrataDistribution's masses.
_STRATA_KEYS = ("s11", "s00", "s10", "s01")
_STRATA_FIELDS = _fields(" ".join(_STRATA_KEYS))


def _parse_strata(obj: Any, path: _FieldPath, memo: _Memo) -> StrataDistribution:
    """A `strata` payload or a unit type's `dependence`; a ModelError is left
    to the caller, which reports it at the payload's path."""
    _require(obj, _STRATA_FIELDS, path)
    return StrataDistribution(*(_fraction(obj[k], (path, k), memo) for k in _STRATA_KEYS))


def _serialize_strata(d: StrataDistribution) -> dict:
    return {k: str(mass) for k, (_, mass) in zip(_STRATA_KEYS, d.items())}


def serialize_scenario(sc: ScenarioFile) -> dict:
    payload: dict
    if sc.kind == "chambers":
        payload = {
            "phi0": str(sc.payload.phi0_loaded_prob),
            "phi1": str(sc.payload.phi1_loaded_prob),
        }
    elif sc.kind == "strata":
        payload = _serialize_strata(sc.payload)
    elif sc.kind == "population":
        payload = {
            "arm0_label": sc.payload.arm0_label,
            "arm1_label": sc.payload.arm1_label,
            "unit_types": [
                {
                    "label": t.label,
                    "weight": str(t.weight),
                    "arm0": _serialize_arm(t.arm0),
                    "arm1": _serialize_arm(t.arm1),
                    **(
                        {"dependence": _serialize_strata(t.cross_arm_dependence)}
                        if t.cross_arm_dependence is not None
                        else {}
                    ),
                }
                for t in sc.payload.unit_types
            ],
        }
    else:
        payload = {
            "left": _serialize_tree(sc.payload.left),
            "right": _serialize_tree(sc.payload.right),
            "penalty": str(sc.payload.penalty.factor),
        }
    doc: dict = {"name": sc.name, "kind": sc.kind, "payload": payload}
    if sc.utility is not None:
        doc["utility"] = {"u0": str(sc.utility.u0), "u1": str(sc.utility.u1)}
    if sc.asymmetry is not None:
        doc["asymmetry"] = {
            "gain": str(sc.asymmetry.gain_weight),
            "loss": str(sc.asymmetry.loss_weight),
            "tie": str(sc.asymmetry.tie_value),
        }
    if sc.variation_locus is not None:
        doc["variation_locus"] = sc.variation_locus
    if sc.description is not None:
        doc["description"] = sc.description
    return doc


# ---------------------------------------------------------------------------
# canonicalization: every non-lottery scenario maps to a population model; a
# joint law (strata, chambers) is read as one unit at its marginals, with
# the law recorded as its cross-arm dependence


def as_population(sc: ScenarioFile) -> PopulationModel:
    if sc.kind == "population":
        return sc.payload
    if sc.kind == "chambers":
        return pool(expand(strata_from_chambers(sc.payload)))
    if sc.kind == "strata":
        return pool(expand(sc.payload))
    raise ScenarioError(f"scenario {sc.name!r} (kind {sc.kind}) has no population model")


# ---------------------------------------------------------------------------
# built-in catalog


def _roulette_scenario() -> ScenarioFile:
    return ScenarioFile(
        name="russian_roulette",
        kind="chambers",
        payload=ChamberParameterization(rational(1, 6), rational(1, 7)),
        variation_locus="within_unit",
        description=(
            "Two revolver games: the status quo kills with chance 1/6, the "
            "alternative with chance 1/7; each pull is a fresh spin."
        ),
    )


def _snakebite_scenario() -> ScenarioFile:
    units = (
        UnitType("immune_to_neither_condition", rational(30, 42), Degenerate(1), Degenerate(1)),
        UnitType("has_both_conditions", rational(1, 42), Degenerate(0), Degenerate(0)),
        UnitType("has_new_antidote_condition_only", rational(5, 42), Degenerate(1), Degenerate(0)),
        UnitType("has_current_antidote_condition_only", rational(6, 42), Degenerate(0), Degenerate(1)),
    )
    return ScenarioFile(
        name="snakebite",
        kind="population",
        payload=PopulationModel(units, "current_antidote", "new_antidote"),
        variation_locus="across_unit",
        description=(
            "Antidote choice where failure is a fixed genetic attribute of each "
            "patient: 1/6 of the population fails on the current antidote, an "
            "independent 1/7 fails on the proposed one."
        ),
    )


def _ssn_scenario() -> ScenarioFile:
    units = tuple(
        UnitType(
            label=f"ssn_residue_{r:02d}_mod_42",
            weight=rational(1, 42),
            arm0=Degenerate(0 if r % 6 == 0 else 1),
            arm1=Degenerate(0 if r % 7 == 0 else 1),
        )
        for r in range(1, 43)
    )
    return ScenarioFile(
        name="ssn_divisibility",
        kind="population",
        payload=PopulationModel(units, "status_quo", "intervention"),
        variation_locus="across_unit",
        description=(
            "Customers are lost when their ID is divisible by 6 (status quo) or "
            "by 7 (intervention).  Mathematically deterministic, but the strata carry "
            "no distinguishing characteristics, so a stochastic reading is also "
            "defensible."
        ),
    )


def _migraine_scenario() -> ScenarioFile:
    # Numeric parameters are an implementer-chosen instantiation of a mixed
    # within/across-unit story; they are not canonical values.
    units = (
        UnitType(
            "migraine",
            rational(3, 10),
            arm0=Degenerate(0),
            arm1=Bernoulli(rational(1, 2)),
        ),
        UnitType(
            "non_migraine",
            rational(7, 10),
            arm0=Bernoulli(rational(4, 5)),
            arm1=Bernoulli(rational(7, 10)),
        ),
    )
    return ScenarioFile(
        name="migraine_mixed",
        kind="population",
        payload=PopulationModel(units, "current_treatment", "new_treatment"),
        variation_locus="mixed",
        description=(
            "Headache patients of two latent kinds: for migraine patients the "
            "current treatment never works and the new one sometimes does; for "
            "the rest the new treatment trades away some efficacy.  Parameters "
            "are illustrative, chosen by the implementers."
        ),
    )


def _nm_incoherence_scenario() -> ScenarioFile:
    option_a = Chance(((rational(3, 5), Leaf(rational(1))), (rational(2, 5), Leaf(rational(0)))))
    option_b = Chance(
        (
            (rational(1, 2), Leaf(rational(1))),
            (
                rational(1, 2),
                Chance(((rational(1, 5), Leaf(rational(1))), (rational(4, 5), Leaf(rational(0))))),
            ),
        )
    )
    return ScenarioFile(
        name="nm_incoherence",
        kind="lottery_pair",
        payload=LotteryPair(option_a, option_b, PenaltySpec(rational(9, 10))),
        description=(
            "Two lotteries with identical outcome distributions; a 10% "
            "uncertainty penalty at each chance node values them differently."
        ),
    )


#: The shipped catalog, one scenario per canonical worked example: each
#: built-in's name and the function that builds it, in listing order.
BUILTINS: dict[str, Callable[[], ScenarioFile]] = {
    "russian_roulette": _roulette_scenario,
    "snakebite": _snakebite_scenario,
    "ssn_divisibility": _ssn_scenario,
    "migraine_mixed": _migraine_scenario,
    "nm_incoherence": _nm_incoherence_scenario,
}


def builtin_scenarios() -> list[ScenarioFile]:
    """Every built-in scenario, in catalog order."""
    return [make() for make in BUILTINS.values()]


def builtin(name: str) -> ScenarioFile:
    """The built-in scenario called name; only that one is built."""
    if name not in BUILTINS:
        raise ScenarioError(f"no built-in scenario named {name!r}")
    return BUILTINS[name]()


# ---------------------------------------------------------------------------
# reports


def decimal_str(q: Fraction, significant_digits: int = 20) -> str:
    """Decimal rendering of an exact rational to the given significance."""
    with localcontext() as ctx:
        ctx.prec = significant_digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


@dataclass(frozen=True)
class Report:
    """Everything one evaluation run produced, ready for rendering."""

    scenario: str
    results: dict[str, Fraction] = field(default_factory=dict)
    variation_locus: str | None = None
    simulation: SimulationEstimate | None = None
    paradox: ParadoxReport | None = None
    lottery: CoherenceReport | None = None


def _render_text(r: Report) -> str:
    lines = [f"scenario: {r.scenario}"]
    if r.variation_locus is not None:
        lines.append(f"variation: {r.variation_locus}")
    for evaluator, value in r.results.items():
        lines.append(f"{evaluator}: {value} ({decimal_str(value)})")
    if r.simulation is not None:
        s = r.simulation
        target = "" if s.exact_target is None else f" target={s.exact_target}"
        lines.append(
            f"simulation: mean={s.mean!r} stderr={s.standard_error!r} "
            f"replications={s.replications}{target}"
        )
    if r.paradox is not None:
        p = r.paradox
        lines.append(
            f"paradox: dominance={p.dominance_direction} recommendation={p.recommendation} "
            f"contradiction={'true' if p.contradiction else 'false'}"
        )
        lines.append(f"note: {p.narrative}")
    if r.lottery is not None:
        c = r.lottery
        lines.append(
            f"lottery: nm_left={c.nm_left} nm_right={c.nm_right} "
            f"penalized_left={c.penalized_left} penalized_right={c.penalized_right} "
            f"violation={'true' if c.violation else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _render_structured(r: Report) -> str:
    doc: dict = {"scenario": r.scenario}
    if r.variation_locus is not None:
        doc["variation_locus"] = r.variation_locus
    if r.results:
        doc["results"] = {
            evaluator: {"fraction": str(v), "decimal": decimal_str(v)}
            for evaluator, v in r.results.items()
        }
    if r.simulation is not None:
        s = r.simulation
        doc["simulation"] = {
            "mean": s.mean,
            "stderr": s.standard_error,
            "replications": s.replications,
        }
        if s.exact_target is not None:
            doc["simulation"]["target"] = str(s.exact_target)
    if r.paradox is not None:
        p = r.paradox
        doc["paradox"] = {
            "dominance": p.dominance_direction,
            "recommendation": p.recommendation,
            "contradiction": p.contradiction,
            "deterministic_value": str(p.deterministic_value),
            "stochastic_value": str(p.stochastic_value),
            "stochastic_recommendation": p.stochastic_recommendation,
            "stochastic_contradiction": p.stochastic_contradiction,
        }
    if r.lottery is not None:
        c = r.lottery
        doc["lottery"] = {
            "same_distribution": c.same_distribution,
            "nm_left": str(c.nm_left),
            "nm_right": str(c.nm_right),
            "penalized_left": str(c.penalized_left),
            "penalized_right": str(c.penalized_right),
            "violation": c.violation,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_report(r: Report, format: str = "text") -> str:
    if format == "text":
        return _render_text(r)
    if format == "structured":
        return _render_structured(r)
    raise ScenarioError(f"unknown report format {format!r}")
