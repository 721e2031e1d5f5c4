"""Scenario files, the built-in catalog, and report rendering.

Scenario files are JSON.  Every numeric literal must be an exact fraction
string "a/b" or an integer; decimals are rejected outright, because a silent
float conversion would break the exact-equality guarantees downstream.

The format is one table: each JSON object under a scenario's top level is an
`_Object` giving its value type and, per key, the attribute, reader, writer
and default.  `parse_scenario` and `serialize_scenario` both read it.  A
scenario's kind is not stored: it is read off its payload's class through the
same table, so a kind and a payload cannot disagree.  A report is a table too:
`_SECTIONS` lists each section field once, for both renderers.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import threading
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Union

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
    ONE,
    VARIATION_LOCI,
    ZERO,
    probability,
)
from .simulate import SimulationEstimate


class ScenarioError(ValueError):
    """Malformed or invalid scenario document; message carries the field path."""


@dataclass(frozen=True)
class ChamberParameterization:
    """Per-arm probability that the fatal chamber comes up.

    The outcome map is fixed: an unloaded chamber means survival, a loaded
    chamber means death.  The two arms' chambers are drawn independently.
    """

    phi0_loaded_prob: Fraction
    phi1_loaded_prob: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi0_loaded_prob", probability(self.phi0_loaded_prob))
        object.__setattr__(self, "phi1_loaded_prob", probability(self.phi1_loaded_prob))


@dataclass(frozen=True)
class LotteryPair:
    left: LotteryTree
    right: LotteryTree
    penalty: PenaltySpec


Payload = Union[StrataDistribution, PopulationModel, ChamberParameterization, LotteryPair]


@dataclass(frozen=True)
class ScenarioFile:
    name: str
    payload: Payload
    utility: OutcomeUtility | None = None
    asymmetry: AsymmetricUtilitySpec | None = None
    description: str | None = None

    def __post_init__(self) -> None:
        # The text report prints the name on a line of its own.
        if not (isinstance(self.name, str) and self.name.isprintable()):
            raise ScenarioError(f"name {self.name!r} is not printable text on one line")
        classes = tuple(o.cls for o in _PAYLOADS.values())
        if not isinstance(self.payload, classes):
            raise ScenarioError(
                f"payload must be one of {', '.join(cls.__name__ for cls in classes)}; "
                f"got {type(self.payload).__name__}"
            )
        for attr, cls in (
            ("utility", OutcomeUtility), ("asymmetry", AsymmetricUtilitySpec), ("description", str)
        ):
            value = getattr(self, attr)
            if not (value is None or isinstance(value, cls)):
                raise ScenarioError(f"{attr} must be {cls.__name__} or None; got {type(value).__name__}")

    @property
    def kind(self) -> str:
        """The kind whose payload class (`_PAYLOADS`) the payload is an instance of."""
        return next(kind for kind, o in _PAYLOADS.items() if isinstance(self.payload, o.cls))

    @property
    def variation_locus(self) -> str | None:
        """Its population model's variation locus; None for a lottery pair."""
        return None if self.kind == "lottery_pair" else as_population(self).variation_locus


# ---------------------------------------------------------------------------
# the format: parsing and serialization

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


def _text(value: Any, path: _FieldPath, memo: _Memo) -> str:
    if isinstance(value, str):
        return value
    raise _error(path, f"expected a string, got {type(value).__name__}")


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


def _serialize_arm(arm: ArmOutcomeModel) -> dict:
    if isinstance(arm, Degenerate):
        return {"degenerate": arm.outcome}
    return {"bernoulli": str(arm.survival_prob)}


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


class _Field(NamedTuple):
    """One key of an object and the attribute it fills: how the value is read
    and written (a fraction unless given), and the attribute's value when the
    key is left out, or ... when the key is required."""

    key: str
    attr: str
    read: Callable[[Any, _FieldPath, _Memo], Any] = _fraction
    write: Callable[[Any], Any] = str
    default: Any = ...


class _Object:
    """A JSON object of the format and the value type it is read into.

    Fields are listed in key order, the order `write` puts them in; `write`
    leaves out a field whose value is None.  `read` checks the keys, then
    reads the fields in the order of cls's dataclass fields and passes them
    positionally, so the table must name every init field of cls.
    """

    def __init__(self, cls: type, *fields: _Field) -> None:
        self.cls = cls
        self.fields = fields
        required = frozenset(f.key for f in fields if f.default is ...)
        self.keys = (required, frozenset(f.key for f in fields))
        order = [f.name for f in dataclasses.fields(cls) if f.init]
        self._readers = [
            (f.key, f.read, f.default) for f in sorted(fields, key=lambda f: order.index(f.attr))
        ]

    def read(self, obj: Any, path: _FieldPath, memo: _Memo) -> Any:
        _require(obj, self.keys, path)
        values = []
        for key, read, default in self._readers:
            values.append(read(obj[key], (path, key), memo) if key in obj else default)
        return self.cls(*values)

    def write(self, value: Any) -> dict:
        return {f.key: f.write(v) for f in self.fields if (v := getattr(value, f.attr)) is not None}


def _unit_types(value: Any, path: _FieldPath, memo: _Memo) -> list[UnitType]:
    if not isinstance(value, list) or not value:
        raise _error(path, "expected a non-empty list")
    return [_UNIT.read(t, (path, i), memo) for i, t in enumerate(value)]


def _penalty(value: Any, path: _FieldPath, memo: _Memo) -> PenaltySpec:
    return PenaltySpec(_fraction(value, path, memo))


_STRATA = _Object(
    StrataDistribution,
    _Field("s11", "mass_11"),
    _Field("s00", "mass_00"),
    _Field("s10", "mass_10"),
    _Field("s01", "mass_01"),
)
_CHAMBERS = _Object(
    ChamberParameterization, _Field("phi0", "phi0_loaded_prob"), _Field("phi1", "phi1_loaded_prob")
)
_UNIT = _Object(
    UnitType,
    _Field("label", "label", _text),
    _Field("weight", "weight"),
    _Field("arm0", "arm0", _parse_arm, _serialize_arm),
    _Field("arm1", "arm1", _parse_arm, _serialize_arm),
    _Field("dependence", "cross_arm_dependence", _STRATA.read, _STRATA.write, None),
)
_POPULATION = _Object(
    PopulationModel,
    _Field("arm0_label", "arm0_label", _text, default="control"),
    _Field("arm1_label", "arm1_label", _text, default="treatment"),
    _Field("unit_types", "unit_types", _unit_types, lambda units: [_UNIT.write(t) for t in units]),
)
_LOTTERY_PAIR = _Object(
    LotteryPair,
    _Field("left", "left", _parse_tree, _serialize_tree),
    _Field("right", "right", _parse_tree, _serialize_tree),
    _Field("penalty", "penalty", _penalty, lambda penalty: str(penalty.factor)),
)
_UTILITY = _Object(OutcomeUtility, _Field("u0", "u0"), _Field("u1", "u1"))
_ASYMMETRY = _Object(
    AsymmetricUtilitySpec,
    _Field("gain", "gain_weight"),
    _Field("loss", "loss_weight"),
    _Field("tie", "tie_value", default=ZERO),
)

#: Each scenario kind and its payload object, in listing order.
_PAYLOADS = {
    "strata": _STRATA,
    "population": _POPULATION,
    "chambers": _CHAMBERS,
    "lottery_pair": _LOTTERY_PAIR,
}
KINDS = tuple(_PAYLOADS)

#: The top level's required keys and every key it accepts: ScenarioFile's
#: fields and the two it derives, kind and variation_locus.
_SCENARIO_FIELDS = (
    frozenset({"name", "kind", "payload"}),
    frozenset([*(f.name for f in dataclasses.fields(ScenarioFile)), "kind", "variation_locus"]),
)

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

    def read(key: str, reader: Callable[[Any, _FieldPath, _Memo], Any]) -> Any:
        """A top-level field, or None if it is left out; a ModelError is
        reported at the field's path."""
        try:
            return reader(obj[key], f"$.{key}", memo) if key in obj else None
        except ModelError as exc:
            raise ScenarioError(f"$.{key}: {exc}") from None

    _require(obj, _SCENARIO_FIELDS, "$")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ScenarioError(f"$.kind: unknown kind {kind!r}; expected one of {KINDS}")
    utility = read("utility", _UTILITY.read)
    asymmetry = read("asymmetry", _ASYMMETRY.read)
    locus = obj.get("variation_locus")
    if locus is not None and locus not in VARIATION_LOCI:
        raise ScenarioError(f"$.variation_locus: {locus!r} not in {VARIATION_LOCI}")
    sc = ScenarioFile(
        name=read("name", _text),
        payload=read("payload", _PAYLOADS[kind].read),
        utility=utility,
        asymmetry=asymmetry,
        description=read("description", _text),
    )
    if locus is not None and locus != (derived := sc.variation_locus):
        reason = (
            f"a {kind} scenario has no population model" if kind == "lottery_pair"
            else f"the model's variation is {derived}" if derived else "the model has no variation"
        )
        raise ScenarioError(f"$.variation_locus: declared {locus!r}, but {reason}")
    return sc


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


def serialize_scenario(sc: ScenarioFile) -> dict:
    """The document parse_scenario reads back as sc."""
    doc: dict = {"name": sc.name, "kind": sc.kind, "payload": _PAYLOADS[sc.kind].write(sc.payload)}
    if sc.utility is not None:
        doc["utility"] = _UTILITY.write(sc.utility)
    if sc.asymmetry is not None:
        doc["asymmetry"] = _ASYMMETRY.write(sc.asymmetry)
    if sc.description is not None:
        doc["description"] = sc.description
    return doc


# ---------------------------------------------------------------------------
# canonicalization: every non-lottery scenario maps to a population model; a
# joint law (strata) is read as one unit at its marginals, with the law
# recorded as its cross-arm dependence, and so are two independent chamber
# draws (chambers), whose law is the product of their marginals


def as_population(sc: ScenarioFile) -> PopulationModel:
    kind, payload = sc.kind, sc.payload
    if kind == "population":
        return payload
    if kind == "chambers":
        arm0 = Bernoulli(ONE - payload.phi0_loaded_prob)
        arm1 = Bernoulli(ONE - payload.phi1_loaded_prob)
        return pool(PopulationModel((UnitType("everyone", ONE, arm0, arm1),)))
    if kind == "strata":
        return pool(expand(payload))
    raise ScenarioError(
        f"scenario {sc.name!r} (kind {sc.kind}) has no population model; use the 'lottery' command"
    )


# ---------------------------------------------------------------------------
# built-in catalog


def _roulette_scenario() -> ScenarioFile:
    return ScenarioFile(
        name="russian_roulette",
        payload=ChamberParameterization(Fraction(1, 6), Fraction(1, 7)),
        description=(
            "Two revolver games: the status quo kills with chance 1/6, the "
            "alternative with chance 1/7; each pull is a fresh spin."
        ),
    )


def _snakebite_scenario() -> ScenarioFile:
    units = (
        UnitType("immune_to_neither_condition", Fraction(30, 42), Degenerate(1), Degenerate(1)),
        UnitType("has_both_conditions", Fraction(1, 42), Degenerate(0), Degenerate(0)),
        UnitType("has_new_antidote_condition_only", Fraction(5, 42), Degenerate(1), Degenerate(0)),
        UnitType("has_current_antidote_condition_only", Fraction(6, 42), Degenerate(0), Degenerate(1)),
    )
    return ScenarioFile(
        name="snakebite",
        payload=PopulationModel(units, "current_antidote", "new_antidote"),
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
            weight=Fraction(1, 42),
            arm0=Degenerate(0 if r % 6 == 0 else 1),
            arm1=Degenerate(0 if r % 7 == 0 else 1),
        )
        for r in range(1, 43)
    )
    return ScenarioFile(
        name="ssn_divisibility",
        payload=PopulationModel(units, "status_quo", "intervention"),
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
            Fraction(3, 10),
            arm0=Degenerate(0),
            arm1=Bernoulli(Fraction(1, 2)),
        ),
        UnitType(
            "non_migraine",
            Fraction(7, 10),
            arm0=Bernoulli(Fraction(4, 5)),
            arm1=Bernoulli(Fraction(7, 10)),
        ),
    )
    return ScenarioFile(
        name="migraine_mixed",
        payload=PopulationModel(units, "current_treatment", "new_treatment"),
        description=(
            "Headache patients of two latent kinds: for migraine patients the "
            "current treatment never works and the new one sometimes does; for "
            "the rest the new treatment trades away some efficacy.  Parameters "
            "are illustrative, chosen by the implementers."
        ),
    )


def _nm_incoherence_scenario() -> ScenarioFile:
    option_a = Chance(((Fraction(3, 5), Leaf(ONE)), (Fraction(2, 5), Leaf(ZERO))))
    option_b = Chance(
        (
            (Fraction(1, 2), Leaf(ONE)),
            (
                Fraction(1, 2),
                Chance(((Fraction(1, 5), Leaf(ONE)), (Fraction(4, 5), Leaf(ZERO)))),
            ),
        )
    )
    return ScenarioFile(
        name="nm_incoherence",
        payload=LotteryPair(option_a, option_b, PenaltySpec(Fraction(9, 10))),
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


def decimal_str(q: Fraction) -> str:
    """Decimal rendering of an exact rational to 20 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 20
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


#: Each report section's fields, in text order: (key, the attribute it reads,
#: whether the text line shows it).  Structured output has every field.
_SECTIONS = {
    "simulation": (
        ("mean", "mean", True),
        ("stderr", "standard_error", True),
        ("replications", "replications", True),
        ("target", "exact_target", True),
    ),
    "paradox": (
        ("dominance", "dominance_direction", True),
        ("recommendation", "recommendation", True),
        ("contradiction", "contradiction", True),
        ("deterministic_value", "deterministic_value", False),
        ("stochastic_value", "stochastic_value", False),
        ("stochastic_recommendation", "stochastic_recommendation", False),
        ("stochastic_contradiction", "stochastic_contradiction", False),
    ),
    "lottery": (
        ("same_distribution", "same_distribution", False),
        ("nm_left", "nm_left", True),
        ("nm_right", "nm_right", True),
        ("penalized_left", "penalized_left", True),
        ("penalized_right", "penalized_right", True),
        ("violation", "violation", True),
    ),
}


def _sections(r: Report):
    """(section, [(key, value, shown in text), ...]) for each section r has."""
    for section, fields in _SECTIONS.items():
        part = getattr(r, section)
        if part is not None:
            yield section, [(key, getattr(part, attr), shown) for key, attr, shown in fields]


def _text_value(v: Any) -> str:
    return ("true" if v else "false") if isinstance(v, bool) else str(v)


def _render_text(r: Report) -> str:
    lines = [f"scenario: {r.scenario}"]
    if r.variation_locus is not None:
        lines.append(f"variation: {r.variation_locus}")
    for evaluator, value in r.results.items():
        lines.append(f"{evaluator}: {value} ({decimal_str(value)})")
    for section, fields in _sections(r):
        pairs = " ".join(f"{k}={_text_value(v)}" for k, v, shown in fields if shown)
        lines.append(f"{section}: {pairs}")
        if section == "paradox":
            lines.append(f"note: {r.paradox.narrative}")
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
    for section, fields in _sections(r):
        doc[section] = {k: str(v) if isinstance(v, Fraction) else v for k, v, _ in fields}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_RENDERERS = {"text": _render_text, "structured": _render_structured}
#: The report formats, in --format's order: the names render_report accepts.
FORMATS = tuple(_RENDERERS)


def render_report(r: Report, format: str = "text") -> str:
    if format not in _RENDERERS:
        raise ScenarioError(f"unknown report format {format!r}; expected one of {FORMATS}")
    return _RENDERERS[format](r)
