"""Scenario files, the built-in catalog, and report rendering.

Scenario files are JSON.  Every numeric literal must be an exact fraction
string "a/b" or an integer; decimals are rejected outright, because a silent
float conversion would break the exact-equality guarantees downstream.  A
key may appear only once in an object, and labels, like names, must be
printable text on one line, since a report may print them.

The format is one table: each JSON object under a scenario's top level is an
`_Object` giving its value type and, per key, the attribute, reader, writer
and default.  `parse_scenario` and `serialize_scenario` both read it.  A
scenario's kind is not stored: it is read off its payload's class through the
same table, so a kind and a payload cannot disagree.  A report is a table too:
`_SECTIONS` lists each section field once, for both renderers.

The built-in catalog is data: `BUILTINS` holds each built-in's scenario
document, and `builtin` reads it with `parse_scenario`, as it would a file.
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
        # A report prints the name and each label on a line of its own.
        texts = [("name", self.name)]
        if isinstance(self.payload, PopulationModel):
            units = self.payload.unit_types
            texts += [(f"payload.{arm}", getattr(self.payload, arm)) for arm in ("arm0_label", "arm1_label")]
            # One pass in C over 10^4 labels; a place is written out only
            # for a refused label.
            if not _printable([t.label for t in units]):
                texts += [
                    (f"payload.unit_types[{i}].label", t.label)
                    for i, t in enumerate(units)
                    if _not_one_line(t.label)
                ]
        for where, text in texts:
            if problem := _not_one_line(text):
                raise ScenarioError(f"{where} {problem}")
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
#: each range-checked probability, arm and leaf, immutable and so shared, by a
#: tuple of its reader and its literal (for an arm, its one key and literal).
#: No JSON value is a reader, so no document can make such a key.  A tuple is
#: stored once its literal has been checked, so only with a str or int; it is
#: looked up only for a str or int, since a bool would find the tuple of the
#: int it equals.  A tree's branch reads a probability string and a leaf it
#: has seen before straight from here, without a call.
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


def _probability(value: Any, path: _FieldPath, memo: _Memo) -> Fraction:
    """A fraction in [0, 1], range-checked where it is read, so a value out of
    range is reported at its own path."""
    if type(value) in _LITERALS and (q := memo.get((_probability, value))) is not None:
        return q
    try:
        q = memo[_probability, value] = probability(_fraction(value, path, memo))
    except ModelError as exc:
        raise _error(path, str(exc)) from None
    return q


def _text(value: Any, path: _FieldPath, memo: _Memo) -> str:
    if isinstance(value, str):
        return value
    raise _error(path, f"expected a string, got {type(value).__name__}")


def _not_one_line(text: Any) -> str | None:
    """Why `text` cannot be a name or label, which a report prints on a line
    of its own; None if it can."""
    if isinstance(text, str) and text.isprintable():
        return None
    return f"{text!r} is not printable text on one line"


def _printable(texts: list) -> bool:
    """Whether every text is a name or label a report can print, in one pass
    in C: a joined string is printable just when each part is."""
    try:
        return "".join(texts).isprintable()
    except TypeError:  # not all str
        return False


def _label(value: Any, path: _FieldPath, memo: _Memo) -> str:
    if type(value) is str and value.isprintable():
        return value
    text = _text(value, path, memo)
    if problem := _not_one_line(text):
        raise _error(path, problem)
    return text


def _key_error(obj: dict, fields: tuple[frozenset[str], frozenset[str]], path: _FieldPath) -> ScenarioError:
    """The error for an object with a required key of fields missing or a key
    fields does not accept; each caller checks its keys itself."""
    keys, accepted = fields
    missing = keys - obj.keys()
    if missing:
        return _error(path, f"missing field(s) {sorted(missing)}")
    return _error(path, f"unknown field(s) {sorted(obj.keys() - accepted)}")


def _parse_arm(obj: Any, path: _FieldPath, memo: _Memo) -> ArmOutcomeModel:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _error(path, "expected {'degenerate': 0|1} or {'bernoulli': 'a/b'}")
    ((key, value),) = obj.items()
    if type(value) in _LITERALS and (arm := memo.get((_parse_arm, key, value))) is not None:
        return arm
    if key == "degenerate":
        if isinstance(value, bool) or value not in (0, 1):
            raise _error((path, key), f"expected 0 or 1, got {value!r}")
        return memo.setdefault((_parse_arm, key, value), Degenerate(value))
    if key == "bernoulli":
        return memo.setdefault((_parse_arm, key, value), Bernoulli(_probability(value, (path, key), memo)))
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
        if type(value) in _LITERALS and (leaf := memo.get((_parse_tree, value))) is not None:
            return leaf
        return memo.setdefault((_parse_tree, value), Leaf(_fraction(value, (path, key), memo)))
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
            prob, sub = item
            # A literal this parse has read before is taken from the memo
            # without a call: a probability string, and a leaf's literal.
            if type(prob) is not str or (q := memo.get(prob)) is None:
                q = _fraction(prob, ((path, i), 0), memo)
            if (
                type(sub) is not dict
                or len(sub) != 1
                or type(leaf := sub.get("leaf")) not in _LITERALS
                or (tree := memo.get((_parse_tree, leaf))) is None
            ):
                tree = _parse_tree(sub, ((path, i), 1), memo, depth + 1)
            branches.append((q, tree))
        try:
            return Chance(branches)
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


def _compile_read(
    cls: type, keys: tuple[frozenset[str], frozenset[str]], fields: list[_Field]
) -> Callable[[Any, _FieldPath, _Memo], Any]:
    """The reader of an object with these keys and fields, in cls's order:
    the value obj reads as, with a ModelError from cls reported at path.

    Its source is written out from the table, one line per field, as
    dataclasses writes an __init__: a population reads one object per unit
    type, and a loop over the table per object cost about 6% of the parse
    of a 10^4-type population.
    """
    names = {
        "cls": cls, "keys": keys, "required": keys[0], "accepted": keys[1],
        "ModelError": ModelError, "_error": _error, "_key_error": _key_error,
    }
    lines = [
        "def read(obj, path, memo):",
        "    if not isinstance(obj, dict):",
        "        raise _error(path, 'expected an object')",
        "    if not (accepted.issuperset(obj) and required.issubset(obj)):",
        "        raise _key_error(obj, keys, path)",
    ]
    for i, f in enumerate(fields):
        names[f"read_{i}"], names[f"default_{i}"] = f.read, f.default
        value = f"read_{i}(obj[{f.key!r}], (path, {f.key!r}), memo)"
        if f.default is not ...:
            value += f" if {f.key!r} in obj else default_{i}"
        lines.append(f"    value_{i} = {value}")
    lines += [
        "    try:",
        f"        return cls({', '.join(f'value_{i}' for i in range(len(fields)))})",
        "    except ModelError as exc:",
        "        raise _error(path, str(exc)) from None",
    ]
    exec(compile("\n".join(lines), f"<{cls.__name__} reader>", "exec"), names)
    return names["read"]


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
        self.read = _compile_read(cls, self.keys, sorted(fields, key=lambda f: order.index(f.attr)))

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
    _Field("label", "label", _label),
    _Field("weight", "weight", _probability),
    _Field("arm0", "arm0", _parse_arm, _serialize_arm),
    _Field("arm1", "arm1", _parse_arm, _serialize_arm),
    _Field("dependence", "cross_arm_dependence", _STRATA.read, _STRATA.write, None),
)
_POPULATION = _Object(
    PopulationModel,
    _Field("arm0_label", "arm0_label", _label, default="control"),
    _Field("arm1_label", "arm1_label", _label, default="treatment"),
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
            obj = json.loads(
                document,
                object_pairs_hook=_unique_keys,
                parse_float=_reject_float,
                parse_int=_parse_int,
            )
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

    if not isinstance(obj, dict):
        raise ScenarioError("$: expected an object")
    required, accepted = _SCENARIO_FIELDS
    if not (accepted.issuperset(obj) and required.issubset(obj)):
        raise _key_error(obj, _SCENARIO_FIELDS, "$")
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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json would keep a repeated key's last value and drop the others unseen.
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ScenarioError(f"repeated key {key!r} in one object; each key may appear once")
    return obj


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

#: The shipped catalog, one scenario per canonical worked example: each
#: built-in's name and its scenario document, in listing order.  A document
#: is what serialize_scenario writes for it, and builtin reads it through
#: parse_scenario, so a built-in passes every check a scenario file does.
BUILTINS: dict[str, dict] = {
    "russian_roulette": {
        "name": "russian_roulette",
        "kind": "chambers",
        "payload": {"phi0": "1/6", "phi1": "1/7"},
        "description": (
            "Two revolver games: the status quo kills with chance 1/6, the "
            "alternative with chance 1/7; each pull is a fresh spin."
        ),
    },
    "snakebite": {
        "name": "snakebite",
        "kind": "population",
        "payload": {
            "arm0_label": "current_antidote",
            "arm1_label": "new_antidote",
            "unit_types": [
                {
                    "label": "immune_to_neither_condition",
                    "weight": "5/7",
                    "arm0": {"degenerate": 1},
                    "arm1": {"degenerate": 1},
                },
                {
                    "label": "has_both_conditions",
                    "weight": "1/42",
                    "arm0": {"degenerate": 0},
                    "arm1": {"degenerate": 0},
                },
                {
                    "label": "has_new_antidote_condition_only",
                    "weight": "5/42",
                    "arm0": {"degenerate": 1},
                    "arm1": {"degenerate": 0},
                },
                {
                    "label": "has_current_antidote_condition_only",
                    "weight": "1/7",
                    "arm0": {"degenerate": 0},
                    "arm1": {"degenerate": 1},
                },
            ],
        },
        "description": (
            "Antidote choice where failure is a fixed genetic attribute of each "
            "patient: 1/6 of the population fails on the current antidote, an "
            "independent 1/7 fails on the proposed one."
        ),
    },
    "ssn_divisibility": {
        "name": "ssn_divisibility",
        "kind": "population",
        "payload": {
            "arm0_label": "status_quo",
            "arm1_label": "intervention",
            "unit_types": [
                {
                    "label": f"ssn_residue_{r:02d}_mod_42",
                    "weight": "1/42",
                    "arm0": {"degenerate": 0 if r % 6 == 0 else 1},
                    "arm1": {"degenerate": 0 if r % 7 == 0 else 1},
                }
                for r in range(1, 43)
            ],
        },
        "description": (
            "Customers are lost when their ID is divisible by 6 (status quo) or "
            "by 7 (intervention).  Mathematically deterministic, but the strata carry "
            "no distinguishing characteristics, so a stochastic reading is also "
            "defensible."
        ),
    },
    # Numeric parameters are an implementer-chosen instantiation of a mixed
    # within/across-unit story; they are not canonical values.
    "migraine_mixed": {
        "name": "migraine_mixed",
        "kind": "population",
        "payload": {
            "arm0_label": "current_treatment",
            "arm1_label": "new_treatment",
            "unit_types": [
                {
                    "label": "migraine",
                    "weight": "3/10",
                    "arm0": {"degenerate": 0},
                    "arm1": {"bernoulli": "1/2"},
                },
                {
                    "label": "non_migraine",
                    "weight": "7/10",
                    "arm0": {"bernoulli": "4/5"},
                    "arm1": {"bernoulli": "7/10"},
                },
            ],
        },
        "description": (
            "Headache patients of two latent kinds: for migraine patients the "
            "current treatment never works and the new one sometimes does; for "
            "the rest the new treatment trades away some efficacy.  Parameters "
            "are illustrative, chosen by the implementers."
        ),
    },
    "nm_incoherence": {
        "name": "nm_incoherence",
        "kind": "lottery_pair",
        "payload": {
            "left": {"chance": [["3/5", {"leaf": "1"}], ["2/5", {"leaf": "0"}]]},
            "right": {
                "chance": [
                    ["1/2", {"leaf": "1"}],
                    ["1/2", {"chance": [["1/5", {"leaf": "1"}], ["4/5", {"leaf": "0"}]]}],
                ],
            },
            "penalty": "9/10",
        },
        "description": (
            "Two lotteries with identical outcome distributions; a 10% "
            "uncertainty penalty at each chance node values them differently."
        ),
    },
}


def builtin_scenarios() -> list[ScenarioFile]:
    """Every built-in scenario, in catalog order."""
    return [parse_scenario(document) for document in BUILTINS.values()]


def builtin(name: str) -> ScenarioFile:
    """The built-in scenario called name; only that one is parsed."""
    if name not in BUILTINS:
        raise ScenarioError(f"no built-in scenario named {name!r}")
    return parse_scenario(BUILTINS[name])


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
