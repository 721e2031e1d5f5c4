"""The package's public names, pinned: adding or dropping one is an edit here."""

import ast
import types
from fractions import Fraction as F
from pathlib import Path

import donoharm
from donoharm import Bernoulli, Degenerate, PopulationModel, StrataDistribution, UnitType

PUBLIC_NAMES = [
    "AsymmetricUtilitySpec",
    "Bernoulli",
    "ChamberParameterization",
    "Chance",
    "CoherenceReport",
    "DEFAULT_ASYMMETRY",
    "DEFAULT_UTILITY",
    "Degenerate",
    "EvaluationResult",
    "Leaf",
    "LotteryPair",
    "LotteryTree",
    "ModelError",
    "OutcomeUtility",
    "ParadoxReport",
    "PenaltySpec",
    "PopulationModel",
    "Report",
    "ScenarioError",
    "ScenarioFile",
    "SimulationConfig",
    "SimulationEstimate",
    "StrataDistribution",
    "UnitType",
    "as_population",
    "asymmetric_relative_utility",
    "builtin",
    "builtin_scenarios",
    "coherence_check",
    "evaluate_population",
    "evaluate_stochastic_unit",
    "expand",
    "load_scenario",
    "nm_value",
    "outcome_distribution",
    "paradox_report",
    "parse_scenario",
    "penalized_value",
    "pool",
    "probability",
    "reduce_compound",
    "render_report",
    "serialize_scenario",
    "simulate_population",
    "strata_from_chambers",
    "strata_from_independent_marginals",
]


def test_public_names():
    # Submodules show up in dir() once imported, which depends on test order.
    public = [
        name
        for name in sorted(dir(donoharm))
        if not name.startswith("_") and not isinstance(getattr(donoharm, name), types.ModuleType)
    ]
    assert public == PUBLIC_NAMES


def test_modules_import_no_private_names():
    # A module's underscore names are its own; another module reading them
    # means a public reader is missing.
    imports = []
    for path in sorted(Path(donoharm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imports += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert imports == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check the package relies on
    # must raise an error of its own.
    asserts = [
        (path.name, node.lineno)
        for path in sorted(Path(donoharm.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def two_type_model():
    return PopulationModel(
        (
            UnitType("a", F(1, 2), Degenerate(1), Degenerate(0)),
            UnitType(
                "b",
                F(1, 2),
                Bernoulli(F(1, 3)),
                Bernoulli(F(1, 4)),
                StrataDistribution(F(1, 4), F(2, 3), F(1, 12), F(0)),
            ),
        ),
        "old",
        "new",
    )


def test_population_model_value_semantics():
    # The sums a model carries are derived data: equality, hashing and repr
    # see only the unit types and the arm labels.
    m, same = two_type_model(), two_type_model()
    assert m is not same
    assert m == same
    assert hash(m) == hash(same)
    assert m != PopulationModel(m.unit_types, "old", "other")
    assert repr(m) == (
        "PopulationModel(unit_types=(UnitType(label='a', weight=Fraction(1, 2), "
        "arm0=Degenerate(outcome=1), arm1=Degenerate(outcome=0), cross_arm_dependence=None), "
        "UnitType(label='b', weight=Fraction(1, 2), arm0=Bernoulli(survival_prob=Fraction(1, 3)), "
        "arm1=Bernoulli(survival_prob=Fraction(1, 4)), "
        "cross_arm_dependence=StrataDistribution(mass_11=Fraction(1, 4), mass_00=Fraction(2, 3), "
        "mass_10=Fraction(1, 12), mass_01=Fraction(0, 1)))), arm0_label='old', arm1_label='new')"
    )
