"""Wire format of models, functions and fit diagnostics (JSON objects of the CLI)."""

import json

import pytest

import prodfn.cli as cli
from prodfn import CES, CobbDouglas, ExponentialModel, Factor, FitDiagnostics, GeneralizedCES, PowerLaw
from prodfn.cli import (
    InputFormatError,
    diagnostics_to_dict,
    emit_json,
    function_from_dict,
    function_to_dict,
    model_from_dict,
    model_to_dict,
)

FUNCTIONS = [
    (PowerLaw(coeff=0.147, exponent=1.409, input=Factor.LABOR), ["type", "input", "coeff", "exponent"]),
    (PowerLaw(coeff=8.2, exponent=0.555, input=Factor.CAPITAL), ["type", "input", "coeff", "exponent"]),
    (CobbDouglas(A=1.01, alpha=0.734, beta=0.266), ["type", "A", "alpha", "beta"]),
    (
        GeneralizedCES(cK=2e25, cL=1.85e-24, alpha=0.734, eK=15.45, eL=39.22, outer=0.0359),
        ["type", "cK", "cL", "alpha", "eK", "eL", "outer"],
    ),
    (CES(A=1.0, alpha=0.4, p=2.0, v=0.5), ["type", "A", "alpha", "p", "v", "sigma"]),
    (CES(A=1.0, alpha=0.4, p=1.0, v=0.5), ["type", "A", "alpha", "p", "v", "sigma"]),
]

MODEL = ExponentialModel(b1=0.02, b2=0.06, b3=0.035, ln_L0=4.1, ln_K0=4.2, ln_Y0=4.3, base_year=1899)
MODEL_KEYS = ["b1", "b2", "b3", "ln_L0", "ln_K0", "ln_Y0", "base_year"]


@pytest.mark.parametrize("fn, keys", FUNCTIONS)
def test_function_round_trips_with_pinned_key_order(fn, keys):
    obj = function_to_dict(fn)
    assert list(obj) == keys
    assert function_from_dict(json.loads(emit_json(obj))) == fn


def test_function_tags_and_values():
    assert function_to_dict(FUNCTIONS[0][0]) == {
        "type": "power-law", "input": "labor", "coeff": 0.147, "exponent": 1.409,
    }
    assert function_to_dict(FUNCTIONS[4][0])["sigma"] == -1.0
    assert function_to_dict(FUNCTIONS[5][0])["sigma"] is None
    assert [function_to_dict(fn)["type"] for fn, _ in FUNCTIONS[2:5]] == [
        "cobb-douglas", "generalized-ces", "ces",
    ]


def test_function_to_dict_rejects_other_objects():
    with pytest.raises(TypeError, match="not a production function"):
        function_to_dict(MODEL)


def test_model_round_trips_with_pinned_key_order():
    obj = model_to_dict(MODEL)
    assert list(obj) == MODEL_KEYS
    assert model_from_dict(json.loads(emit_json(obj))) == MODEL


def test_model_base_year_defaults_to_zero():
    obj = {k: v for k, v in model_to_dict(MODEL).items() if k != "base_year"}
    model = model_from_dict(obj)
    assert model.base_year == 0
    assert model_from_dict({**obj, "base_year": 1899}) == MODEL


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "model JSON must be an object"),
        ({"b1": 0.1}, "bad model JSON: 'b2'"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": "x"}, "bad model JSON: invalid literal"),
    ],
)
def test_model_from_dict_errors(obj, message):
    with pytest.raises(InputFormatError, match=message):
        model_from_dict(obj)


def test_diagnostics_key_order():
    diag = FitDiagnostics(slope=0.02, intercept=4.1, r_squared=0.99, residual_max_abs=0.01, n_points=24)
    obj = diagnostics_to_dict(diag)
    assert list(obj) == ["slope", "intercept", "r_squared", "residual_max_abs", "n_points"]
    assert emit_json(obj["n_points"]) == "24"


def test_whole_derive_report_is_accepted():
    fn = FUNCTIONS[2][0]
    report = {"family": "cobb-douglas", "alpha": fn.alpha, "function": function_to_dict(fn)}
    assert function_from_dict(report) == fn


def test_several_functions_report_is_rejected():
    report = {"family": "fundamental", "functions": [{"function": function_to_dict(FUNCTIONS[0][0])}]}
    with pytest.raises(InputFormatError, match="several functions"):
        function_from_dict(report)


def test_ces_sigma_is_ignored_on_input():
    obj = {"type": "ces", "A": 1.0, "alpha": 0.4, "p": 2.0, "v": 0.5, "sigma": 123.0}
    assert function_from_dict(obj) == FUNCTIONS[4][0]
    del obj["sigma"]
    assert function_from_dict(obj) == FUNCTIONS[4][0]


def test_numeric_strings_are_accepted():
    obj = {"type": "power-law", "input": "capital", "coeff": "8.2", "exponent": "0.555"}
    assert function_from_dict(obj) == FUNCTIONS[1][0]
    assert model_from_dict({k: str(v) for k, v in model_to_dict(MODEL).items()}) == MODEL


@pytest.mark.parametrize(
    "obj, message",
    [
        ("cobb-douglas", "function JSON must be an object"),
        ({"type": "mystery"}, "unknown function type 'mystery'"),
        ({"type": ["ces"]}, "unknown function type \\['ces'\\]"),
        ({"A": 1.0}, "unknown function type None"),
        ({"type": "cobb-douglas", "A": 1.0, "alpha": 0.5}, "bad function JSON: 'beta'"),
        ({"type": "power-law", "input": "land", "coeff": 1, "exponent": 1}, "not a valid Factor"),
        ({"type": "ces", "A": "one", "alpha": 0.4, "p": 2, "v": 1}, "could not convert"),
        ({"type": "ces", "A": None, "alpha": 0.4, "p": 2, "v": 1}, "bad function JSON"),
    ],
)
def test_function_from_dict_errors(obj, message):
    with pytest.raises(InputFormatError, match=message):
        function_from_dict(obj)


@pytest.mark.parametrize(
    "name",
    [
        "main",
        "build_parser",
        "emit_json",
        "model_to_dict",
        "model_from_dict",
        "function_to_dict",
        "function_from_dict",
    ],
)
def test_benchmark_import_surface_is_defined_in_cli(name):
    # perfbench calls these and traces only functions defined in prodfn.cli
    assert getattr(cli, name).__module__ == "prodfn.cli"
