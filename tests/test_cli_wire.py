"""Wire format of models, functions and fit diagnostics (JSON objects of the CLI)."""

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("year", [1899.0, "1899", " 1899 ", "\u20031899\xa0"])
def test_model_base_year_takes_a_whole_number_or_an_integer_string(year):
    assert model_from_dict({**model_to_dict(MODEL), "base_year": year}) == MODEL


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "model JSON must be an object"),
        ({"b1": 0.1}, "bad model JSON: 'b2'"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": "x"}, "bad model JSON: invalid literal"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": 1899.7}, "bad model JSON: base_year must be a whole number"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": math.inf}, "bad model JSON: base_year must be a whole number"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "b1": 10**400}, "bad model JSON: int too large to convert to float"),
        # a wire number follows the CSV digit rule: no boolean, no "_", no digit outside ASCII
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "b1": True}, "bad model JSON: not a number: True"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": False}, "bad model JSON: not a number: False"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "b1": "0_02"}, "bad model JSON: not a number: '0_02'"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "ln_Y0": " 4_3 "}, "bad model JSON: not a number: ' 4_3 '"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": "1_899"}, "bad model JSON: not a number: '1_899'"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "base_year": "١٨٩٩"}, "bad model JSON: not a number: '١٨٩٩'"),
        ({**dict.fromkeys(MODEL_KEYS[:6], 0.1), "b2": "０.06"}, "bad model JSON: not a number: '０.06'"),
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
        ({"type": "cobb-douglas", "A": True, "alpha": 0.5, "beta": 0.5}, "bad function JSON: not a number: True"),
        ({"type": "cobb-douglas", "A": 1, "alpha": "0_5", "beta": 0.5}, "bad function JSON: not a number: '0_5'"),
        ({"type": "cobb-douglas", "A": 1, "alpha": 0.5, "beta": "٠.5"}, "bad function JSON: not a number: '٠.5'"),
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


class _Str(str):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "obj, text",
    [
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.5), "0.5"),
        (np.int64(-7), "-7"),
        (True, "true"),
        (False, "false"),
        (None, "null"),
        (((1, (2.5, "x")), ()), '[\n  [\n    1,\n    [\n      2.5,\n      "x"\n    ]\n  ],\n  []\n]'),
        ({}, "{}"),
        ([], "[]"),
        ({"k": {}}, '{\n  "k": {}\n}'),
        ({"k": []}, '{\n  "k": []\n}'),
        ({"é\n": 'ünï\t"\\/\x01'}, '{\n  "\\u00e9\\n": "\\u00fcn\\u00ef\\t\\"\\\\/\\u0001"\n}'),
        ("\u2028\U0001f600", '"\\u2028\\ud83d\\ude00"'),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        ([1e300, -1e-300], "[\n  1.0000000000000001e+300,\n  -1e-300\n]"),
        ({_Str("a"): _Str("b")}, '{\n  "a": "b"\n}'),
        (_Float(1.5), "1.5"),
        (_Int(3), "3"),
    ],
)
def test_emit_json_exact_text(obj, text):
    assert emit_json(obj) == text


@pytest.mark.parametrize(
    "obj", [float("inf"), float("nan"), np.float64("-inf"), [1.0, float("nan")], {"x": float("inf")}]
)
def test_emit_json_rejects_non_finite(obj):
    with pytest.raises(ValueError, match="cannot serialize non-finite float"):
        emit_json(obj)


@pytest.mark.parametrize(
    "obj, name", [({1, 2}, "set"), (np.bool_(True), "bool"), ([object()], "object"), ({1: 2}, "int key")]
)
def test_emit_json_rejects_other_types(obj, name):
    with pytest.raises(TypeError, match=f"cannot serialize {name}$"):
        emit_json(obj)


def _fmt_float_reference(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def emit_json_reference(obj, indent: int = 0) -> str:
    """emit_json with one recursive call per value, as it was before dict floats and strings were inlined."""
    cls = type(obj)  # the exact types first: they are nearly every value
    if cls is float:
        return _fmt_float_reference(obj)
    if cls is str or isinstance(obj, str):
        return _encode_str(obj)
    pad = "\n" + "  " * indent
    inner = pad + "  "
    if cls is dict or isinstance(obj, dict):
        if not obj:
            return "{}"
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"cannot serialize {type(k).__name__} key")
        items = [f"{inner}{_encode_str(k)}: {emit_json_reference(v, indent + 1)}" for k, v in obj.items()]
        return "{" + ",".join(items) + pad + "}"
    if cls is list or isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ",".join([inner + emit_json_reference(v, indent + 1) for v in obj]) + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
_json_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_json_leaves = st.one_of(
    _json_floats,
    _json_floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(st.characters(codec="utf-8")),
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f', " é\U0001f600", "n", "nan"]),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=5),
        st.dictionaries(st.text(max_size=4), kids, max_size=5),
        # now and then a key emit_json rejects
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(), st.none(), st.floats()), kids, max_size=3),
    ),
    max_leaves=25,
)


def _emitted(emit, obj):
    try:
        return emit(obj)
    except Exception as exc:
        return type(exc), str(exc)


@given(_json_trees)
@settings(max_examples=600)
def test_emit_json_is_the_one_call_per_value_reference(obj):
    assert _emitted(emit_json, obj) == _emitted(emit_json_reference, obj)
