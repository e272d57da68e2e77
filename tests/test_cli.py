import argparse
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prodfn.cli
from prodfn import CsvFormatError, ExponentialModel, ProdfnError, crs_elasticities, load_series, trajectory
from prodfn.cli import (
    MAX_GRID_POINTS,
    InputFormatError,
    _grid,
    _parse_grid,
    build_parser,
    function_from_dict,
    load_model_source,
    main,
    model_from_dict,
)
from prodfn.invariants import _deviation
from conftest import CD1928

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXAMPLE_MODEL_TEXT = (
    "var L = 106.65;  dL/dt = 0.02549605 * L;  role labor L;\n"
    "var K = 100.70;  dK/dt = 0.06472564 * K;  role capital K;\n"
    "var Y = 106.08;  dY/dt = 0.03592651 * Y;  role output Y;\n"
)

EQUAL_RATES_TEXT = (
    "var L = 1;  dL/dt = 0.5 * L;  role labor L;\n"
    "var K = 1;  dK/dt = 0.5 * K;  role capital K;\n"
    "var Y = 1;  dY/dt = 0.25 * Y;  role output Y;\n"
)


def write_exponential_csv(path, b=(0.02, 0.06, 0.035), ln0=(4.1, 4.2, 4.3), n=24):
    lines = ["year,L,K,Y"]
    for t in range(n):
        row = [str(1899 + t)] + [repr(math.exp(c + bb * t)) for bb, c in zip(b, ln0)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fit_args(csv_path):
    return [
        "fit",
        "--csv", str(csv_path),
        "--year-col", "year",
        "--labor-col", "L",
        "--capital-col", "K",
        "--output-col", "Y",
    ]


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_generators(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(csv)
    code, out, _ = run(capsys, *fit_args(csv))
    assert code == 0
    report = json.loads(out)
    assert report["model"]["b1"] == pytest.approx(0.02, rel=1e-12)
    assert report["model"]["b2"] == pytest.approx(0.06, rel=1e-12)
    assert report["model"]["b3"] == pytest.approx(0.035, rel=1e-12)
    assert report["model"]["base_year"] == 1899
    for role in ("labor", "capital", "output"):
        assert report["diagnostics"][role]["r_squared"] == 1.0
        assert report["diagnostics"][role]["n_points"] == 24


def test_fit_two_row_csv(tmp_path, capsys):
    csv = tmp_path / "two.csv"
    csv.write_text("year,L,K,Y\n1899,100,100,100\n1900,105,107,101\n")
    code, out, _ = run(capsys, *fit_args(csv))
    assert code == 0
    report = json.loads(out)
    assert report["diagnostics"]["labor"]["n_points"] == 2
    assert report["diagnostics"]["labor"]["r_squared"] == 1.0
    assert report["model"]["b1"] == pytest.approx(math.log(105.0 / 100.0), rel=1e-12)


def test_fit_normalize_pins_intercepts(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(csv)
    code, out, _ = run(capsys, *fit_args(csv), "--normalize")
    assert code == 0
    report = json.loads(out)
    # normalized series start at 100, so every intercept is ln(100)
    for key in ("ln_L0", "ln_K0", "ln_Y0"):
        assert report["model"][key] == pytest.approx(math.log(100.0), rel=1e-12)


def test_fit_is_deterministic(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(csv)
    _, out1, _ = run(capsys, *fit_args(csv))
    _, out2, _ = run(capsys, *fit_args(csv))
    assert out1 == out2


def test_fit_reports_csv_errors(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("year,L,K,Y\n1899,100,0,100\n1900,1,1,1\n")
    code, out, err = run(capsys, *fit_args(csv))
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert "row 2" in payload["error"]["message"]


def test_fit_reports_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    csv = tmp_path / "big.csv"
    csv.write_text("year,L,K,Y\n1899,1,1," + "1" * 140_000 + "\n")
    code, out, err = run(capsys, *fit_args(csv))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": {"type": "CsvFormatError", "message": "line 2: field larger than field limit (131072)"}
    }


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, *fit_args(tmp_path / "nope.csv"))
    assert code == 3
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# derive


def test_fit_then_derive_composes_losslessly(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(csv)
    _, fit_out, _ = run(capsys, *fit_args(csv))
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_out)

    code, derive_out, _ = run(
        capsys, "derive", "--from-fit", str(fit_path), "--family", "cobb-douglas"
    )
    assert code == 0
    report = json.loads(derive_out)
    assert report["model"] == json.loads(fit_out)["model"]


def test_derive_default_alpha_is_crs_value(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "cobb-douglas")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == pytest.approx(0.7341175376, abs=1e-9)
    assert report["crs"]["beta"] == pytest.approx(0.2658824627, abs=1e-9)
    assert report["function"]["type"] == "cobb-douglas"
    assert report["function"]["A"] == pytest.approx(1.01, abs=0.005)
    assert report["constancy"]["max_relative_deviation"] <= 1e-10
    assert report["warnings"] == []


def test_derive_fundamental_reports_both_power_laws(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "fundamental")
    assert code == 0
    report = json.loads(out)
    fns = [entry["function"] for entry in report["functions"]]
    assert [fn["input"] for fn in fns] == ["labor", "capital"]
    assert fns[0]["exponent"] == pytest.approx(0.03592651 / 0.02549605, rel=1e-12)
    assert fns[1]["exponent"] == pytest.approx(0.03592651 / 0.06472564, rel=1e-12)
    for entry in report["functions"]:
        assert entry["constancy"]["max_relative_deviation"] <= 1e-10


def test_derive_ces_reduction_via_spec(tmp_path, capsys):
    spec = tmp_path / "even.txt"
    spec.write_text(EQUAL_RATES_TEXT)
    code, out, _ = run(
        capsys, "derive", "--from-spec", str(spec), "--family", "ces", "--alpha", "0.4"
    )
    assert code == 0
    report = json.loads(out)
    fn = report["function"]
    assert fn["type"] == "ces"
    assert fn["A"] == pytest.approx(1.0)
    assert fn["p"] == pytest.approx(2.0)
    assert fn["v"] == pytest.approx(0.5)
    assert fn["sigma"] == pytest.approx(-1.0)
    assert any("sigma" in w for w in report["warnings"])
    assert report["crs"] is None  # b1 == b2: no CRS elasticities


def test_derive_alpha_fallback_warns(tmp_path, capsys):
    spec = tmp_path / "outside.txt"
    spec.write_text(
        "var L = 1; dL/dt = 0.02 * L; role labor L;\n"
        "var K = 1; dK/dt = 0.06 * K; role capital K;\n"
        "var Y = 1; dY/dt = 0.08 * Y; role output Y;\n"
    )
    code, out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "cobb-douglas")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == 0.5
    assert any("defaulting alpha to 0.5" in w for w in report["warnings"])
    assert any("outside (0, 1)" in w for w in report["warnings"])


@st.composite
def rates_near_a_tie(draw):
    """(b1, b2, b3) with b3 0 to 4 ulps from b1 or b2: the CRS alpha may round to 0 or 1."""
    rate = st.floats(min_value=-0.2, max_value=0.2)
    b1, b2 = draw(rate), draw(rate)
    assume(b1 != b2)
    b3 = draw(st.sampled_from((b1, b2)))
    toward = draw(st.sampled_from((-math.inf, math.inf)))
    for _ in range(draw(st.integers(0, 4))):
        b3 = math.nextafter(b3, toward)
    return b1, b2, b3


@pytest.fixture(scope="module")
def share_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("share")


@settings(max_examples=300, deadline=None)
@given(rates=rates_near_a_tie(), family=st.sampled_from(["cobb-douglas", "ces-like", "ces"]))
def test_one_share_rule_decides_the_crs_warning_and_the_default_alpha(share_dir, rates, family):
    model = ExponentialModel(*rates, 0.0, 0.0, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alpha = crs_elasticities(model)[0]
    assert bool(caught) == (not 0.0 < alpha < 1.0)
    path = share_dir / "model.json"
    path.write_text(json.dumps(dict(zip(("b1", "b2", "b3"), rates), ln_L0=0, ln_K0=0, ln_Y0=0)))
    code, _, err = _main_captured(["derive", "--from-fit", str(path), "--family", family])
    assert code in (0, 4)
    assert "alpha must lie strictly in (0, 1)" not in err


def test_derive_looks_up_each_derivation_when_called(tmp_path, capsys, monkeypatch):
    # a profiler that wraps the module attributes must see every derivation derive runs
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    called = []
    for name in ("cobb_douglas_member", "fundamental_invariant_K"):
        real = getattr(prodfn.cli, name)
        monkeypatch.setattr(prodfn.cli, name, lambda *a, _name=name, _real=real: called.append(_name) or _real(*a))
    for family in ("cobb-douglas", "fundamental"):
        assert run(capsys, "derive", "--from-spec", str(spec), "--family", family)[0] == 0
    assert called == ["cobb_douglas_member", "fundamental_invariant_K"]


def test_derive_rejects_bad_alpha(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, _, err = run(
        capsys, "derive", "--from-spec", str(spec), "--family", "cobb-douglas", "--alpha", "1.5"
    )
    assert code == 4
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_derive_ces_gate_failure(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, _, err = run(capsys, "derive", "--from-spec", str(spec), "--family", "ces")
    assert code == 4
    payload = json.loads(err)
    assert payload["error"]["type"] == "NotReducibleError"
    assert "growth rates differ" in payload["error"]["message"]


def test_derive_bad_spec_is_data_error(tmp_path, capsys):
    spec = tmp_path / "broken.txt"
    spec.write_text("var L = 1; dL/dt = 0.1 * K;")
    code, _, err = run(capsys, "derive", "--from-spec", str(spec), "--family", "cobb-douglas")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "OffDiagonalRateError"


# ---------------------------------------------------------------------------
# model loader

BARE_MODEL = {"b1": 0.02, "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3, "base_year": 0}
MODEL_SOURCES = {
    "text": EXAMPLE_MODEL_TEXT,
    "fit-report": json.dumps({"model": BARE_MODEL, "diagnostics": {}}),
    "bare-model": " \t\r\n" + json.dumps(BARE_MODEL),
}


@pytest.mark.parametrize("source", sorted(MODEL_SOURCES))
@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--from-fit", "{model}", "--family", "fundamental"],
        ["derive", "--from-spec", "{model}", "--family", "fundamental"],
        ["check", "--model", "{model}", "--function", "{fn}", "--grid", "0:4:1"],
        ["simulate", "--model", "{model}", "--grid", "0:2:1"],
    ],
    ids=["derive-from-fit", "derive-from-spec", "check", "simulate"],
)
def test_each_subcommand_opens_the_model_file_once(argv, source, tmp_path, capsys):
    model, fn = tmp_path / "model", tmp_path / "fn.json"
    model.write_text(MODEL_SOURCES[source])
    fn.write_text('{"type": "power-law", "input": "labor", "coeff": 1, "exponent": 1}')
    with mock.patch("prodfn.cli.open", create=True, side_effect=open) as spy:
        code, out, _ = run(capsys, *(arg.format(model=model, fn=fn) for arg in argv))
    assert code in (0, 1) and out
    assert [call.args[0] for call in spy.call_args_list].count(str(model)) == 1


@pytest.mark.parametrize("source", sorted(MODEL_SOURCES))
def test_from_fit_and_from_spec_read_every_model_source_alike(source, tmp_path, capsys):
    path = tmp_path / "model"
    path.write_text(MODEL_SOURCES[source])
    by_fit, by_spec = (
        run(capsys, "derive", flag, str(path), "--family", "cobb-douglas")
        for flag in ("--from-fit", "--from-spec")
    )
    assert by_fit == by_spec and by_fit[0] == 0


@pytest.mark.parametrize(
    "text, error, message",
    [
        ('{"b1": \n', "InputFormatError", "{path}: not valid JSON (Expecting value: line 2 column 1 (char 8))"),
        ("\n [0.02, 0.06]", "InputFormatError", "model JSON must be an object"),
        ("1.5\n", "ModelSyntaxError", "line 1, col 1: expected 'var', 'role', or 'd<NAME>/dt', got '1.5'"),
    ],
    ids=["broken-json", "json-array", "json-scalar-is-model-text"],
)
def test_a_leading_brace_or_bracket_alone_means_json(text, error, message, tmp_path):
    path = tmp_path / "model"
    path.write_text(text)
    with pytest.raises(ProdfnError) as ei:
        load_model_source(str(path))
    assert (type(ei.value).__name__, str(ei.value)) == (error, message.format(path=path))


# ---------------------------------------------------------------------------
# check


def test_check_self_derived_function_passes(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    _, derive_out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "cobb-douglas")
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(derive_out)  # a whole derive report is accepted

    table = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "check",
        "--model", str(spec),
        "--function", str(fn_path),
        "--grid", "0:24:0.5",
        "--table", str(table),
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_relative_deviation"] <= 1e-10
    assert report["grid"]["n"] == 49

    lines = table.read_text().splitlines()
    assert lines[0] == "t,Y_model,Y_fn,rel_dev"
    assert len(lines) == 50
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(106.08, rel=1e-12)


def test_check_without_a_table_reduces_a_long_grid_in_blocks(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    _, derive_out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "ces-like")
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(derive_out)
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "0:2400:0.0025"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    report = json.loads(out)
    t = _grid(0.0, 2400.0, 0.0025)
    assert report["grid"]["n"] == len(t) == 960_001
    fn = function_from_dict(json.loads(derive_out))
    whole = _deviation(fn, load_model_source(str(spec)), t)[2].max()
    assert report["max_relative_deviation"] == float(whole)
    # the grid takes 7.3 MiB, and twice that while it is built; the whole
    # grid's deviation at once would add about 40 MiB
    assert peak <= 24 * 2**20


def test_check_perturbed_function_fails(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(
        json.dumps({"type": "cobb-douglas", "A": 1.0099, "alpha": 0.734, "beta": 0.276})
    )
    code, out, _ = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "0:24:1"
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["max_relative_deviation"] > 1e-9


def test_check_single_point_grid_anchors_at_zero(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    _, derive_out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "ces-like")
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(derive_out)
    code, out, _ = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "0:0:1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["grid"]["n"] == 1
    assert report["max_relative_deviation"] <= 1e-12


def test_check_accepts_fit_json_as_model(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(csv)
    _, fit_out, _ = run(capsys, *fit_args(csv))
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_out)
    _, derive_out, _ = run(
        capsys, "derive", "--from-fit", str(fit_path), "--family", "fundamental"
    )
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(json.loads(derive_out)["functions"][0]["function"]))
    code, out, _ = run(
        capsys, "check", "--model", str(fit_path), "--function", str(fn_path), "--grid", "0:24:2"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_malformed_function_json(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    fn_path = tmp_path / "fn.json"
    fn_path.write_text('{"type": "mystery"}')
    code, _, err = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "0:24:1"
    )
    assert code == 3
    assert "unknown function type" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "{dir}/m.txt", "--function", "{dir}/deep.json", "--grid", "0:24:1"],
        ["derive", "--from-fit", "{dir}/deep.json", "--family", "cobb-douglas"],
    ],
    ids=["check-function", "derive-from-fit"],
)
def test_json_nested_too_deeply_is_a_data_error(argv, tmp_path, capsys):
    (tmp_path / "m.txt").write_text(EXAMPLE_MODEL_TEXT)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": {"type": "InputFormatError", "message": f"{tmp_path}/deep.json: JSON nested too deeply"}
    }


def test_check_usage_error_on_bad_grid(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["check", "--model", "m", "--function", "f", "--grid", "0:24"])
    assert ei.value.code == 2


def test_parse_grid_rejects_a_part_that_is_not_a_number():
    with pytest.raises(argparse.ArgumentTypeError, match="grid must be numeric, got '0:x:1'"):
        _parse_grid("0:x:1")


# ---------------------------------------------------------------------------
# numbers in options: the digit rule of CSV cells and JSON fields


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["derive", "--from-spec", "m", "--family", "cobb-douglas", "--alpha", "0_5"], "--alpha", "0_5"),
        (["derive", "--from-spec", "m", "--family", "cobb-douglas", "--horizon", "2_4"], "--horizon", "2_4"),
        (["check", "--model", "m", "--function", "f", "--grid", "0:1:1", "--tol", "1_0"], "--tol", "1_0"),
        (["simulate", "--model", "m", "--grid", "0:٢:1"], "--grid", "0:٢:1"),
        (["simulate", "--model", "m", "--grid", "1_0:20:1"], "--grid", "1_0:20:1"),
        (["derive", "--from-spec", "m", "--family", "cobb-douglas", "--alpha", "abc"], "--alpha", "abc"),
        (["derive", "--from-spec", "m", "--family", "cobb-douglas", "--horizon", "abc"], "--horizon", "abc"),
        (["check", "--model", "m", "--function", "f", "--grid", "0:1:1", "--tol", "abc"], "--tol", "abc"),
    ],
    ids=["alpha", "horizon", "tol", "grid-arabic-indic", "grid-separator", "alpha-abc", "horizon-abc", "tol-abc"],
)
def test_an_option_number_breaking_the_digit_rule_is_a_usage_error(argv, option, text, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and repr(text) in err
    assert "_read_number" not in err


def test_signed_exponent_and_nan_option_numbers_stay_accepted():
    parser = build_parser()
    args = parser.parse_args(["derive", "--from-spec", "m", "--family", "ces", "--horizon=-1", "--tol=nan"])
    assert args.horizon == -1.0 and math.isnan(args.tol)  # --tol=nan exits 4 later: golden check_tol_nan
    assert parser.parse_args(["simulate", "--model", "m", "--grid=-1e3:0:1"]).grid == (-1000.0, 0.0, 1.0)


def _digit_run(draw, min_size):
    # ASCII digits, Arabic-Indic two, fullwidth five and a digit separator
    return "".join(draw(st.lists(st.sampled_from("01579٢５_"), min_size=min_size, max_size=4)))


@st.composite
def number_texts(draw):
    sign = st.sampled_from(["", "+", "-"])
    text = draw(sign) + _digit_run(draw, 1)
    if draw(st.booleans()):
        text += "." + _digit_run(draw, 0)
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(sign) + _digit_run(draw, 1)
    pad = st.sampled_from(["", " ", "\xa0", "\u2003"])
    return draw(pad) + text + draw(pad)


def _csv_cell(text):
    try:
        return load_series(io.StringIO(f"year,v\n1899,{text}\n"), "year", ["v"])[0].values[0]
    except CsvFormatError:
        return None


def _json_field(text):
    try:
        return model_from_dict({**BARE_MODEL, "b1": text}).b1
    except InputFormatError:
        return None


def _horizon_option(text):
    argv = ["derive", "--from-spec", "m", "--family", "cobb-douglas", f"--horizon={text}"]
    try:
        with redirect_stderr(io.StringIO()):
            return build_parser().parse_args(argv).horizon
    except SystemExit:
        return None


@settings(max_examples=300, deadline=None)
@given(text=number_texts())
def test_a_csv_cell_a_json_field_and_an_option_read_a_number_alike(text):
    try:
        value = float(text)  # float() also reads "1_0" and non-ASCII digits
    except ValueError:
        value = None
    assume(value is None or (math.isfinite(value) and value > 0.0))  # what a CSV cell may hold
    read = _csv_cell(text)
    assert _json_field(text) == read and _horizon_option(text) == read
    if read is not None:
        assert read == value and text.strip().isascii() and "_" not in text


# ---------------------------------------------------------------------------
# simulate


def test_simulate_first_row_is_initial_levels(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, out, _ = run(capsys, "simulate", "--model", str(spec), "--grid", "0:3:1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,L,K,Y"
    t0 = lines[1].split(",")
    assert float(t0[1]) == pytest.approx(106.65, rel=1e-12)
    assert float(t0[2]) == pytest.approx(100.70, rel=1e-12)
    assert float(t0[3]) == pytest.approx(106.08, rel=1e-12)


def test_simulate_reference_model_at_t23(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_exponential_csv(
        csv,
        b=(CD1928.b1, CD1928.b2, CD1928.b3),
        ln0=(CD1928.ln_L0, CD1928.ln_K0, CD1928.ln_Y0),
    )
    _, fit_out, _ = run(capsys, *fit_args(csv))
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_out)
    code, out, _ = run(capsys, "simulate", "--model", str(fit_path), "--grid", "23:23:1")
    assert code == 0
    labor = float(out.splitlines()[1].split(",")[1])
    assert labor == pytest.approx(math.exp(4.66953290 + 23 * 0.02549605), rel=1e-9)


def test_simulate_zero_rates_constant(tmp_path, capsys):
    spec = tmp_path / "flat.txt"
    spec.write_text(
        "var L = 2; dL/dt = 0 * L; role labor L;\n"
        "var K = 3; dK/dt = 0 * K; role capital K;\n"
        "var Y = 4; dY/dt = 0 * Y; role output Y;\n"
    )
    code, out, _ = run(capsys, "simulate", "--model", str(spec), "--grid", "0:5:1")
    assert code == 0
    rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
    assert all(row == rows[0] for row in rows)


def test_simulate_on_a_grid_of_several_blocks_prints_each_row_as_format_17g(tmp_path, capsys):
    # the goldens cover 97 points; 10,001 points are ten blocks of the CSV writer
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, out, _ = run(capsys, "simulate", "--model", str(spec), "--grid=-100:2400:0.25")
    assert code == 0
    t = _grid(-100.0, 2400.0, 0.25)
    columns = [t.tolist(), *(c.tolist() for c in trajectory(load_model_source(str(spec)), t))]
    assert out == "t,L,K,Y\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(*columns))


def test_simulate_overflow_is_math_error(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    code, _, err = run(capsys, "simulate", "--model", str(spec), "--grid", "0:100000:100000")
    assert code == 4
    assert "overflows" in json.loads(err)["error"]["message"]


# ---------------------------------------------------------------------------
# export


def test_export_round_trips_values(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("year,L,K\n1899,106.65,100.7\n1900,109.1,107.43\n1901,111.9,114.62\n")
    code, out, _ = run(
        capsys,
        "export",
        "--csv", str(csv),
        "--year-col", "year",
        "--value-col", "L",
        "--value-col", "K",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year,L,K"
    assert [float(line.split(",")[1]) for line in lines[1:]] == [106.65, 109.1, 111.9]


def test_export_normalize(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("year,L\n1899,50\n1900,100\n1901,150\n")
    out_path = tmp_path / "norm.csv"
    code, _, _ = run(
        capsys,
        "export",
        "--csv", str(csv),
        "--year-col", "year",
        "--value-col", "L",
        "--normalize",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert [float(line.split(",")[1]) for line in lines[1:]] == [100.0, 200.0, 300.0]


def test_export_output_with_a_quoted_header_reads_back(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text('year,"L,1",K\n1899,106.65,100.7\n1900,109.1,107.43\n')
    argv = ["--year-col", "year", "--value-col", "L,1", "--value-col", "K"]
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    assert run(capsys, "export", "--csv", str(csv), *argv, "--out", str(once))[0] == 0
    assert run(capsys, "export", "--csv", str(once), *argv, "--out", str(twice))[0] == 0
    assert once.read_text().splitlines()[0] == 'year,"L,1",K'
    assert twice.read_bytes() == once.read_bytes()


# ---------------------------------------------------------------------------
# usage


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["derive", "--from-spec", "x", "--family", "translog"])
    assert ei.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# one deviation metric for the check verdict and the table

FUNCTIONS = {
    "power-law": {"type": "power-law", "input": "capital", "coeff": 8.2, "exponent": 0.555},
    "cobb-douglas": {"type": "cobb-douglas", "A": 1.0099, "alpha": 0.734, "beta": 0.276},
    "generalized-ces": {
        "type": "generalized-ces", "cK": 2e25, "cL": 1.85e-24, "alpha": 0.734,
        "eK": 15.45, "eL": 39.22, "outer": 0.0359,
    },
    "ces": {"type": "ces", "A": 1.0, "alpha": 0.4, "p": 2.0, "v": 0.5},
}


@pytest.mark.parametrize("kind", sorted(FUNCTIONS))
def test_check_verdict_is_max_of_table_column(tmp_path, capsys, kind):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(FUNCTIONS[kind]))
    table = tmp_path / "table.csv"
    _, out, _ = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path),
        "--grid", "0:200:0.5", "--table", str(table),
    )
    rel_dev = [float(line.split(",")[3]) for line in table.read_text().splitlines()[1:]]
    assert json.loads(out)["max_relative_deviation"] == max(rel_dev)


def test_check_power_law_with_doubled_coeff_fails(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    _, derive_out, _ = run(capsys, "derive", "--from-spec", str(spec), "--family", "fundamental")
    fn = json.loads(derive_out)["functions"][0]["function"]
    fn["coeff"] *= 2.0
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(fn))
    code, out, _ = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "0:24:1"
    )
    assert code == 1
    assert json.loads(out)["max_relative_deviation"] > 0.9


# ---------------------------------------------------------------------------
# one time grid for check, simulate and the derive horizon


def test_check_reversed_grid_is_math_error(tmp_path, capsys):
    spec = tmp_path / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(FUNCTIONS["cobb-douglas"]))
    code, out, err = run(
        capsys, "check", "--model", str(spec), "--function", str(fn_path), "--grid", "5:0:1"
    )
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("h", [12.2, 24.2])
def test_grid_stops_at_or_before_horizon(h):
    assert _grid(0.0, h, 0.25)[-1] <= h


@pytest.mark.parametrize("h", [0.0, 12.0, 24.0])
def test_grid_equals_former_derive_grid(h):
    assert _grid(0.0, h, 0.25).tobytes() == np.arange(0.0, h + 0.125, 0.25).tobytes()


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    real_arange = np.arange

    def bounded_arange(n, *rest, **kwargs):
        assert not rest and n <= MAX_GRID_POINTS, (n, rest)
        return real_arange(n, **kwargs)

    with mock.patch.object(np, "arange", bounded_arange), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_total(code, out, err):
    assert code in (0, 1, 4)
    if code == 4:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.fixture(scope="module")
def model_and_function(tmp_path_factory):
    work = tmp_path_factory.mktemp("grid")
    spec = work / "m.txt"
    spec.write_text(EXAMPLE_MODEL_TEXT)
    fn_path = work / "fn.json"
    fn_path.write_text(json.dumps(FUNCTIONS["cobb-douglas"]))
    return str(spec), str(fn_path)


@settings(max_examples=150, deadline=None)
@given(start=st.floats(), stop=st.floats(), step=st.floats())
def test_check_any_grid_ends_in_a_typed_exit(model_and_function, start, stop, step):
    spec, fn_path = model_and_function
    grid = f"--grid={start!r}:{stop!r}:{step!r}"  # '=' keeps a leading '-' a value
    _assert_total(*_main_captured(["check", "--model", spec, "--function", fn_path, grid]))


@settings(max_examples=100, deadline=None)
@given(horizon=st.floats())
def test_derive_any_horizon_ends_in_a_typed_exit(model_and_function, horizon):
    spec, _ = model_and_function
    argv = ["derive", "--from-spec", spec, "--family", "cobb-douglas", f"--horizon={horizon!r}"]
    _assert_total(*_main_captured(argv))


# ---------------------------------------------------------------------------
# no logging: each case runs a fresh interpreter, so nothing a test imported or configured counts


def _python(work, *args, log_value=None):
    env = {k: v for k, v in os.environ.items() if k != "PRODFN_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if log_value is not None:
        env["PRODFN_LOG"] = log_value
    run = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def test_importing_the_cli_loads_no_logging_machinery(tmp_path):
    code = "import sys; old = set(sys.modules); import prodfn.cli; print(*set(sys.modules) - old)"
    loaded = set(_python(tmp_path, "-c", code)[1].split())
    assert "prodfn.cli" in loaded
    assert not {"logging", "traceback", "string"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        fit_args("data.csv"),
        ["derive", "--from-spec", "m.txt", "--family", "fundamental"],
        ["check", "--model", "m.txt", "--function", "fn.json", "--grid", "0:24:1"],
    ],
    ids=["fit", "derive", "check"],
)
def test_a_leftover_prodfn_log_changes_nothing(argv, tmp_path):
    write_exponential_csv(tmp_path / "data.csv")
    (tmp_path / "m.txt").write_text(EXAMPLE_MODEL_TEXT)
    (tmp_path / "fn.json").write_text(json.dumps(FUNCTIONS["cobb-douglas"]))
    unset, debug, verbose = (_python(tmp_path, "-m", "prodfn", *argv, log_value=v) for v in (None, "debug", "verbose"))
    assert debug == verbose == unset
    code, out, err = unset
    assert out and (code != 0 or err == "")  # `check` exits 1 here: the function is perturbed


# ---------------------------------------------------------------------------
# a fresh interpreter shows any warning that escapes the CLI; the golden replay ignores them


def test_an_overflowing_rate_times_t_writes_only_its_error_line(tmp_path):
    (tmp_path / "m.txt").write_text(EQUAL_RATES_TEXT.replace("0.5", "5").replace("0.25", "5"))
    argv = ["simulate", "--model", "m.txt", "--grid=0:1e308:1e303"]
    code, out, err = _python(tmp_path, "-W", "always", "-m", "prodfn", *argv)
    assert (code, out) == (4, "")
    assert err == '{"error": {"type": "DomainError", "message": "L(t) overflows at t = 1e+303"}}\n'
