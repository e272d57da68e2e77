import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodfn.cli import MAX_GRID_POINTS, _grid, main
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
# PRODFN_LOG, read once per process, so each case runs the CLI in a subprocess


def _run_cli(work, log_value, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PRODFN_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if log_value is not None:
        env["PRODFN_LOG"] = log_value
    return subprocess.run(
        [sys.executable, "-m", "prodfn", *argv], cwd=work, env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def log_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("log")
    (work / "m.txt").write_text(EXAMPLE_MODEL_TEXT)
    (work / "fn.json").write_text(json.dumps(FUNCTIONS["cobb-douglas"]))
    return work


def test_log_debug_writes_one_constancy_line_per_derived_function(log_work):
    derive = _run_cli(log_work, "debug", "derive", "--from-spec", "m.txt", "--family", "fundamental")
    assert derive.returncode == 0
    lines = derive.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("DEBUG:prodfn.invariants:constancy over 97 grid points") for line in lines)
    check = _run_cli(log_work, "debug", "check", "--model", "m.txt", "--function", "fn.json", "--grid", "0:24:1")
    assert check.returncode == 1  # the perturbed function fails; the point is the empty log
    assert check.stderr == ""


def test_log_unknown_value_warns_once_and_leaves_stdout_alone(log_work):
    argv = ("derive", "--from-spec", "m.txt", "--family", "cobb-douglas")
    unset = _run_cli(log_work, None, *argv)
    verbose = _run_cli(log_work, "verbose", *argv)
    assert unset.returncode == verbose.returncode == 0
    assert verbose.stdout == unset.stdout
    assert unset.stderr == ""
    lines = verbose.stderr.splitlines()
    assert len(lines) == 1
    assert "'verbose'" in lines[0]
