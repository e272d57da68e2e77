"""Golden CLI corpus: the exact outcome of `main(argv)` for a fixed set of calls.

Each case writes the input files below into a fresh directory, runs the CLI
in process and compares exit code, stdout, stderr and the `out.csv` file
(`check --table`, `export --out`) with `tests/data/cli_golden/<case>.txt`,
byte for byte.  The directory path is written as `{dir}` in the golden text.
Each case is also replayed with `python -m prodfn` in a fresh interpreter.
After a deliberate change of output, rewrite the golden files with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import prodfn
from prodfn.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def _rates(b1, b2, b3, levels=(1, 1, 1)):
    return "".join(
        f"var {v} = {x}; d{v}/dt = {b} * {v}; role {role} {v};\n"
        for v, x, b, role in zip("LKY", levels, (b1, b2, b3), ("labor", "capital", "output"))
    )


INPUTS = {
    # models
    "m.txt": _rates(0.02549605, 0.06472564, 0.03592651, (106.65, 100.70, 106.08)),
    "even.txt": _rates(0.5, 0.5, 0.25),
    "near.txt": _rates(0.02, 0.0201, 0.03),
    "outside.txt": _rates(0.02, 0.06, 0.08),
    "zero.txt": _rates(0, 0.06, 0.03),
    "inf_rate.txt": _rates("1e999", 0.06, 0.03),
    "underflow.txt": _rates(0.02, 0.03, 0.1),
    "crs_not_finite.txt": _rates("1e308", "-1e308", "1e308"),
    # b3 a few ulps from b1: alpha = (b3 - b2)/(b1 - b2) rounds to 1
    "crs_rounds.txt": _rates("-0.000912982581611807", "-0.01010178704225237", "-0.0009129825816118074"),
    "uneven.txt": _rates(0.02, 0.06, 0.03, (1, 2, 3)),
    "rate5.txt": _rates(5, 5, 5),
    "still.txt": _rates(0, 0, 0),
    "bad.mdl": "var L = 1; dL/dt = 0.1 * K;",
    "arabic_indic.txt": _rates(0.02549605, 0.06472564, 0.03592651, ("١٠٦.65", 100.70, 106.08)),
    "fit.json": (
        '{"model": {"b1": 0.02549605, "b2": 0.06472564, "b3": 0.03592651, '
        '"ln_L0": 4.66953290, "ln_K0": 4.61213588, "ln_Y0": 4.66415363, '
        '"base_year": 1899}, "diagnostics": {}}\n'
    ),
    "bare.json": '{"b1": 0.02, "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3}\n',
    "badmodel.json": '{"model": {"b1": 0.1}}\n',
    "overflow.json": '{"b1": 0.001, "b2": 0.002, "b3": 1, "ln_L0": -1, "ln_K0": -1, "ln_Y0": 0}\n',
    "digits.json": '{"b1": ' + "1" * 5000 + ', "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3}\n',
    "year_overflow.json": '{"b1": 0.02, "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3, "base_year": 1e400}\n',
    "year_fraction.json": '{"b1": 0.02, "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3, "base_year": 1899.7}\n',
    "boolean.json": '{"b1": true, "b2": 0.06, "b3": 0.035, "ln_L0": 4.1, "ln_K0": 4.2, "ln_Y0": 4.3, "base_year": false}\n',
    "notjson.txt": "{not json\n",
    "latin1.txt": _rates(0.02, 0.06, 0.03).encode("utf-8") + b"\xe9\n",
    # functions
    "pl_labor.json": (
        '{"type": "power-law", "input": "labor", '
        '"coeff": 0.14724203118966941, "exponent": 1.4091010176086101}\n'
    ),
    "pl_capital.json": (
        '{"type": "power-law", "input": "capital", '
        '"coeff": 8.2004027663784704, "exponent": 0.55505839725957129}\n'
    ),
    "pl_labor_2x.json": (
        '{"type": "power-law", "input": "labor", '
        '"coeff": 0.29448406237933883, "exponent": 1.4091010176086101}\n'
    ),
    "pl_capital_coeff1.json": (
        '{"type": "power-law", "input": "capital", "coeff": 1, "exponent": 0.55505839725957129}\n'
    ),
    "cd.json": (
        '{"type": "cobb-douglas", "A": 1.0099537136356771, '
        '"alpha": 0.73411753729773876, "beta": 0.26588246270226118}\n'
    ),
    "cd_perturbed.json": '{"type": "cobb-douglas", "A": 1.0099, "alpha": 0.734, "beta": 0.276}\n',
    "cd_strings.json": (
        '{"type": "cobb-douglas", "A": "1.0099537136356771", '
        '"alpha": "0.73411753729773876", "beta": "0.26588246270226118"}\n'
    ),
    "cd_separator.json": '{"type": "cobb-douglas", "A": 1.0099537136356771, "alpha": "0_5", "beta": 0.5}\n',
    "gces.json": (
        '{"type": "generalized-ces", "cK": 2.0044789522659107e+25, '
        '"cL": 1.8500712125395469e-24, "alpha": 0.73411753729773876, '
        '"eK": 15.449827919816629, "eL": 39.221761802318397, "outer": 0.035926510000000002}\n'
    ),
    "gces_negative.json": (
        '{"type": "generalized-ces", "cK": -1, "cL": 1, "alpha": 0.5, "eK": 1, "eL": 1, "outer": 1}\n'
    ),
    "ces.json": '{"type": "ces", "A": 1, "alpha": 0.4, "p": 2, "v": 0.5, "sigma": -1}\n',
    "report_cd.json": (
        '{"family": "cobb-douglas", "alpha": 0.7341175372977388, "function": '
        '{"type": "cobb-douglas", "A": 1.009953713635677, "alpha": 0.7341175372977388, '
        '"beta": 0.2658824627022612}, "constancy": {"horizon": 24, "step": 0.25, '
        '"max_relative_deviation": 1.0442835999700783e-15}, "crs": {"alpha": '
        '0.7341175372977388, "beta": 0.2658824627022613}, "warnings": [], "model": '
        '{"b1": 0.02549605, "b2": 0.06472564, "b3": 0.03592651, "ln_L0": 4.669552444917359, '
        '"ln_K0": 4.612145799724517, "ln_Y0": 4.664193526437552, "base_year": 0}}\n'
    ),
    "report_fundamental.json": '{"family": "fundamental", "alpha": null, "functions": []}\n',
    "unknown.json": '{"type": "mystery"}\n',
    "missing.json": '{"type": "cobb-douglas", "A": 1.0, "alpha": 0.5}\n',
    "bad_factor.json": '{"type": "power-law", "input": "land", "coeff": 1, "exponent": 1}\n',
    "list.json": "[1, 2]\n",
    "cd_digits.json": '{"type": "cobb-douglas", "A": ' + "1" * 5000 + ', "alpha": 0.5, "beta": 0.5}\n',
    "latin1.json": b'{"type": "cobb-douglas", "A": 1, "alpha": 0.5, "beta": 0.5, "note": "\xe9"}\n',
    # series
    "data.csv": (
        "year,L,K,Y\n1899,100,100,100\n1900,101,107,105\n1901,105,114,110\n"
        "1902,110,122,115\n1903,107,131,121\n1904,113,138,122\n"
    ),
    "zero.csv": "year,L,K,Y\n1899,100,0,100\n1900,1,1,1\n",
    # numpy's reader refuses a quote, so load_series' record loop reads these two
    "quoted_header_fit.csv": (
        'year,"L",K,"Y"\n1899,100,100,100\n1900,101,107,105\n1901,105,114,110\n'
        "1902,110,122,115\n1903,107,131,121\n1904,113,138,122\n"
    ),
    # a non-numeric cell in row 2, then a cell over the csv field size limit in row 3
    "two_faults.csv": 'year,L,K,Y\n1899,"1\n00",100,100\n1900,1' + "0" * csv.field_size_limit() + ",1,1\n",
    "two.csv": "year,L,K\n1899,106.65,100.7\n1900,109.1,107.43\n1901,111.9,114.62\n",
    "quoted.csv": 'year,"L,1",K\n1899,106.65,100.7\n1900,109.1,107.43\n',
}
# a byte order mark first, as Excel's "CSV UTF-8" writes it: numpy's reader, the record loop, then JSON
INPUTS |= {f"bom_{name}": "\ufeff" + INPUTS[name] for name in ("data.csv", "quoted.csv", "fit.json")}

FIT = "fit --year-col year --labor-col L --capital-col K --output-col Y --csv {dir}/"
TABLE = " --table {dir}/out.csv"

CASES = [
    ("fit", FIT + "data.csv"),
    ("fit_normalize", FIT + "data.csv --normalize"),
    ("fit_zero_value", FIT + "zero.csv"),
    ("fit_missing_file", FIT + "nope.csv"),
    ("fit_quoted_header", FIT + "quoted_header_fit.csv"),
    ("fit_first_of_two_faults", FIT + "two_faults.csv"),
    ("fit_byte_order_mark", FIT + "bom_data.csv"),
    ("derive_spec_fundamental", "derive --from-spec {dir}/m.txt --family fundamental"),
    ("derive_spec_cobb_douglas", "derive --from-spec {dir}/m.txt --family cobb-douglas"),
    ("derive_spec_ces_like", "derive --from-spec {dir}/m.txt --family ces-like"),
    ("derive_spec_ces_gate", "derive --from-spec {dir}/m.txt --family ces"),
    ("derive_even_ces", "derive --from-spec {dir}/even.txt --family ces --alpha 0.4"),
    ("derive_near_ces_tol", "derive --from-spec {dir}/near.txt --family ces --alpha 0.5 --tol 0.01"),
    ("derive_near_ces_default_alpha", "derive --from-spec {dir}/near.txt --family ces --tol 0.01"),
    ("derive_outside_cobb_douglas", "derive --from-spec {dir}/outside.txt --family cobb-douglas"),
    ("derive_crs_share_rounds", "derive --from-spec {dir}/crs_rounds.txt --family cobb-douglas"),
    ("derive_fundamental_no_share", "derive --from-spec {dir}/outside.txt --family fundamental"),
    ("derive_zero_fundamental", "derive --from-spec {dir}/zero.txt --family fundamental"),
    ("derive_infinite_rate", "derive --from-spec {dir}/inf_rate.txt --family cobb-douglas"),
    ("derive_crs_not_finite", "derive --from-spec {dir}/crs_not_finite.txt --family cobb-douglas --horizon 0"),
    ("derive_bad_alpha", "derive --from-spec {dir}/m.txt --family cobb-douglas --alpha 1.5"),
    ("derive_bad_spec", "derive --from-spec {dir}/bad.mdl --family cobb-douglas"),
    ("derive_spec_non_ascii_digit", "derive --from-spec {dir}/arabic_indic.txt --family cobb-douglas"),
    ("derive_spec_missing", "derive --from-spec {dir}/nope.txt --family cobb-douglas"),
    ("derive_fit_fundamental", "derive --from-fit {dir}/fit.json --family fundamental"),
    (
        "derive_fit_cobb_douglas_horizon",
        "derive --from-fit {dir}/fit.json --family cobb-douglas --alpha 0.3 --horizon 12",
    ),
    ("derive_bare_ces_like", "derive --from-fit {dir}/bare.json --family ces-like"),
    ("derive_horizon_nan", "derive --from-spec {dir}/m.txt --family cobb-douglas --horizon nan"),
    ("derive_horizon_inf", "derive --from-spec {dir}/m.txt --family cobb-douglas --horizon inf"),
    ("derive_fit_byte_order_mark", "derive --from-fit {dir}/bom_fit.json --family cobb-douglas"),
    ("derive_fit_not_json", "derive --from-fit {dir}/notjson.txt --family cobb-douglas"),
    ("derive_fit_bad_model", "derive --from-fit {dir}/badmodel.json --family cobb-douglas"),
    ("derive_fit_too_many_digits", "derive --from-fit {dir}/digits.json --family cobb-douglas"),
    ("derive_fit_base_year_overflow", "derive --from-fit {dir}/year_overflow.json --family cobb-douglas"),
    ("derive_fit_base_year_fraction", "derive --from-fit {dir}/year_fraction.json --family cobb-douglas"),
    ("derive_fit_boolean_field", "derive --from-fit {dir}/boolean.json --family cobb-douglas"),
    ("derive_ces_tol_nan", "derive --from-spec {dir}/uneven.txt --family ces --alpha 0.5 --tol=nan"),
    ("derive_fundamental_overflow", "derive --from-fit {dir}/overflow.json --family fundamental"),
    ("check_power_law_labor", "check --model {dir}/m.txt --function {dir}/pl_labor.json --grid 0:24:0.5" + TABLE),
    ("check_power_law_capital", "check --model {dir}/m.txt --function {dir}/pl_capital.json --grid 0:24:1" + TABLE),
    ("check_power_law_coeff_doubled", "check --model {dir}/m.txt --function {dir}/pl_labor_2x.json --grid 0:24:1" + TABLE),
    ("check_power_law_coeff_one", "check --model {dir}/m.txt --function {dir}/pl_capital_coeff1.json --grid 0:24:1"),
    ("check_cobb_douglas", "check --model {dir}/m.txt --function {dir}/cd.json --grid 0:24:0.5" + TABLE),
    ("check_cobb_douglas_perturbed", "check --model {dir}/m.txt --function {dir}/cd_perturbed.json --grid 0:24:1" + TABLE),
    ("check_numeric_strings", "check --model {dir}/m.txt --function {dir}/cd_strings.json --grid 0:24:1"),
    ("check_digit_separator", "check --model {dir}/m.txt --function {dir}/cd_separator.json --grid 0:24:1"),
    ("check_generalized_ces", "check --model {dir}/m.txt --function {dir}/gces.json --grid 0:24:0.5" + TABLE),
    ("check_generalized_ces_single_point", "check --model {dir}/m.txt --function {dir}/gces.json --grid 0:0:1"),
    ("check_generalized_ces_negative_coeff", "check --model {dir}/m.txt --function {dir}/gces_negative.json --grid 0:24:1"),
    ("check_ces", "check --model {dir}/even.txt --function {dir}/ces.json --grid 0:10:0.5 --tol 1e-12" + TABLE),
    ("check_derive_report", "check --model {dir}/m.txt --function {dir}/report_cd.json --grid 0:24:2"),
    ("check_fit_model", "check --model {dir}/fit.json --function {dir}/cd.json --grid 0:24:4" + TABLE),
    ("check_unknown_type", "check --model {dir}/m.txt --function {dir}/unknown.json --grid 0:24:1"),
    ("check_missing_key", "check --model {dir}/m.txt --function {dir}/missing.json --grid 0:24:1"),
    ("check_bad_factor", "check --model {dir}/m.txt --function {dir}/bad_factor.json --grid 0:24:1"),
    ("check_function_not_object", "check --model {dir}/m.txt --function {dir}/list.json --grid 0:24:1"),
    ("check_several_functions", "check --model {dir}/m.txt --function {dir}/report_fundamental.json --grid 0:24:1"),
    ("check_function_not_json", "check --model {dir}/m.txt --function {dir}/notjson.txt --grid 0:24:1"),
    ("check_function_too_many_digits", "check --model {dir}/m.txt --function {dir}/cd_digits.json --grid 0:24:1"),
    ("check_tol_nan", "check --model {dir}/m.txt --function {dir}/cd.json --grid 0:24:1 --tol=nan"),
    ("check_grid_infinite", "check --model {dir}/m.txt --function {dir}/cd.json --grid 0:inf:1"),
    ("check_model_directory", "check --model {dir} --function {dir}/cd.json --grid 0:24:1"),
    ("check_model_not_utf8", "check --model {dir}/latin1.txt --function {dir}/cd.json --grid 0:24:1"),
    ("check_function_not_utf8", "check --model {dir}/m.txt --function {dir}/latin1.json --grid 0:24:1"),
    ("check_bad_model_text", "check --model {dir}/bad.mdl --function {dir}/cd.json --grid 0:24:1"),
    ("check_bad_model_json", "check --model {dir}/badmodel.json --function {dir}/cd.json --grid 0:24:1"),
    ("check_trajectory_underflow", "check --model {dir}/underflow.txt --function {dir}/cd.json --grid=-8000:-7999:1"),
    # STEP 1 is below the float spacing (2) at 1e16, so the grid would repeat points
    ("check_grid_step_below_spacing", "check --model {dir}/still.txt --function {dir}/cd.json --grid=1e16:1.0000000000000004e16:1"),
    ("simulate_spec", "simulate --model {dir}/m.txt --grid 0:3:1"),
    ("simulate_fit", "simulate --model {dir}/fit.json --grid 0:24:6"),
    ("simulate_bare", "simulate --model {dir}/bare.json --grid 0:2:0.5"),
    ("simulate_grid_too_large", "simulate --model {dir}/m.txt --grid 0:1e12:1e-3"),
    ("simulate_overflow", "simulate --model {dir}/m.txt --grid 0:100000:100000"),
    # b * t overflows although t is finite
    ("simulate_rate_times_t_overflows", "simulate --model {dir}/rate5.txt --grid=0:1e308:1e303"),
    ("simulate_trajectory_underflow", "simulate --model {dir}/underflow.txt --grid=-8000:-7999:1"),
    ("simulate_grid_step_below_spacing", "simulate --model {dir}/still.txt --grid=1e16:1.0000000000000004e16:1"),
    ("export", "export --csv {dir}/two.csv --year-col year --value-col L --value-col K"),
    ("export_normalize_out", "export --csv {dir}/two.csv --year-col year --value-col K --normalize --out {dir}/out.csv"),
    ("export_same_column_twice", "export --csv {dir}/two.csv --year-col year --value-col L --value-col L"),
    ("export_quoted_header", "export --csv {dir}/quoted.csv --year-col year --value-col L,1 --value-col K --out {dir}/out.csv"),
    ("export_byte_order_mark", "export --csv {dir}/bom_quoted.csv --year-col year --value-col L,1 --value-col K"),
]


def write_inputs(workdir: Path) -> None:
    """Write every file of INPUTS into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def render(workdir: Path, argv: str, code: int, stdout: str, stderr: str) -> str:
    """Render everything one case produced in `workdir` as text."""
    parts = [
        f"$ prodfn {argv}",
        f"exit {code}",
        "--- stdout",
        stdout,
        "--- stderr",
        stderr.replace(str(workdir), "{dir}"),
    ]
    table = workdir / "out.csv"
    if table.exists():
        parts += ["--- out.csv", table.read_bytes().decode("utf-8")]
    return "\n".join(parts)


def outcome(workdir: Path, argv: str) -> str:
    """Run one case in process in `workdir` and render it."""
    write_inputs(workdir)
    out, err = io.StringIO(), io.StringIO()
    # warnings outside the CLI's own recording would reach stderr only
    # when pytest does not capture them; keep the rendering independent of that
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([arg.format(dir=workdir) for arg in argv.split()])
    return render(workdir, argv, code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_golden(name, argv, tmp_path):
    want = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert outcome(tmp_path, argv) == want


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_golden_in_a_fresh_interpreter(name, argv, tmp_path):
    # the in-process replay ignores warnings; a fresh interpreter prints any that escape to stderr.
    # The child's environment is PYTHONPATH and PYTHONDONTWRITEBYTECODE alone: no PYTHONWARNINGS, PYTHONDEVMODE or
    # NPY_DISABLE_CPU_FEATURES, and no bytecode written into the source tree
    write_inputs(tmp_path)
    args = [arg.format(dir=tmp_path) for arg in argv.split()]
    src = str(Path(prodfn.__file__).resolve().parent.parent)  # the prodfn this process imported
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "prodfn", *args], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    want = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert render(tmp_path, argv, run.returncode, run.stdout.decode("utf-8"), run.stderr.decode("utf-8")) == want


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            text = outcome(Path(tmp) / name, argv)
            (GOLDEN / f"{name}.txt").write_bytes(text.encode("utf-8"))
    sys.stdout.write(f"wrote {len(CASES)} golden files to {GOLDEN}\n")
