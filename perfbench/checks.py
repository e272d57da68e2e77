"""Checks applied to every op.  An op succeeds only if its check passes.

Each check returns None on success or the reason the op failed.  A reason
is a defect id from `spec.DEFECTS` when the input was generated to trigger
that defect and the failure has its signature, and starts with
"unexplained:" otherwise; a run with any unexplained failure is reported as
incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import CD1928, GRID_START, GRID_STEP

TOL_CONSTANCY = 1e-9  # acceptance criterion 4
TOL_CRS_SUM = 1e-12  # alpha + beta == 1 to rounding (acceptance criterion 3)
TOL_FIT = 1e-9  # slope recovered from exact exponential data
TOL_CLOSED_FORM = 1e-12  # trajectory values against math.exp
# CD1928 headline figures and their acceptance-suite tolerances
CD1928_PINS = {"alpha": (0.7341175376, 1e-9), "beta": (0.2658824627, 1e-9), "A": (1.01, 0.005)}


def unexplained(what: str) -> str:
    return "unexplained: " + what


def check_pins(alpha: float, beta: float, A: float) -> str | None:
    for name, got in (("alpha", alpha), ("beta", beta), ("A", A)):
        want, tol = CD1928_PINS[name]
        if not abs(got - want) <= tol:
            return unexplained(f"CD1928 {name} = {got!r}, want {want} +- {tol}")
    return None


def pin_cd1928(pf) -> str | None:
    """Check the CD1928 headline figures through the library."""
    model = pf.ExponentialModel(**CD1928, base_year=1899)
    alpha, beta = pf.crs_elasticities(model)
    return check_pins(alpha, beta, pf.cobb_douglas_member(model, alpha).A)


def classify_exception(exc: BaseException, where: str, kind: str | None = None) -> str:
    """Name an untyped exception.  Typed rejections are handled by the caller.

    It is D1 only on a fleet model generated to trigger D1 (kind "overflow");
    the same exception from any other input is unexplained.
    """
    if isinstance(exc, OverflowError) and where == "ces_like_member" and kind == "overflow":
        return "D1"
    return unexplained(f"{type(exc).__name__} in {where}: {exc}")


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# library ops


# Derivations that must end in a typed rejection, by fleet model kind.
FLEET_REJECTED = {
    "regular": set(),
    "reducible": {"crs_elasticities"},
    "share": {"cobb_douglas_member", "ces_like_member"},
    "overflow": {"ces_like_member"},
}


def check_fleet(m: dict, out: dict, pf, cli) -> str | None:
    """`out` is what ops.fleet_op returned for model `m`."""
    if "exc" in out:
        return classify_exception(out["exc"], out["where"], m["kind"])
    expected_rejections = FLEET_REJECTED[m["kind"]]
    for name, exc in out["errors"].items():
        if not isinstance(exc, pf.ProdfnError):
            return classify_exception(exc, name, m["kind"])
        if name not in expected_rejections:
            return unexplained(f"{name} rejected an in-domain model: {exc}")
    for name in expected_rejections:
        if name not in out["errors"]:
            return unexplained(f"{name} accepted a model outside its domain")
    crs = out["crs"]
    if crs is not None and not abs(crs[0] + crs[1] - 1.0) <= TOL_CRS_SUM:
        return unexplained(f"crs alpha + beta = {crs[0] + crs[1]!r}")
    for name, fn, dev in out["built"]:
        if not dev <= TOL_CONSTANCY:
            return unexplained(f"{name} constancy deviation {dev!r}")
        if name == "cobb_douglas_member" and crs is not None and not abs(fn.alpha + fn.beta - 1.0) <= TOL_CRS_SUM:
            return unexplained(f"CRS Cobb-Douglas alpha + beta = {fn.alpha + fn.beta!r}")
    report = json.loads(out["json"])
    if cli.model_from_dict(report["model"]) != out["model"]:
        return unexplained("model does not round-trip through emit_json")
    entries = report["functions"]
    if len(entries) != len(out["built"]):
        return unexplained("emitted report lost functions")
    for entry, (name, fn, _) in zip(entries, out["built"]):
        if cli.function_from_dict(entry) != fn:
            return unexplained(f"{name} does not round-trip through emit_json/function_from_dict")
    return None


def check_bulk(f: dict, out: dict, grid_stop: float) -> str | None:
    """`out` is what ops.bulk_op returned for bulk file `f`."""
    if "exc" in out:
        return classify_exception(out["exc"], out["where"])
    model = out["model"]
    for got, want in zip((model.b1, model.b2, model.b3), f["b"]):
        if not _rel(got, want) <= TOL_FIT:
            return unexplained(f"fitted rate {got!r}, generated {want!r}")
    if not abs(out["alpha"] + out["beta"] - 1.0) <= TOL_CRS_SUM:
        return unexplained(f"crs alpha + beta = {out['alpha'] + out['beta']!r}")
    for dev in out["devs"]:
        if not dev <= TOL_CONSTANCY:
            return unexplained(f"constancy deviation {dev!r}")
    L_end, Y_end = out["L_end"], out["Y_end"]
    if not (_rel(L_end, math.exp(model.ln_L0 + model.b1 * grid_stop)) <= TOL_CLOSED_FORM
            and _rel(Y_end, math.exp(model.ln_Y0 + model.b3 * grid_stop)) <= TOL_CLOSED_FORM):
        return unexplained("trajectory end point differs from the closed form")
    lines = out["written"].splitlines()
    series = out["series"]
    if len(lines) != len(series[0]) + 1 or lines[0] != "year,L,K,Y":
        return unexplained("write_series output has the wrong shape")
    for i in (0, len(series[0]) // 2, len(series[0]) - 1):
        cells = lines[i + 1].split(",")
        if int(cells[0]) != series[0].years[i] or [float(c) for c in cells[1:]] != [s.values[i] for s in series]:
            return unexplained(f"write_series row {i + 2} does not re-read to the series")
    return None


# ---------------------------------------------------------------------------
# CLI ops


def _json_error_line(stderr: bytes) -> bool:
    lines = stderr.decode("utf-8", "replace").splitlines()
    if len(lines) != 1:
        return False
    try:
        err = json.loads(lines[0])["error"]
        return isinstance(err["type"], str) and isinstance(err["message"], str)
    except (ValueError, KeyError, TypeError):
        return False


def _shows_defect(defect: str | None, code: int, stderr: bytes) -> bool:
    """Whether a failed call has the signature of `defect`."""
    if defect == "D2":
        return code == 1 and b"Traceback" in stderr and b"non-finite" in stderr
    if defect == "D3":
        return code == 2 and stderr.startswith(b"usage:")
    return False


def check_cli(case: dict, code: int, stdout: bytes, stderr: bytes, work: Path, cli) -> str | None:
    """Check one CLI call against its case (see gen.cli_mix).

    A failure is a known defect only on a case generated to trigger it
    (`ref["defect"]`) and only with that defect's signature.
    """
    if not case["valid"]:
        if code in (2, 3, 4) and stdout == b"" and _json_error_line(stderr):
            if code != case["ref"].get("exit", code):
                return unexplained(f"exit {code}, want {case['ref']['exit']}")
            return None
        defect = case["ref"].get("defect")
        if _shows_defect(defect, code, stderr):
            return defect
        return unexplained(f"invalid input gave exit {code}: {stderr[-200:]!r}")
    if code != 0:
        return unexplained(f"exit {code}: {stderr[-200:]!r}")
    try:
        return _CLI_CHECKS[case["sub"]](case["ref"], stdout.decode("utf-8"), work, cli)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return unexplained(f"{case['sub']} output unreadable: {exc!r}")


def _check_fit(ref, out, work, cli):
    report = json.loads(out)
    for key, want in zip(("b1", "b2", "b3"), ref["b"]):
        if not _rel(report["model"][key], want) <= TOL_FIT:
            return unexplained(f"fit {key} = {report['model'][key]!r}, generated {want!r}")
    return None


def _check_derive(ref, out, work, cli):
    report = json.loads(out)
    entries = report["functions"] if "functions" in report else [report]
    for entry in entries:
        if not entry["constancy"]["max_relative_deviation"] <= TOL_CONSTANCY:
            return unexplained(f"derive constancy {entry['constancy']['max_relative_deviation']!r}")
        if cli.function_to_dict(cli.function_from_dict(entry)) != entry["function"]:
            return unexplained("derived function does not round-trip through function_from_dict")
    crs = report["crs"]
    if crs is not None and not abs(crs["alpha"] + crs["beta"] - 1.0) <= TOL_CRS_SUM:
        return unexplained(f"crs alpha + beta = {crs['alpha'] + crs['beta']!r}")
    if "model" in ref:
        if any(report["model"][k] != v for k, v in ref["model"].items()):
            return unexplained("derive echoed a different model")
    if ref.get("cd1928"):
        return check_pins(crs["alpha"], crs["beta"], report["function"]["A"])
    return None


def _check_check(ref, out, work, cli):
    report = json.loads(out)
    if not (report["pass"] is True and report["max_relative_deviation"] <= TOL_CONSTANCY):
        return unexplained(f"check deviation {report['max_relative_deviation']!r}")
    if report["grid"]["n"] != ref["n"]:
        return unexplained(f"check grid has {report['grid']['n']} points")
    table = (work / ref["table"]).read_text(encoding="utf-8").splitlines()
    if len(table) != ref["n"] + 1 or table[0] != "t,Y_model,Y_fn,rel_dev":
        return unexplained("check table has the wrong shape")
    return None


def _check_simulate(ref, out, work, cli):
    lines = out.splitlines()
    if len(lines) != ref["n"] + 1 or lines[0] != "t,L,K,Y":
        return unexplained("simulate output has the wrong shape")
    m = ref["model"]
    for i in (0, ref["n"] // 2, ref["n"] - 1):
        t, L, K, Y = (float(c) for c in lines[i + 1].split(","))
        want = [math.exp(m[ln] + m[b] * t) for ln, b in (("ln_L0", "b1"), ("ln_K0", "b2"), ("ln_Y0", "b3"))]
        if t != GRID_START + GRID_STEP * i or any(_rel(g, w) > TOL_CLOSED_FORM for g, w in zip((L, K, Y), want)):
            return unexplained(f"simulate row {i + 2} differs from the closed form")
    return None


def _check_export(ref, out, work, cli):
    lines = out.splitlines()
    columns = ref["values"]
    if ref["normalize"]:
        columns = [[100.0] + [v * (100.0 / col[0]) for v in col[1:]] for col in columns]
    if len(lines) != len(columns[0]) + 1:
        return unexplained("export output has the wrong shape")
    for i, line in enumerate(lines[1:]):
        if [float(c) for c in line.split(",")[1:]] != [col[i] for col in columns]:
            return unexplained(f"export row {i + 2} differs from the input")
    return None


_CLI_CHECKS = {
    "fit": _check_fit,
    "derive": _check_derive,
    "check": _check_check,
    "simulate": _check_simulate,
    "export": _check_export,
}
