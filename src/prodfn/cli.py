"""Command-line front end.

Subcommands: `fit` (CSV -> fitted model JSON), `derive` (model -> production
function JSON with an invariance check), `check` (model + function ->
constancy report and plot-ready table), `simulate` (model -> trajectory CSV)
and `export` (CSV -> normalized CSV).

Output is deterministic: JSON keys are emitted in a fixed order and all
floats are printed with 17 significant digits, which is lossless for binary
64-bit floats, so reports can be fed back into other subcommands without
drift.  Exit codes: 0 success, 1 failed check, 2 usage error, 3 data or
parse error (also an unreadable or non-UTF-8 file), 4 math or degeneracy
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .core import (
    CES,
    CobbDouglas,
    DomainError,
    ExponentialModel,
    Factor,
    FitDiagnostics,
    GeneralizedCES,
    PowerLaw,
    ProdfnError,
    ProductionFunction,
    trajectory,
)
from .fit import SeriesAlignmentError, fit_system
from .ingest import _FLOAT_FORMAT, CsvFormatError, _fmt_float, _read_number, _write_csv, load_series, normalize_base100, write_series
from .invariants import (
    _deviation,
    _require_tol,
    ces_like_member,
    ces_reduction,
    cobb_douglas_member,
    constancy_check,
    crs_elasticities,
    fundamental_invariant_K,
    fundamental_invariant_L,
)
from .modelspec import ModelSpecError, parse_model, to_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MATH = 4

DEFAULT_HORIZON = 24.0  # years; matches the span of classic annual index data
DEFAULT_STEP = 0.25
DEFAULT_TOL = 1e-9
MAX_GRID_POINTS = 10**6

# Each builder looks its derivation up by name when called, so a wrapped module attribute is seen.
FAMILIES = {
    "cobb-douglas": lambda model, alpha, tol: [cobb_douglas_member(model, alpha)],
    "ces-like": lambda model, alpha, tol: [ces_like_member(model, alpha)],
    "ces": lambda model, alpha, tol: [ces_reduction(model, alpha, tol=tol)],
    "fundamental": lambda model, alpha, tol: [fundamental_invariant_L(model), fundamental_invariant_K(model)],
}


class InputFormatError(CsvFormatError):
    """A JSON input file does not match the documented report schema."""


# ---------------------------------------------------------------------------
# deterministic JSON emission


def emit_json(obj, indent: int = 0) -> str:
    """Serialize to JSON with insertion-ordered keys and %.17g floats."""
    cls = type(obj)  # the exact types first: they are nearly every value
    if cls is float:
        return _fmt_float(obj)
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
        items = []
        for k, v in obj.items():  # a finite float or a str is formatted here, not by a recursive call
            vcls = type(v)
            if vcls is not float or "n" in (text := _FLOAT_FORMAT % v):
                text = _encode_str(v) if vcls is str else emit_json(v, indent + 1)
            items.append(f"{inner}{_encode_str(k)}: {text}")
        return "{" + ",".join(items) + pad + "}"
    if cls is list or isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ",".join([inner + emit_json(v, indent + 1) for v in obj]) + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# wire formats


def _year(x) -> int:
    """int(x) under `_read_number` for a whole number or an integer string; int() would cut 1899.7 to 1899."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"base_year must be a whole number, got {x!r}")
    return _read_number(x, int)


_PARSE = {"input": Factor, "base_year": _year}  # every other field is a float


def _wire(cls, tag=None, keys=None):
    """(tag, JSON keys in emitted order, (name, parser, default) per field to read)."""
    fields = dataclasses.fields(cls)  # once, at import: it is slow per call
    read = tuple((f.name, _PARSE.get(f.name, _read_number), f.default) for f in fields)
    return tag, keys or tuple(f.name for f in fields), read


# Input reads each type's own fields, so the derived CES sigma is emitted but ignored.
_WIRE = {
    PowerLaw: _wire(PowerLaw, "power-law", ("input", "coeff", "exponent")),
    CobbDouglas: _wire(CobbDouglas, "cobb-douglas"),
    GeneralizedCES: _wire(GeneralizedCES, "generalized-ces"),
    CES: _wire(CES, "ces", ("A", "alpha", "p", "v", "sigma")),
    ExponentialModel: _wire(ExponentialModel),
    FitDiagnostics: _wire(FitDiagnostics),
}
_FUNCTION_TYPES = {tag: cls for cls, (tag, _, _) in _WIRE.items() if tag}


def _to_dict(obj) -> dict:
    out = {}
    for key in _WIRE[type(obj)][1]:
        value = getattr(obj, key)
        out[key] = value.value if isinstance(value, Factor) else value
    return out


def _from_dict(cls, obj: dict, what: str):
    try:
        return cls(**{
            name: parse(obj[name] if default is dataclasses.MISSING else obj.get(name, default))
            for name, parse, default in _WIRE[cls][2]
        })
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float() of an integer over 1e308
        raise InputFormatError(f"bad {what} JSON: {exc}") from None


def model_to_dict(model: ExponentialModel) -> dict:
    return _to_dict(model)


def model_from_dict(obj: dict) -> ExponentialModel:
    if not isinstance(obj, dict):
        raise InputFormatError("model JSON must be an object")
    return _from_dict(ExponentialModel, obj, "model")


def function_to_dict(fn: ProductionFunction) -> dict:
    tag = _WIRE.get(type(fn), (None,))[0]
    if tag is None:
        raise TypeError(f"not a production function: {fn!r}")
    return {"type": tag, **_to_dict(fn)}


def function_from_dict(obj: dict) -> ProductionFunction:
    if not isinstance(obj, dict):
        raise InputFormatError("function JSON must be an object")
    if "function" in obj and isinstance(obj["function"], dict):
        obj = obj["function"]  # accept a whole derive report
    elif "functions" in obj:
        raise InputFormatError(
            "this derive report holds several functions; pass one entry's "
            "\"function\" object instead"
        )
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _FUNCTION_TYPES:
        raise InputFormatError(f"unknown function type {kind!r}")
    return _from_dict(_FUNCTION_TYPES[kind], obj, "function")


def diagnostics_to_dict(diag: FitDiagnostics) -> dict:
    return _to_dict(diag)


# ---------------------------------------------------------------------------
# input loading helpers


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json(path: str, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise InputFormatError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested too deeply") from None


def load_model_source(path: str) -> ExponentialModel:
    """Load a model from one read of `path`: JSON (a fit report or a bare model object) when the
    first character after JSON whitespace is `{` or `[`, where no model text starts; else model text."""
    text = _read_text(path)  # outside the JSON handler: a non-UTF-8 file stays a UnicodeDecodeError
    if not text.lstrip(" \t\r\n").startswith(("{", "[")):
        return to_model(parse_model(text))
    obj = _parse_json(path, text)
    return model_from_dict(obj.get("model", obj) if isinstance(obj, dict) else obj)


def _parse_grid(spec: str) -> tuple[float, float, float]:
    """Parse 'start:stop:step' into three numbers under `_read_number`; _grid checks the range."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be START:STOP:STEP, got {spec!r}")
    try:
        return tuple(map(_read_number, parts))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric, got {spec!r}") from None


def _option_number(text: str) -> float:
    """An option's number under `_read_number`; argparse reports the error as a usage error."""
    try:
        return _read_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive, strictly increasing time grid start, start + step, ... up to stop, checked before allocating."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError("grid START, STOP and STEP must be finite")
    if step <= 0.0 or stop < start:
        raise DomainError("grid needs STOP >= START and STEP > 0")
    span = (stop - start) / step + 1e-9  # inf when stop - start overflows
    if span >= MAX_GRID_POINTS:
        raise DomainError(f"grid would hold more than {MAX_GRID_POINTS} points")
    t = start + step * np.arange(int(span) + 1)
    if not (t[1:] > t[:-1]).all():
        raise DomainError("grid points must strictly increase: STEP is below the float spacing of the grid")
    return t


# ---------------------------------------------------------------------------
# subcommands


def _load_series(args, value_cols):
    """The --csv series of `fit` and `export`, rebased to 100 under --normalize."""
    series = load_series(args.csv, year_col=args.year_col, value_cols=value_cols)
    return [normalize_base100(s) for s in series] if args.normalize else series


def cmd_fit(args) -> int:
    model, diags = fit_system(*_load_series(args, [args.labor_col, args.capital_col, args.output_col]))
    diagnostics = dict(zip(("labor", "capital", "output"), map(diagnostics_to_dict, diags)))
    print(emit_json({"model": model_to_dict(model), "diagnostics": diagnostics}))
    return EXIT_OK


def cmd_derive(args) -> int:
    model = load_model_source(args.from_fit or args.from_spec)
    notes: list[str] = []
    fundamental = args.family == "fundamental"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crs = crs_elasticities(model) if model.b1 != model.b2 else None
        n_crs = len(caught)
        if fundamental:
            alpha = None  # neither invariant takes a share, so --alpha is ignored
        elif args.alpha is not None:
            alpha = args.alpha
        elif crs is not None and 0.0 < crs[0] < 1.0:
            alpha = crs[0]
        else:
            alpha = 0.5
            notes.append("no constant-returns alpha lies in (0, 1); defaulting alpha to 0.5")
        fns = FAMILIES[args.family](model, alpha, args.tol)
        grid = _grid(0.0, args.horizon, DEFAULT_STEP)
        entries = [
            {
                "function": function_to_dict(fn),
                "constancy": {
                    "horizon": args.horizon,
                    "step": DEFAULT_STEP,
                    "max_relative_deviation": constancy_check(fn, model, grid),
                },
            }
            for fn in fns
        ]

    report: dict = {"family": args.family, "alpha": alpha}
    if fundamental:
        report["functions"] = entries
    else:
        report.update(entries[0])
    report["crs"] = None if crs is None else {"alpha": crs[0], "beta": crs[1]}
    # the derivation's warnings first, then the CRS step's
    report["warnings"] = notes + [str(w.message) for w in caught[n_crs:] + caught[:n_crs]]
    report["model"] = model_to_dict(model)
    print(emit_json(report))
    return EXIT_OK


def cmd_check(args) -> int:
    model = load_model_source(args.model)
    fn = function_from_dict(_parse_json(args.function, _read_text(args.function)))
    t = _grid(*args.grid)
    _require_tol(args.tol)
    if args.table:
        Y, y_fn, rel = _deviation(fn, model, t)
        max_dev = float(np.max(rel))
        _write_csv(args.table, ("t", "Y_model", "Y_fn", "rel_dev"), (t, Y, y_fn, rel))
    else:
        max_dev = constancy_check(fn, model, t)
    passed = max_dev <= args.tol

    report = {
        "grid": {
            "start": float(t[0]),
            "stop": float(t[-1]),
            "step": float(t[1] - t[0]) if len(t) > 1 else 0.0,
            "n": int(len(t)),
        },
        "tol": args.tol,
        "max_relative_deviation": max_dev,
        "pass": passed,
    }
    print(emit_json(report))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    model = load_model_source(args.model)
    t = _grid(*args.grid)
    _write_csv(sys.stdout, ("t", "L", "K", "Y"), (t, *trajectory(model, t)))
    return EXIT_OK


def cmd_export(args) -> int:
    write_series(_load_series(args, args.value_col), args.out or sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodfn",
        description="Fit exponential growth systems and derive production functions as their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an exponential model to CSV index series")
    p_fit.add_argument("--csv", required=True, help="input CSV path")
    p_fit.add_argument("--year-col", required=True, help="name of the year column")
    p_fit.add_argument("--labor-col", required=True, help="column with the labor index")
    p_fit.add_argument("--capital-col", required=True, help="column with the capital index")
    p_fit.add_argument("--output-col", required=True, help="column with the output index")
    p_fit.add_argument(
        "--normalize", action="store_true", help="rescale each series to a base-100 index first"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_derive = sub.add_parser("derive", help="derive a production function from a model")
    src = p_derive.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-fit", help="JSON report produced by 'prodfn fit'")
    src.add_argument("--from-spec", help="model text file")
    p_derive.add_argument("--family", required=True, choices=FAMILIES)
    p_derive.add_argument(
        "--alpha",
        type=_option_number,
        default=None,
        help="share parameter in (0,1); default is the constant-returns value when it lies in (0,1); "
        "ignored by --family fundamental",
    )
    p_derive.add_argument(
        "--tol", type=_option_number, default=DEFAULT_TOL, help="tolerance of the CES reducibility gate"
    )
    p_derive.add_argument(
        "--horizon",
        type=_option_number,
        default=DEFAULT_HORIZON,
        help="invariance is checked on t in [0, horizon] years",
    )
    p_derive.set_defaults(func=cmd_derive)

    p_check = sub.add_parser("check", help="verify a function stays on a model's trajectory")
    p_check.add_argument("--model", required=True, help="fit JSON or model text file")
    p_check.add_argument("--function", required=True, help="function JSON (or derive report)")
    p_check.add_argument("--grid", required=True, type=_parse_grid, help="time grid START:STOP:STEP")
    p_check.add_argument("--tol", type=_option_number, default=DEFAULT_TOL)
    p_check.add_argument("--table", help="also write a CSV table (t,Y_model,Y_fn,rel_dev) here")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="print the closed-form trajectory as CSV")
    p_sim.add_argument("--model", required=True, help="fit JSON or model text file")
    p_sim.add_argument("--grid", required=True, type=_parse_grid, help="time grid START:STOP:STEP")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("export", help="re-serialize (optionally normalized) CSV series")
    p_exp.add_argument("--csv", required=True, help="input CSV path")
    p_exp.add_argument("--year-col", required=True)
    p_exp.add_argument(
        "--value-col", action="append", required=True, help="value column; repeatable"
    )
    p_exp.add_argument("--normalize", action="store_true")
    p_exp.add_argument("--out", help="output path (default: stdout)")
    p_exp.set_defaults(func=cmd_export)

    return parser


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelSpecError, CsvFormatError, SeriesAlignmentError, OSError, UnicodeDecodeError) as exc:
        return _error(type(exc).__name__, str(exc), EXIT_DATA)
    except (ProdfnError, OverflowError) as exc:
        return _error(type(exc).__name__, str(exc), EXIT_MATH)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
