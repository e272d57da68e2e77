"""Ops, checks and the closed loop of every workload.

`run.py` runs every loop in its own process: fleet, bulk and the traced
cli-mix loop call into `prodfn` directly; the untraced cli-mix loop starts
one `python -m prodfn` child per op.  There is never more than one child
process at a time.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import checks
from gen import GRID_START, GRID_STEP, GRID_STOP
from spans import DERIVATIONS

# Upper limit on a run that is still short of its minimum sample count, as
# a multiple of the requested seconds; keeps every run well inside its
# time limit.
MAX_STRETCH = 2.0


def run_loop(
    op, check, inputs: list, seconds: float, min_samples: int = 0, tracer=None, between=None, every: float = 0.0
) -> dict:
    """Closed loop with one client: op i starts after op i-1 and its check end.

    Op i works on input `inputs[i % len(inputs)]`.  Runs for `seconds`,
    longer if fewer than `min_samples` ops succeeded (at most MAX_STRETCH
    times as long), and in any case until every input has been tried once.
    Only the op is timed; checks are not.  Latencies are kept for
    successful ops only.  `between()`, if given, runs after an op whenever
    `every` seconds have passed since its last call, untimed; it spreads the
    set-up probes over the run.

    `attempted` and `failed` count inputs, not ops: an input fails if any op
    on it failed.  Both depend only on the seed, however many ops the time
    allowed.  `ops` and `failed_ops` count ops.
    """
    latencies, failures, failed_inputs, seen = [], Counter(), {}, set()
    distinct = len(set(inputs))
    n = busy = 0
    start = last = time.perf_counter()
    while True:
        now = time.perf_counter()
        elapsed = now - start
        enough = elapsed >= seconds * MAX_STRETCH or (elapsed >= seconds and len(latencies) >= min_samples)
        if enough and len(seen) == distinct:
            break
        if between is not None and now - last >= every:
            between()
            last = time.perf_counter()
        if tracer is not None:
            tracer.op = n
        t0 = perf_counter_ns()
        out = op(n)
        dt = perf_counter_ns() - t0
        busy += dt
        reason = check(n, out)
        key = inputs[n % len(inputs)]
        seen.add(key)
        n += 1
        if reason is None:
            latencies.append(dt)
        else:
            failures[reason] += 1
            failed_inputs.setdefault(key, reason)
    return {
        "attempted": len(seen),
        "failed": len(failed_inputs),
        "failed_inputs": failed_inputs,
        "ops": n,
        "failed_ops": sum(failures.values()),
        "failures": dict(failures),
        "latencies_ns": latencies,
        "busy_ns": busy,
    }


def plan_inputs(plan: dict) -> list:
    """Input of each op of the workload's loop, as `run_loop` takes it."""
    if plan["workload"] == "cli-mix":
        return plan["sequence"]
    return list(range(len(plan["models" if plan["workload"] == "fleet" else "files"])))


# ---------------------------------------------------------------------------
# cli-mix


def cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRODFN_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_subprocess_op(plan: dict, work: Path, root: Path):
    cmd = [sys.executable, "-m", "prodfn"]
    env = cli_env(root)
    cases, sequence = plan["cases"], plan["sequence"]

    def op(i):
        argv = cases[sequence[i % len(sequence)]]["argv"]
        proc = subprocess.run(cmd + argv, cwd=work, env=env, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    return op


def cli_inprocess_op(plan: dict, cli):
    cases, sequence = plan["cases"], plan["sequence"]

    def op(i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cases[sequence[i % len(sequence)]]["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what the interpreter does with an uncaught error
                traceback.print_exc()
                code = 1
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    return op


def cli_check(plan: dict, work: Path, cli):
    """Content checks on the first call of each argv; byte identity after."""
    cases, sequence = plan["cases"], plan["sequence"]
    seen: dict[int, tuple] = {}

    def check(i, out):
        case = cases[sequence[i % len(sequence)]]
        code, stdout, stderr = out
        if case["id"] in seen:
            first_code, first_stdout, verdict = seen[case["id"]]
            if (code, stdout) != (first_code, first_stdout):
                return checks.unexplained(f"repeated argv {case['argv']} gave different output")
            return verdict
        verdict = checks.check_cli(case, code, stdout, stderr, work, cli)
        seen[case["id"]] = (code, stdout, verdict)
        return verdict

    return check


# ---------------------------------------------------------------------------
# fleet


def fleet_op(plan: dict, pf, cli, np):
    models = plan["models"]
    grid = np.arange(GRID_START, GRID_STOP + GRID_STEP / 2.0, GRID_STEP)

    def op(i):
        m = models[i % len(models)]
        try:
            model = pf.to_model(pf.parse_model(m["text"]))
        except Exception as exc:
            return {"exc": exc, "where": "parse_model/to_model"}
        errors, built = {}, []
        try:
            crs = pf.crs_elasticities(model)
            alpha = crs[0]
        except Exception as exc:
            errors["crs_elasticities"] = exc
            crs, alpha = None, m["alpha"]
        names = [n for n in DERIVATIONS if n != "ces_reduction" or m["kind"] == "reducible"]
        for name in names:
            try:
                fn = getattr(pf, name)(model) if name.startswith("fundamental") else getattr(pf, name)(model, alpha)
                built.append((name, fn, pf.constancy_check(fn, model, grid)))
            except Exception as exc:
                errors[name] = exc
        report = {
            "family": "all",
            "alpha": alpha,
            "functions": [
                {
                    "function": cli.function_to_dict(fn),
                    "constancy": {"horizon": GRID_STOP, "step": GRID_STEP, "max_relative_deviation": dev},
                }
                for _, fn, dev in built
            ],
            "crs": None if crs is None else {"alpha": crs[0], "beta": crs[1]},
            "warnings": [],
            "model": cli.model_to_dict(model),
        }
        try:
            text = cli.emit_json(report)
        except Exception as exc:
            return {"exc": exc, "where": "emit_json"}
        return {"model": model, "crs": crs, "errors": errors, "built": built, "json": text}

    def check(i, out):
        return checks.check_fleet(models[i % len(models)], out, pf, cli)

    return op, check


# ---------------------------------------------------------------------------
# bulk


def bulk_op(plan: dict, pf, np):
    files = plan["files"]
    rows = files[0]["rows"]
    grid = np.linspace(0.0, rows - 1.0, plan["grid_points"])

    def op(i):
        where = "load_series"
        try:
            series = pf.load_series(files[i % len(files)]["path"], "year", ["L", "K", "Y"])
            where = "normalize_base100"
            series = [pf.normalize_base100(s) for s in series]
            where = "fit_system"
            model, _ = pf.fit_system(*series)
            where = "write_series"
            buf = io.StringIO()
            pf.write_series(series, buf)
            where = "derivation"
            alpha, beta = pf.crs_elasticities(model)
            cd = pf.cobb_douglas_member(model, alpha)
            where = "ces_like_member"
            ces_like = pf.ces_like_member(model, alpha)
            where = "trajectory"
            L, _, Y = pf.trajectory(model, grid)
            where = "constancy_check"
            devs = [pf.constancy_check(cd, model, grid), pf.constancy_check(ces_like, model, grid)]
        except Exception as exc:
            return {"exc": exc, "where": where}
        return {
            "series": series,
            "model": model,
            "written": buf.getvalue(),
            "alpha": alpha,
            "beta": beta,
            "L_end": float(L[-1]),
            "Y_end": float(Y[-1]),
            "devs": devs,
        }

    def check(i, out):
        return checks.check_bulk(files[i % len(files)], out, float(grid[-1]))

    return op, check


# ---------------------------------------------------------------------------


def inprocess_ops(plan: dict, work: Path):
    """(op, check) of the workload for a loop inside this process."""
    import numpy as np

    import prodfn as pf
    import prodfn.cli as cli

    workload = plan["workload"]
    if workload == "fleet":
        return fleet_op(plan, pf, cli, np)
    if workload == "bulk":
        return bulk_op(plan, pf, np)
    return cli_inprocess_op(plan, cli), cli_check(plan, work, cli)


def ops_per_s(result: dict) -> float:
    successes = result["ops"] - result["failed_ops"]
    return successes / (result["busy_ns"] * 1e-9) if result["busy_ns"] else 0.0
