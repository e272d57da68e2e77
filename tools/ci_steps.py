"""CI's checks, one function per workflow step: `python tools/ci_steps.py STEP... | all` (every step needing no install)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = (sys.executable, "-m", "pytest", "-q")
# workload, trace, inputs attempted, inputs failed (fleet: D1; cli-mix: D2, D3), metrics that must be > 0: the tracer
# wraps module attributes, so derive must look each derivation up when it runs and constancy call the public kernels
SMOKE = [
    ("bulk", 0, 3, 0, ()),
    ("fleet", 0, 1000, 30, ()),
    ("cli-mix", 0, 37, 2, ()),
    ("cli-mix", 1, 37, 2, ("invariants.derived_ratio",)),
    ("fleet", 1, 1000, 30, ("core.trajectory_ms", "core.evaluate_ms", "cli.emit_json_us")),
]


def _run(*cmd: str, **env: str) -> None:
    if subprocess.run(cmd, cwd=ROOT, env={**os.environ, **env}).returncode:
        sys.exit(f"failed: {' '.join(cmd)}")


def tier1() -> None:
    # a deprecation in numpy or Python fails the suite, demo subprocesses included; development mode reports a
    # file closed only by the garbage collector as a ResourceWarning, which a finalizer raises as unraisable
    _run(*PYTEST, "--continue-on-collection-errors", "-W", "error::pytest.PytestUnraisableExceptionWarning",
         PYTHONPATH=os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH")))), PYTHONDEVMODE="1",
         PYTHONWARNINGS="error::DeprecationWarning,error::PendingDeprecationWarning,error::ResourceWarning")


def baseline_simd() -> None:
    # a block must give every point the bits the whole grid gives, trajectory's two paths those of the two-formula
    # reference, a grid split with a worker thread those of the serial code and the CSV writer's numpy blocks the
    # bytes of `%.17g` (its log10 estimate may differ between kernels), whichever kernels numpy picks; numpy
    # refuses to disable a baseline feature, so disable its dispatch
    try:
        from numpy._core import _multiarray_umath as m
        targets = " ".join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f))
    except (ImportError, AttributeError):
        print("numpy has no __cpu_dispatch__: step skipped")
        return
    print(f"NPY_DISABLE_CPU_FEATURES={targets}", flush=True)
    env = {"PYTHONPATH": "src", "NPY_DISABLE_CPU_FEATURES": targets}
    _run(*PYTEST, "tests/test_invariants.py", "-k",
         "blocked_constancy or held_trajectories or one_trajectory or split", **env)
    _run(*PYTEST, "tests/test_core.py", "-k", "trajectory", **env)
    _run(*PYTEST, "tests/test_ingest.py", "-k", "write_csv", **env)


def smoke(trace: int, *workloads: str) -> None:
    for workload, traced, attempted, failed, positive in SMOKE:
        if traced == trace and workload in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "2",
                   "--trace", str(trace), "--out", os.devnull]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            r = json.loads(run.stdout.splitlines()[-1]) if run.returncode == 0 else {}
            if not (r.get("correct") is True and (r["attempted"], r["failed"]) == (attempted, failed)
                    and all(r["metrics"][k]["value"] > 0 for k in positive)):
                sys.exit(f"{workload} smoke run (trace {trace}) failed: exit {run.returncode}, {r}")
            print(f"{workload} trace {trace}: correct, {failed}/{attempted} inputs failed", flush=True)


def console_script() -> None:
    # the [project.scripts] entry point prints what `python -m prodfn` prints
    args = ("derive", "--from-spec", "tests/data/dsl/v_example.mdl", "--family", "cobb-douglas")
    script, module = (subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
                      for cmd in (("prodfn", *args), (sys.executable, "-m", "prodfn", *args)))
    if script != module:
        sys.exit("the prodfn script and python -m prodfn print different bytes")


STEPS = {
    "console-script": console_script,
    "tier1": tier1,
    "baseline-simd": baseline_simd,
    "perfbench": lambda: _run(*PYTEST, "perfbench"),
    "smoke": lambda: smoke(0, "bulk", "fleet", "cli-mix"),
    "traced-cli-mix": lambda: smoke(1, "cli-mix"),
    "traced-fleet": lambda: smoke(1, "fleet"),
    "oldest-numpy": lambda: _run(*PYTEST, "tests/test_ingest.py", "tests/test_cli_golden.py", PYTHONPATH="src"),
}
ALL = ("tier1", "baseline-simd", "perfbench", "smoke", "traced-cli-mix", "traced-fleet")

if __name__ == "__main__":
    names = [name for arg in sys.argv[1:] for name in (ALL if arg == "all" else (arg,))]
    if not names or not set(names) <= set(STEPS):
        sys.exit(f"usage: python tools/ci_steps.py STEP... | all\nsteps: {', '.join(STEPS)}")
    for name in names:
        print(f"== {name}", flush=True)
        STEPS[name]()
