"""Tests of the benchmark itself: generator, checks, span arithmetic, verdicts.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import prodfn as pf  # noqa: E402
import prodfn.cli as cli  # noqa: E402
import run  # noqa: E402
import ops  # noqa: E402
from spans import NAME, PARENT, Tracer, self_times  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", ["cli-mix", "fleet", "bulk"])
def test_generator_is_deterministic(tmp_path, workload):
    a = gen.generate(workload, 5, tmp_path / "a")
    b = gen.generate(workload, 5, tmp_path / "b")
    c = gen.generate(workload, 6, tmp_path / "c")
    assert a == b and _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a != c


def test_fleet_kind_shares_are_exact(tmp_path):
    models = gen.generate("fleet", 3, tmp_path)["models"]
    for kind, share in gen.FLEET_KINDS.items():
        assert sum(m["kind"] == kind for m in models) == round(share * gen.FLEET_MODELS)


def _fleet(tmp_path, kind):
    plan = {"models": [gen.draw_model(gen.rng_for("test", 1), kind)]}
    plan["models"][0]["text"] = gen.model_text(plan["models"][0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op, check = ops.fleet_op(plan, pf, cli, np)
        return op(0), check


def test_fleet_valid_op_passes_and_corrupted_output_fails(tmp_path):
    out, check = _fleet(tmp_path, "regular")
    assert check(0, out) is None
    out["json"] = out["json"].replace('"A": ', '"A": 1', 1)
    assert check(0, out).startswith("unexplained:")


def test_typed_rejections_pass_untyped_exceptions_fail(tmp_path):
    for kind in ("reducible", "share"):
        out, check = _fleet(tmp_path, kind)
        assert check(0, out) is None, kind
    out, check = _fleet(tmp_path, "overflow")
    assert isinstance(out["errors"]["ces_like_member"], OverflowError)
    assert check(0, out) == "D1"
    out, check = _fleet(tmp_path, "regular")
    out["errors"]["fundamental_invariant_L"] = ValueError("boom")
    assert check(0, out).startswith("unexplained: ValueError")


def test_defect_signature_on_another_input_is_unexplained(tmp_path):
    out, check = _fleet(tmp_path, "regular")
    out["errors"]["ces_like_member"] = OverflowError("math range error")
    assert check(0, out).startswith("unexplained: OverflowError")
    plan = gen.generate("cli-mix", 2, tmp_path)
    valid = {c["sub"]: c for c in plan["cases"] if c["valid"]}
    usage = b"usage: prodfn simulate [-h]\nprodfn simulate: error: bad --grid\n"
    assert checks.check_cli(valid["simulate"], 2, b"", usage, tmp_path, cli).startswith("unexplained:")
    trace = b"Traceback (most recent call last):\nValueError: non-finite value\n"
    assert checks.check_cli(valid["check"], 1, b"", trace, tmp_path, cli).startswith("unexplained:")
    d3 = next(c for c in plan["cases"] if c["ref"].get("defect") == "D3")
    assert checks.check_cli(d3, 1, b"", trace, tmp_path, cli).startswith("unexplained:")


def _cli_cases(tmp_path):
    plan = gen.generate("cli-mix", 2, tmp_path)
    return plan, ops.cli_inprocess_op(plan, cli)


def test_cli_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan, _ = _cli_cases(tmp_path)
    for case in plan["cases"]:
        op = ops.cli_inprocess_op({"cases": [case], "sequence": [0]}, cli)
        code, stdout, stderr = op(0)
        verdict = checks.check_cli(case, code, stdout, stderr, tmp_path, cli)
        assert verdict == case["ref"].get("defect"), (case["argv"], verdict)
        if case["valid"]:
            corrupted = stdout[:-10]
            assert checks.check_cli(case, code, corrupted, stderr, tmp_path, cli) is not None, case["argv"]


def test_cli_repeated_argv_must_be_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan, op = _cli_cases(tmp_path)
    first = plan["sequence"][0]
    plan["sequence"] = [first, first]
    check = ops.cli_check(plan, tmp_path, cli)
    out = op(0)
    assert check(0, out) is None
    assert check(1, (out[0], out[1] + b" ", out[2])).startswith("unexplained: repeated argv")


def test_cli_sequence_tries_every_case_first(tmp_path):
    plan = gen.generate("cli-mix", 4, tmp_path)
    n = len(plan["cases"])
    assert sorted(plan["sequence"][:n]) == list(range(n))
    assert plan["cases"][plan["sequence"][0]]["ref"].get("cd1928")


def test_loop_counts_inputs_not_ops():
    # input 1 of 3 always fails: one failed input whatever the number of ops
    def check(i, out):
        return "D1" if out == 1 else None

    for seconds in (0.0, 0.02):
        result = ops.run_loop(lambda i: i % 3, check, [0, 1, 2], seconds)
        assert (result["attempted"], result["failed"], result["failed_inputs"]) == (3, 1, {1: "D1"})
        assert result["ops"] >= 3 and result["failed_ops"] == result["failures"]["D1"] >= 1


def test_cd1928_pin():
    assert checks.pin_cd1928(pf) is None
    assert checks.check_pins(0.7341175376, 0.2658824627, 1.02) is not None


def test_self_time_from_nested_spans():
    # (id, name, start, end, parent, op, outcome, size)
    spans = [
        (2, "b", 10, 40, 1, 0, "ok", 0),
        (4, "d", 15, 25, 2, 0, "ok", 0),
        (3, "c", 50, 70, 1, 0, "ok", 0),
        (1, "a", 0, 100, 0, 0, "ok", 0),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 20, 4: 10}


def test_tracer_nests_spans_and_records_recursion_once():
    tracer = Tracer()

    def leaf(x):
        return x

    def rec(n):
        return leaf(n) if n == 0 else traced_rec(n - 1)

    traced_leaf = tracer.wrap("core.leaf", leaf, ValueError)
    leaf = traced_leaf
    traced_rec = tracer.wrap("cli.rec", rec, ValueError)
    traced_rec(3)
    spans = {s[NAME]: s for s in tracer.spans}
    assert len(tracer.spans) == 2
    assert spans["core.leaf"][PARENT] == spans["cli.rec"][0]


def test_instrumented_calls_between_layers_nest():
    tracer = Tracer()
    tracer.instrument()
    try:
        model = pf.ExponentialModel(0.02, 0.06, 0.04, 1.0, 2.0, 3.0)
        fn = pf.cobb_douglas_member(model, 0.5)
        pf.constancy_check(fn, model, np.linspace(0.0, 1.0, 5))
    finally:
        tracer.restore()
    assert pf.constancy_check.__name__ == "constancy_check" and not hasattr(pf.constancy_check, "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    parents = {s[NAME]: by_id[s[PARENT]][NAME] for s in tracer.spans if s[PARENT]}
    assert parents == {"core.trajectory": "invariants.constancy_check", "core.evaluate": "invariants.constancy_check"}


@pytest.mark.parametrize(
    "a, b, better, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.0, 8.1, 7.9, 8.0],
         "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [13.0] * 10, "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
         "lower", "no change"),
        ([10.0, 20.0, 5.0, 10.0, 30.0, 4.0, 10.0, 12.0, 9.0, 15.0], [10.0] * 10, "higher", "unresolved"),
    ],
)
def test_judge(a, b, better, verdict):
    assert run.judge(a, b, better, 0.1)[0].startswith(verdict)


def test_gain_does_not_count_when_more_ops_fail():
    def runs(latency, failed):
        metrics = {"call_ms_mean": latency, "call_ms_p90": latency, "ops_per_s": 1e3 / latency,
                   "peak_rss_mb": 30.0, "setup_s": 0.15}
        return [{"metrics": dict(metrics), "attempted": 100, "failed": failed} for _ in range(10)]

    before = runs(10.0, 3)
    rows = {r[0]: r[5] for r in run.compare_workload(before, runs(5.0, 3))}
    assert rows["call_ms_mean"].startswith("better") and rows["ops_per_s"].startswith("better")
    rows = {r[0]: r[5] for r in run.compare_workload(before, runs(5.0, 4))}
    assert rows["call_ms_mean"].startswith("gain not counted") and rows["peak_rss_mb"].startswith("no change")


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
