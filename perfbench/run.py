"""The prodfn benchmark: one command per workload run, and a comparison mode.

    python3 perfbench/run.py --workload {cli-mix,fleet,bulk} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl
    python3 perfbench/run.py --write-benchmark-json

A run generates its inputs from the seed, measures set-up, runs the
workload's closed loop for S seconds, checks every op, prints one line per
metric with its unit, appends the full result to `.perfbench/results.jsonl`
and ends with one JSON line: the end-to-end metrics with `--trace 0`, the
per-layer metrics (from a separate traced loop) with `--trace 1`.  Run it
from anywhere inside a checkout that has `src/prodfn`.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import spec  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
MIN_SAMPLES = 110  # at least ten latency samples beyond p90
SETUP_REPEATS = 12  # set-up probes, spread evenly over the run
INTERP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# what each workload's process imports before its first op
SETUP_IMPORTS = {"cli-mix": "prodfn.cli", "fleet": "prodfn.cli", "bulk": "prodfn"}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# probes: interpreter start, set-up, import times


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def interp_start_ms(env: dict, repeats: int) -> float:
    """Median wall time of `python -c pass`: the floor under every CLI call."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(_python("-c", "pass"), env=env, check=True, cwd=ROOT)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def setup_sample(code: str, env: dict) -> float:
    """Seconds from spawning `python -c code` until it prints its ready line."""
    t0 = time.perf_counter()
    with subprocess.Popen(_python("-c", code), env=env, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise BenchError(f"set-up probe failed: {code}")
    return ready - t0


def import_times_ms(env: dict, repeats: int) -> dict[str, float]:
    """numpy, prodfn.core (self) and prodfn.cli import times from -X importtime."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            _python("-X", "importtime", "-c", "import prodfn.cli"), env=env, cwd=ROOT, capture_output=True, check=True
        )
        found = {}
        for line in proc.stderr.decode().splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[0].isdigit():
                found[parts[2]] = (int(parts[0]) / 1e3, int(parts[1]) / 1e3)  # (self, cumulative) ms
        runs.append(
            {
                "import.numpy_ms": found["numpy"][1],
                "import.prodfn_core_self_ms": found["prodfn.core"][0],
                "import.cli_ms": found["prodfn.cli"][1],
            }
        )
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# environment record


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def environment(interp_ms: float) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "interp.start_ms": interp_ms,
    }


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    lat_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    if not lat_ms:
        raise BenchError("no op succeeded")
    return {
        "call_ms_mean": statistics.fmean(lat_ms),
        "call_ms_p50": percentile(lat_ms, 0.5),
        "call_ms_p90": percentile(lat_ms, 0.9),
        "ops_per_s": ops.ops_per_s(result),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    if not (ROOT / "src" / "prodfn" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'prodfn'}")
    sys.path.insert(0, str(ROOT / "src"))
    env = ops.cli_env(ROOT)
    work = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cwd = os.getcwd()
    try:
        plan = gen.generate(workload, seed, work)
        interp_ms = interp_start_ms(env, INTERP_REPEATS)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        record["env"] = environment(interp_ms)
        os.chdir(work)  # the CLI cases name their files relative to it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # share and substitution range warnings are expected
            if trace:
                record.update(_traced(plan, work, seconds, env, interp_ms))
            else:
                record.update(_untraced(plan, work, seconds, env))
        if (work / "spans.csv").exists():
            shutil.copyfile(work / "spans.csv", OUT_DIR / f"spans-{workload}-{seed}.csv")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    import prodfn

    record["pin"] = checks.pin_cd1928(prodfn)  # op 0 of cli-mix also pins CD1928 through the CLI
    unexplained = sorted(r for r in record["failures"] if r not in spec.DEFECTS)
    record["correct"] = record["pin"] is None and not unexplained and record["attempted"] > record["failed"]
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def _counts(plan: dict, *results) -> dict:
    """Inputs attempted and failed over all loops of a run, and op counts.

    Every loop tries every input of the plan, so `attempted` is the plan's
    size and `failed` the inputs on which some op failed: both depend only
    on the seed.  `failures` counts failed ops by reason.
    """
    failed = {}
    for r in results:
        for key, reason in r["failed_inputs"].items():
            failed.setdefault(key, reason)
    return {
        "attempted": len(set(ops.plan_inputs(plan))),
        "failed": len(failed),
        "failed_by_reason": dict(Counter(failed.values())),
        "ops": sum(r["ops"] for r in results),
        "failed_ops": sum(r["failed_ops"] for r in results),
        "failures": dict(sum((Counter(r["failures"]) for r in results), Counter())),
    }


def _untraced(plan: dict, work: Path, seconds: float, env: dict) -> dict:
    workload = plan["workload"]
    setup = []
    code = f"import sys, {SETUP_IMPORTS[workload]}; sys.stdout.write('ready\\n'); sys.stdout.flush()"

    def probe():
        setup.append(setup_sample(code, env))

    probe()  # unmeasured: fills the bytecode and file caches
    setup.clear()
    if workload == "cli-mix":
        import prodfn.cli as cli  # for the checks, which are not timed

        op, check = ops.cli_subprocess_op(plan, work, ROOT), ops.cli_check(plan, work, cli)
        usage = resource.RUSAGE_CHILDREN
    else:
        op, check = ops.inprocess_ops(plan, work)
        usage = resource.RUSAGE_SELF
    inputs = ops.plan_inputs(plan)
    result = ops.run_loop(op, check, inputs, seconds, MIN_SAMPLES, between=probe, every=seconds / SETUP_REPEATS)
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    return {
        "metrics": end_to_end(result, statistics.median(setup)),
        "samples": len(result["latencies_ns"]),
        "setup_samples": len(setup),
        **_counts(plan, result),
    }


def _traced(plan: dict, work: Path, seconds: float, env: dict, interp_ms: float) -> dict:
    layers = {"interp.start_ms": interp_ms, **import_times_ms(env, IMPORTTIME_REPEATS)}
    op, check = ops.inprocess_ops(plan, work)
    inputs = ops.plan_inputs(plan)
    untraced = ops.run_loop(op, check, inputs, seconds / 2.0)
    tracer = Tracer()
    tracer.instrument()
    try:
        traced = ops.run_loop(op, check, inputs, seconds / 2.0, tracer=tracer)
    finally:
        tracer.restore()
    tracer.write(work / "spans.csv")
    layers.update(layer_metrics(tracer.spans, traced["ops"]))
    fast, slow = ops.ops_per_s(untraced), ops.ops_per_s(traced)
    layers["trace.overhead_pct"] = (fast / slow - 1.0) * 100.0 if slow else 0.0
    counts = _counts(plan, untraced, traced)
    layers["failed_share"] = counts["failed"] / max(counts["attempted"], 1)
    return {"metrics": layers, "tracing": {"ops_per_s_untraced": fast, "ops_per_s_traced": slow}, **counts}


def report(record: dict) -> dict:
    """Print one line per metric, then the result line; return the result."""
    workload, trace = record["workload"], record["trace"]
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.UNBOUNDED + spec.PER_LAYER}
    print(f"# {workload} seed={record['seed']} seconds={record['seconds']} trace={trace}")
    print(f"# env {json.dumps(record['env'])}")
    for name, value in record["metrics"].items():
        if name == "failed_share":
            continue  # printed below with its counts
        note = f"  (n={record['samples']} successful ops)" if name.startswith("call_ms") else ""
        print(f"{workload:8s} {name:30s} {value:14.6g} {units[name]}{note}")
    share = record["failed"] / record["attempted"]
    print(
        f"{workload:8s} {'failed_share':30s} {share:14.6g} share  ({record['failed']}/{record['attempted']} inputs; "
        f"{record['failed_ops']}/{record['ops']} ops)"
    )
    for reason, n in sorted(record["failures"].items()):
        inputs = record["failed_by_reason"].get(reason, 0)
        print(f"#   failed {n:6d} ops, {inputs:4d} inputs  {reason}: {spec.DEFECTS.get(reason, '')}")
    if "tracing" in record:
        t = record["tracing"]
        print(f"# tracing overhead: {t['ops_per_s_untraced']:.6g} ops/s untraced, {t['ops_per_s_traced']:.6g} traced")
    if record["pin"]:
        print(f"# CD1928 pin failed: {record['pin']}")
    names = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return result


# ---------------------------------------------------------------------------
# comparison of two result sets


def compare(before: Path, after: Path) -> None:
    """One row per workload and end-to-end metric: medians, quartiles, pair wins, verdict."""

    def load(path):
        runs = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            if not r["trace"]:
                runs.setdefault(r["workload"], []).append(r)
        return runs

    a_runs, b_runs = load(before), load(after)
    print(f"{'workload':8s} {'metric':12s} {'before: median [q1, q3]':>34s} {'after: median [q1, q3]':>34s} "
          f"{'wins':>7s}  verdict")
    for workload in [w for w, _ in spec.WORKLOADS if w in a_runs and w in b_runs]:
        a_w, b_w = a_runs[workload], b_runs[workload]
        for name, a, b, wins, pairs, verdict in compare_workload(a_w, b_w):
            print(f"{workload:8s} {name:12s} {_quartiles(a):>34s} {_quartiles(b):>34s} {wins:3d}/{pairs:<3d}  {verdict}")
        print(f"{workload:8s} failed_share before {failed_share(a_w):.4g}, after {failed_share(b_w):.4g}")


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare_workload(a_runs: list[dict], b_runs: list[dict]) -> list[tuple]:
    """(metric, before values, after values, wins, pairs, verdict) per end-to-end metric.

    A gain does not count when the after set fails a larger share of its
    inputs than the before set: failed ops drop out of the latency samples.
    """
    more_failed = failed_share(b_runs) > failed_share(a_runs)
    rows = []
    for name, _, better, bound in spec.END_TO_END:
        a = [r["metrics"][name] for r in a_runs]
        b = [r["metrics"][name] for r in b_runs]
        verdict, wins, pairs = judge(a, b, better, bound)
        if more_failed and verdict.startswith("better"):
            verdict = f"gain not counted ({verdict}): failed_share rose"
        rows.append((name, a, b, wins, pairs, verdict))
    return rows


def _quartiles(values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """Verdict on `b` against `a` by the 9/10 pair rule, within `bound`.

    Pairs are runs in file order.  A win is a pair where `b` is better; ties
    count for neither side.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    if len(a) < 2 or len(b) < 2:
        return "unresolved (fewer than 2 runs)", wins, len(pairs)
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    ma, mb = qa[1], qb[1]
    spread = max((qa[2] - qa[0]) / abs(ma), (qb[2] - qb[0]) / abs(mb))
    change = sign * (mb - ma) / abs(ma)  # > 0 is better
    if wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return f"better by {change:+.1%}", wins, len(pairs)
    if spread > bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return f"better by {change:+.1%} (every run)", wins, len(pairs)
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})", wins, len(pairs)
    if change < -bound:
        return f"worse by {-change:.1%} (> bound {bound:.0%})", wins, len(pairs)
    if losses >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return f"worse by {-change:.1%} (within bound {bound:.0%})", wins, len(pairs)
    return "no change beyond bound", wins, len(pairs)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl", help="results file to append to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        OUT_DIR.mkdir(exist_ok=True)
        report(run(args.workload, args.seed, args.seconds, bool(args.trace), args.out))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
