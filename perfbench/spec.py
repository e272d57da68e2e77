"""What the benchmark measures: workloads, metrics, bounds and known defects.

This module is the single source of truth for `BENCHMARK.json`
(`python3 perfbench/run.py --write-benchmark-json` regenerates it) and for
the metric names `run.py` prints.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# Long enough for >= 110 subprocess calls on cli-mix and bulk, so that at
# least ten latency samples lie beyond p90 (see run.MIN_SAMPLES).
RUN_SECONDS = 30

# Later claims are confirmed on this seed; do not tune against it.
HELD_OUT_SEED = 7919

WORKLOADS = [
    (
        "cli-mix",
        "one op = one `python -m prodfn` call over small inputs, 10% invalid; start-up and imports are ~80% "
        "of a call. Seed failed_share 2/37 inputs, defects D2+D3",
    ),
    (
        "fleet",
        "one op = one seeded model through parse, all derivations, 97-point constancy and emit_json in one "
        "process; per-call overhead dominates. Seed failed_share 30/1000 inputs, all defect D1",
    ),
    (
        "bulk",
        "one op = 10k-row CSV ingest, fit, write back, and constancy on a 1e6-point grid; row parsing and "
        "numpy kernels dominate, per-call overhead does not. Seed failed_share 0",
    ),
]

# (name, unit, better, bound).  failed_share is not here: it is 0 on bulk and
# would be 0 everywhere once the defects below are fixed, and a metric with
# median 0 has no relative bound.  Its inputs are the `attempted` and
# `failed` fields of every result, and run.py prints it on every run.
# Both count the inputs of the seeded plan, not ops (see ops.run_loop):
# the number of ops depends on the host's speed, the inputs only on the seed.
#
# The latency centre is the mean, not the median: on a host whose CPU
# alternates between a fast and a slow state, op latencies form two modes,
# and the median jumps from one to the other when the share of time spent
# in the fast state crosses one half, while the mean moves in proportion.
END_TO_END = [
    ("call_ms_mean", "ms", "lower", 0.25),
    ("call_ms_p90", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit): printed with every untraced run and kept in its record, but
# not bounded (see END_TO_END).
UNBOUNDED = [("call_ms_p50", "ms")]

# (name, unit, better).  Times are mean self time per call of the layer's
# spans (a span's time minus its child spans); "/op" counts are per op.
PER_LAYER = [
    ("interp.start_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.prodfn_core_self_ms", "ms", "lower"),
    ("import.cli_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.argparse_ms", "ms", "lower"),
    ("cli.emit_json_us", "us", "lower"),
    ("modelspec.parse_us", "us", "lower"),
    ("modelspec.calls", "1/op", "lower"),
    ("invariants.derive_us", "us", "lower"),
    ("invariants.constancy_us", "us", "lower"),
    ("invariants.constancy_points", "points/op", "lower"),
    ("invariants.rejected", "1/op", "lower"),
    ("invariants.derived_ratio", "ratio", "higher"),
    ("ingest.load_series_ms", "ms", "lower"),
    ("ingest.normalize_ms", "ms", "lower"),
    ("ingest.write_series_ms", "ms", "lower"),
    ("ingest.rows", "rows/op", "lower"),
    ("fit.fit_system_ms", "ms", "lower"),
    ("fit.points", "points/op", "lower"),
    ("core.trajectory_ms", "ms", "lower"),
    ("core.evaluate_ms", "ms", "lower"),
    ("core.bytes_computed", "bytes/op", "lower"),
    ("cli.failed", "count", "lower"),
    ("modelspec.failed", "count", "lower"),
    ("invariants.failed", "count", "lower"),
    ("ingest.failed", "count", "lower"),
    ("fit.failed", "count", "lower"),
    ("core.failed", "count", "lower"),
    ("failed_share", "share", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Every failed op must be attributed to one of these; an unattributed
# failure makes the run incorrect.  Baseline failed_share at the seed
# commit is given in the README.
DEFECTS = {
    "D1": "ces_like_member raises a bare OverflowError, not a ProdfnError, when "
    "ln_Y0/b3 - ln_L0/b1 (or - ln_K0/b2) exceeds ~709",
    "D2": "`prodfn check` prints a traceback and exits 1 when the function overflows on "
    "the grid (cobb-douglas A=1e300, beta=50): emit_json raises ValueError on inf",
    "D3": "argparse usage errors exit 2 with usage text on stderr, not one JSON error line",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
