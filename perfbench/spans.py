"""In-memory spans around calls into the layers of `prodfn`, and their aggregation.

`Tracer.instrument()` replaces every public function of each layer module
with a wrapper that records a span, in the defining module and in every
other `prodfn` module that imported the same object.  Calls between layers
(for example `cli` -> `invariants` -> `core`) therefore nest.  Nothing in
the package itself is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "modelspec", "ingest", "fit", "invariants", "core")

# the derivations of `prodfn.invariants` that build a function from a model
DERIVATIONS = (
    "cobb_douglas_member",
    "ces_like_member",
    "fundamental_invariant_L",
    "fundamental_invariant_K",
    "ces_reduction",
)


def _size(name, args, result):
    """Work count recorded on a span: rows, points or array elements."""
    if name == "ingest.load_series":
        return len(result[0])
    if name == "fit.fit_system":
        return sum(len(s) for s in args)
    # the array arguments, which every caller in prodfn passes by position
    arrays = {"invariants.constancy_check": args[2:3], "core.trajectory": args[1:2], "core.evaluate": args[1:3]}
    return max((int(np.size(a)) for a in arrays.get(name, ())), default=0)


# span tuple fields
SID, NAME, START, END, PARENT, OP, OUTCOME, SIZE = range(8)


class Tracer:
    """Collects spans (id, name, start_ns, end_ns, parent, op, outcome, size).

    outcome is "ok", "rejected" (a ProdfnError or OSError), "exit" (SystemExit), "failed"
    (any other exception raised in this span) or "propagated" (an exception
    that a child span already recorded).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.op = 0
        self._next = 1
        self._last_exc = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, typed_error):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:  # recursion: one span per outer call
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            stack.append((sid, name))
            parent = stack[-2][0] if len(stack) > 1 else 0
            outcome, result = "ok", None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if exc is tracer._last_exc:
                    outcome = "propagated"
                elif isinstance(exc, typed_error):
                    outcome = "rejected"
                elif isinstance(exc, SystemExit):
                    outcome = "exit"
                else:
                    outcome = "failed"
                tracer._last_exc = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = _size(name, args, result) if outcome == "ok" else 0
                tracer.spans.append((sid, name, start, end, parent, tracer.op, outcome, size))

        return traced

    def instrument(self):
        """Wrap the public functions of every layer; undo with `restore()`."""
        package = importlib.import_module("prodfn")
        modules = [importlib.import_module(f"prodfn.{layer}") for layer in LAYERS]
        # a missing or unreadable input file is the caller's error, not the layer's
        typed_error = (package.ProdfnError, OSError)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj, typed_error)
                for holder in (package, *modules):
                    if vars(holder).get(attr) is obj:
                        self._restore.append((holder, attr, obj))
                        setattr(holder, attr, wrapped)
        self._wrap_argparse(modules[0])

    def _wrap_argparse(self, cli):
        # argparse time is parser construction plus parse_args on the parser
        # that cli.main builds; wrap the returned instance's method.
        build = vars(cli)["build_parser"]
        tracer = self

        def build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args, SystemExit)
            return parser

        setattr(cli, "build_parser", build_parser)

    def restore(self):
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,outcome,size\n")
            for s in self.spans:
                fh.write(",".join(str(x) for x in s) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the durations of its children."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


MS, US = 1e-6, 1e-3  # from ns

# metric -> (span names whose self time is summed, span name counted as
# calls, scale).  cli.main_ms sums every cli span not in _CLI_NOT_MAIN.
_TIMES = {
    "cli.main_ms": ((), "cli.main", MS),
    "cli.argparse_ms": (("cli.build_parser", "cli.parse_args"), "cli.build_parser", MS),
    "cli.emit_json_us": (("cli.emit_json",), "cli.emit_json", US),
    "modelspec.parse_us": (("modelspec.parse_model", "modelspec.to_model"), "modelspec.parse_model", US),
    "invariants.constancy_us": (("invariants.constancy_check",), "invariants.constancy_check", US),
    "ingest.load_series_ms": (("ingest.load_series",), "ingest.load_series", MS),
    "ingest.normalize_ms": (("ingest.normalize_base100",), "ingest.normalize_base100", MS),
    "ingest.write_series_ms": (("ingest.write_series",), "ingest.write_series", MS),
    "fit.fit_system_ms": (("fit.fit_system", "fit.fit_log_linear"), "fit.fit_system", MS),
    "core.trajectory_ms": (("core.trajectory",), "core.trajectory", MS),
    "core.evaluate_ms": (("core.evaluate",), "core.evaluate", MS),
}
_CLI_NOT_MAIN = ("cli.build_parser", "cli.parse_args", "cli.emit_json")


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from spans: mean self times per call, counts per op."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(names):
        return [s for n in names for s in by_name.get(n, ())]

    out = {}
    cli_rest = [n for n in by_name if n.startswith("cli.") and n not in _CLI_NOT_MAIN]
    for metric, (summed, called, scale) in _TIMES.items():
        total = sum(own[s[SID]] for s in named(summed or cli_rest))
        calls = len(by_name.get(called, ()))
        out[metric] = total * scale / calls if calls else 0.0
    derivations = tuple("invariants." + n for n in DERIVATIONS)
    derive = named(derivations + ("invariants.crs_elasticities",))
    out["invariants.derive_us"] = sum(own[s[SID]] for s in derive) * US / len(derive) if derive else 0.0

    per_op = 1.0 / max(n_ops, 1)
    modelspec = [s for n, ss in by_name.items() if n.startswith("modelspec.") for s in ss]
    out["modelspec.calls"] = len(modelspec) * per_op
    out["invariants.constancy_points"] = sum(s[SIZE] for s in named(("invariants.constancy_check",))) * per_op
    invariants = [s for n, ss in by_name.items() if n.startswith("invariants.") for s in ss]
    out["invariants.rejected"] = sum(s[OUTCOME] == "rejected" for s in invariants) * per_op
    derived = named(derivations)
    out["invariants.derived_ratio"] = (
        sum(s[OUTCOME] == "ok" for s in derived) / len(derived) if derived else 0.0
    )
    out["ingest.rows"] = sum(s[SIZE] for s in named(("ingest.load_series",))) * per_op
    out["fit.points"] = sum(s[SIZE] for s in named(("fit.fit_system",))) * per_op
    # computed from array sizes (8-byte floats): trajectory reads t and
    # writes L, K, Y; evaluate reads L, K and writes Y.  Not a measurement.
    core_bytes = 8 * (
        4 * sum(s[SIZE] for s in named(("core.trajectory",)))
        + 3 * sum(s[SIZE] for s in named(("core.evaluate",)))
    )
    out["core.bytes_computed"] = core_bytes * per_op
    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(
            s[OUTCOME] == "failed" for n, ss in by_name.items() if n.startswith(layer + ".") for s in ss
        )
    return out
