"""Seeded input generator shared by all workloads.

Everything derives from `random.Random("prodfn-bench/<workload>/<seed>")`,
so one seed always gives byte-identical files and op sequences.  Reference
values the checker compares against (growth rates, log levels, expected
function parameters) are computed here with plain `math`, independently of
the package under test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GRID_97 = "0:24:0.25"  # the CLI's default derive grid, 97 points
GRID_START, GRID_STOP, GRID_STEP = (float(x) for x in GRID_97.split(":"))
CLI_CSV_ROWS = 24
CLI_INVALID_SHARE = 0.10
BULK_ROWS = 10_000
BULK_FILES = 3
BULK_GRID_POINTS = 1_000_000
FLEET_MODELS = 1000
# Shares of the fleet pool: reducible models go through ces_reduction;
# "share" models have b3 outside (b1, b2), so the CRS alpha is no share and
# the Cobb-Douglas and CES-like members must be rejected with a DomainError;
# "overflow" models trip defect D1 in ces_like_member.
FLEET_KINDS = {"regular": 0.80, "reducible": 0.10, "share": 0.07, "overflow": 0.03}

CD1928 = {
    "b1": 0.02549605,
    "b2": 0.06472564,
    "b3": 0.03592651,
    "ln_L0": 4.66953290,
    "ln_K0": 4.61213588,
    "ln_Y0": 4.66415363,
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"prodfn-bench/{workload}/{seed}")


def _levels(m: dict, lns) -> dict:
    # Store the level itself and its log exactly as `to_model` will compute it.
    for key, ln in zip(("L0", "K0", "Y0"), lns):
        level = math.exp(ln)
        m[key] = level
        m["ln_" + key] = math.log(level)
    return m


def draw_model(rng: random.Random, kind: str) -> dict:
    """One 3-variable system of the given kind, plus a fallback share `alpha`."""
    u = rng.uniform
    if kind == "regular":
        b1, b2 = u(0.01, 0.2), u(0.01, 0.2)
        m = {"b1": b1, "b2": b2, "b3": b2 + u(0.1, 0.9) * (b1 - b2)}
        lns = (u(0.0, 6.0), u(0.0, 6.0), u(0.0, 6.0))
    elif kind == "reducible":
        b, g = u(0.01, 0.2), u(0.0, 6.0)
        m = {"b1": b, "b2": b, "b3": u(0.01, 0.2)}
        lns = (g, g, g)
    elif kind == "share":
        b1, b2 = u(0.01, 0.2), u(0.01, 0.2)
        m = {"b1": b1, "b2": b2, "b3": max(b1, b2) + u(0.005, 0.05)}
        lns = (u(0.0, 6.0), u(0.0, 6.0), u(0.0, 6.0))
    elif kind == "overflow":
        # ln_Y0/b3 - ln_L0/b1 in (720, 900): exp() of it overflows in ces_like_member
        m = {"b1": u(0.004, 0.006), "b2": u(0.05, 0.07), "b3": u(0.02, 0.04)}
        ln_L0 = u(0.0, 1.0)
        lns = (ln_L0, u(0.0, 6.0), m["b3"] * (ln_L0 / m["b1"] + u(720.0, 900.0)))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    m["kind"] = kind
    m["alpha"] = u(0.05, 0.95)
    return _levels(m, lns)


def model_text(m: dict) -> str:
    rows = (("L", "labor", m["b1"], m["L0"]), ("K", "capital", m["b2"], m["K0"]), ("Y", "output", m["b3"], m["Y0"]))
    return "".join(
        f"var {v} = {level!r};  d{v}/dt = {b!r} * {v};  role {role} {v};\n" for v, role, b, level in rows
    )


def crs_alpha(m: dict) -> float:
    return (m["b3"] - m["b2"]) / (m["b1"] - m["b2"])


def cobb_douglas_params(m: dict, alpha: float) -> dict:
    beta = m["b3"] / m["b2"] - alpha * m["b1"] / m["b2"]
    A = math.exp(m["ln_Y0"] - alpha * m["ln_L0"] - beta * m["ln_K0"])
    return {"type": "cobb-douglas", "A": A, "alpha": alpha, "beta": beta}


def series_csv(m: dict, rows: int, first_year: int) -> tuple[str, dict]:
    """Exact exponential series of model `m` as CSV text, values with repr."""
    cols = {"L": (m["ln_L0"], m["b1"]), "K": (m["ln_K0"], m["b2"]), "Y": (m["ln_Y0"], m["b3"])}
    values = {c: [math.exp(ln0 + b * t) for t in range(rows)] for c, (ln0, b) in cols.items()}
    lines = ["year,L,K,Y"]
    for t in range(rows):
        lines.append(f"{first_year + t},{values['L'][t]!r},{values['K'][t]!r},{values['Y'][t]!r}")
    return "\n".join(lines) + "\n", values


# ---------------------------------------------------------------------------
# fleet


def fleet(seed: int, work: Path) -> dict:
    rng = rng_for("fleet", seed)
    kinds = []
    for kind, share in FLEET_KINDS.items():
        kinds += [kind] * round(share * FLEET_MODELS)
    rng.shuffle(kinds)
    models = []
    for kind in kinds:
        m = draw_model(rng, kind)
        m["text"] = model_text(m)
        models.append(m)
    return {"models": models}


# ---------------------------------------------------------------------------
# bulk


def bulk(seed: int, work: Path) -> dict:
    rng = rng_for("bulk", seed)
    files = []
    for i in range(BULK_FILES):
        b1, b2 = rng.uniform(0.01, 0.03), rng.uniform(0.01, 0.03)
        m = {"b1": b1, "b2": b2, "b3": b2 + rng.uniform(0.1, 0.9) * (b1 - b2)}
        _levels(m, (rng.uniform(3.0, 5.0), rng.uniform(3.0, 5.0), rng.uniform(3.0, 5.0)))
        text, _ = series_csv(m, BULK_ROWS, first_year=rng.randrange(1, 1000))
        path = work / f"bulk{i}.csv"
        path.write_text(text, encoding="utf-8")
        files.append({"path": path.name, "rows": BULK_ROWS, "b": [m["b1"], m["b2"], m["b3"]]})
    return {"files": files, "grid_points": BULK_GRID_POINTS}


# ---------------------------------------------------------------------------
# cli-mix


def _write(work: Path, name: str, text: str) -> str:
    (work / name).write_text(text, encoding="utf-8")
    return name


def cli_mix(seed: int, work: Path, n_ops: int = 4000) -> dict:
    """Files, argv cases and a seeded op sequence over the five subcommands.

    Each case carries `ref`, the data its checker needs.  Invalid cases say
    which outcome is expected: a typed rejection, or one of the named
    defects (which the checker still counts as a failed op).
    """
    rng = rng_for("cli-mix", seed)
    models = [draw_model(rng, "regular") for _ in range(4)]
    cases = []

    def add(sub, argv, valid=True, **ref):
        cases.append({"id": len(cases), "sub": sub, "argv": argv, "valid": valid, "ref": ref})

    for i, m in enumerate(models):
        spec = _write(work, f"m{i}.mdl", model_text(m))
        params = {k: m[k] for k in ("b1", "b2", "b3", "ln_L0", "ln_K0", "ln_Y0")}
        for family in ("cobb-douglas", "ces-like", "fundamental"):
            add("derive", ["derive", "--from-spec", spec, "--family", family], model=params)
        fn = _write(work, f"fn{i}.json", json.dumps(cobb_douglas_params(m, crs_alpha(m))))
        add(
            "check",
            ["check", "--model", spec, "--function", fn, "--grid", GRID_97, "--table", f"table{i}.csv"],
            table=f"table{i}.csv",
            n=97,
        )
        add("simulate", ["simulate", "--model", spec, "--grid", GRID_97], model=params, n=97)

    red = draw_model(rng, "reducible")
    spec = _write(work, "reducible.mdl", model_text(red))
    add("derive", ["derive", "--from-spec", spec, "--family", "ces", "--alpha", repr(red["alpha"])])
    cd = _levels(dict(CD1928), (CD1928["ln_L0"], CD1928["ln_K0"], CD1928["ln_Y0"]))
    spec = _write(work, "cd1928.mdl", model_text(cd))
    add("derive", ["derive", "--from-spec", spec, "--family", "cobb-douglas"], cd1928=True)

    for j in range(2):
        m = draw_model(rng, "regular")
        text, values = series_csv(m, CLI_CSV_ROWS, first_year=1899)
        csv = _write(work, f"data{j}.csv", text)
        fit = ["fit", "--csv", csv, "--year-col", "year", "--labor-col", "L", "--capital-col", "K", "--output-col", "Y"]
        export = ["export", "--csv", csv, "--year-col", "year", "--value-col", "L", "--value-col", "K"]
        b = [m["b1"], m["b2"], m["b3"]]
        add("fit", fit, b=b)
        add("fit", fit + ["--normalize"], b=b)
        add("export", export, values=[values["L"], values["K"]], normalize=False)
        add("export", export + ["--normalize"], values=[values["L"], values["K"]], normalize=True)

    # invalid inputs: the first five must end in a typed rejection
    bad_row = rng.randrange(2, CLI_CSV_ROWS + 1)
    lines = text.splitlines()
    lines[bad_row - 1] = lines[bad_row - 1].rsplit(",", 1)[0] + ",n/a"
    bad_csv = _write(work, "badcell.csv", "\n".join(lines) + "\n")
    add("fit", fit[:2] + [bad_csv] + fit[3:], valid=False, exit=3)
    bad_spec = _write(work, "bad.mdl", model_text(models[0]).replace(";", "", 1 + rng.randrange(3)))
    add("derive", ["derive", "--from-spec", bad_spec, "--family", "cobb-douglas"], valid=False, exit=3)
    add("export", ["export", "--csv", "missing.csv", "--year-col", "year", "--value-col", "L"], valid=False, exit=3)
    add("derive", ["derive", "--from-spec", "m0.mdl", "--family", "ces"], valid=False, exit=4)
    ovf = _write(work, "overflow.mdl", model_text(draw_model(rng, "overflow")))
    add("derive", ["derive", "--from-spec", ovf, "--family", "ces-like"], valid=False, exit=4)
    big = _write(work, "fn_overflow.json", json.dumps({"type": "cobb-douglas", "A": 1e300, "alpha": 0.5, "beta": 50}))
    add("check", ["check", "--model", "m1.mdl", "--function", big, "--grid", GRID_97], valid=False, defect="D2")
    add("simulate", ["simulate", "--model", "m2.mdl", "--grid", "0:24"], valid=False, defect="D3")

    valid = {}
    for c in cases:
        if c["valid"]:
            valid.setdefault(c["sub"], []).append(c["id"])
    invalid = [c["id"] for c in cases if not c["valid"]]
    subs = sorted(valid)
    # op 0 is the CD1928 pin, then every other case once in seeded order (so
    # every run tries every case), then the seeded mix
    pin = next(c["id"] for c in cases if c["ref"].get("cd1928"))
    first_pass = [c["id"] for c in cases if c["id"] != pin]
    rng.shuffle(first_pass)
    sequence = [pin] + first_pass
    while len(sequence) < n_ops:
        if rng.random() < CLI_INVALID_SHARE:
            sequence.append(rng.choice(invalid))
        else:
            sequence.append(rng.choice(valid[rng.choice(subs)]))
    return {"cases": cases, "sequence": sequence}


GENERATORS = {"cli-mix": cli_mix, "fleet": fleet, "bulk": bulk}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files into `work` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    plan = GENERATORS[workload](seed, work)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
