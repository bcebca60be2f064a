"""Workload definitions: seeded inputs, the operations built from them, and
the checks that decide whether each operation's output is correct.

Every operation is one ``scalewave`` command line.  ``{out}`` in an argument
stands for the directory the operation writes into.  A check returns the
operation's canonical result (compared with the stored reference for the
default seed) and a list of problems (invariants that hold on any seed).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1

#: Shared PDE setting of every benchmark run: 4601 nodes, 4445 steps to t = 200.
PDE = {"n": 1, "mu1": 4.0, "mu2sq": 0.0, "r_max": 230.0, "dr": 0.05, "t_max": 200.0}

#: Decay exponent of the L2 norm for n = 1, mu1 = 4, mu2sq = 0 (scalewave info).
L2_EXPONENT = -0.5

CSV_COLUMNS = ["t", "sup", "l2", "grad_l2", "ut_l2", "wl2", "wgrad_l2", "wenergy", "F"]


@dataclass
class Outcome:
    """What one executed command left behind."""

    exit_code: int
    stdout: str
    stderr: str
    out: Path


@dataclass
class Op:
    name: str
    argv: list
    check: Callable
    cells: int = 0  # sweep cells, 0 for other commands


@dataclass
class Workload:
    name: str
    ops: list
    subprocess: bool = False
    # the kind of work that dominates, and so the speed probe that tracks it
    probe: str = "python"
    # cross-operation invariant over the canonical results of one pass
    check_pass: Callable = field(default=lambda results: [])


class Schema:
    """Lazily loaded validator for scalewave's JSON reports."""

    def __init__(self, root: Path):
        self._path = root / "src" / "scalewave" / "schemas" / "report.schema.json"
        self._validator = None

    def problems(self, payload) -> list:
        if self._validator is None:
            import jsonschema

            schema = json.loads(self._path.read_text())
            self._validator = jsonschema.Draft202012Validator(schema)
        return [f"schema: {e.message}" for e in self._validator.iter_errors(payload)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return json.dumps([float(v) for v in value])
    return value if isinstance(value, str) else repr(value)


def _sets(cfg: dict) -> list:
    argv = []
    for key, value in cfg.items():
        argv += ["--set", f"{key}={_fmt(value)}"]
    return argv


def stratified(rng, lo: float, hi: float, k: int, log: bool = False) -> list:
    """k draws, one uniform draw inside each of k equal strata of [lo, hi].

    Stratifying keeps the mix of cheap and costly inputs the same on every
    seed, which keeps per-run timings comparable across seeds.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (b - a) * (i + rng.random()) / k for i in range(k)]
    return [float(math.exp(x)) if log else float(x) for x in draws]


# ---------------------------------------------------------------------------
# Output readers and checks
# ---------------------------------------------------------------------------

def _status(outcome: Outcome, expected: int = 0) -> list:
    if outcome.exit_code != expected:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {outcome.exit_code}, expected {expected}: {tail[0]}"]
    return []


def _optional_float(text: str):
    return float(text) if text else None


def read_sweep(path: Path) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [{
        "p": float(row["p"]),
        "amplitude": float(row["amplitude"]),
        "outcome": row["outcome"],
        "blowup_time": _optional_float(row["blowup_time"]),
        "l2_exponent": _optional_float(row["l2_exponent"]),
        "p_crit": _optional_float(row["p_crit"]),
    } for row in rows]


def sweep_check(filename: str, p_values, amplitudes, expect: str):
    """Every cell of the band carries the band's verified label."""
    cells = [(float(p), float(a)) for p in p_values for a in amplitudes]

    def check(outcome: Outcome):
        problems = _status(outcome)
        if problems:
            return None, problems
        rows = read_sweep(outcome.out / filename)
        if [(r["p"], r["amplitude"]) for r in rows] != cells:
            return rows, [f"{filename}: cells differ from the requested (p, amplitude) grid"]
        for r in rows:
            if r["outcome"] != expect:
                problems.append(f"{filename}: p={r['p']} a={r['amplitude']} "
                                f"is {r['outcome']}, expected {expect}")
            elif expect == "global-looking" and not (
                    r["l2_exponent"] is not None and abs(r["l2_exponent"] - L2_EXPONENT) < 0.01):
                problems.append(f"{filename}: l2 exponent {r['l2_exponent']} is not {L2_EXPONENT}")
            elif expect == "blowup" and not (r["blowup_time"] and r["blowup_time"] < PDE["t_max"]):
                problems.append(f"{filename}: blow-up time {r['blowup_time']} outside the horizon")
        return rows, problems

    return check


def dichotomy_monotone(results: dict) -> list:
    """Every p that blew up lies below every p that looked global, and p_crit
    separates them."""
    rows = [r for rows in results.values() if rows for r in rows]
    blown = [r["p"] for r in rows if r["outcome"] == "blowup"]
    calm = [r["p"] for r in rows if r["outcome"] == "global-looking"]
    p_crit = {r["p_crit"] for r in rows}
    if not blown or not calm:
        return []
    if not max(blown) < min(calm):
        return [f"dichotomy not monotone in p: blow-up at p={max(blown)}, "
                f"global-looking at p={min(calm)}"]
    if len(p_crit) != 1 or not max(blown) < p_crit.pop() < min(calm):
        return ["p_crit does not separate the blow-up and global-looking bands"]
    return []


def read_series(path: Path) -> tuple:
    with open(path, newline="") as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def l2_slope(t: np.ndarray, l2: np.ndarray, t_min: float) -> float:
    sel = t >= t_min
    return float(np.polyfit(np.log1p(t[sel]), np.log(l2[sel]), 1)[0])


def simulate_check(filename: str, t_max: float, rows: int, stride: int, t_fit: float):
    """A linear run completes, samples every step, and decays at the theoretical rate."""

    def check(outcome: Outcome):
        problems = _status(outcome)
        if problems:
            return None, problems
        if outcome.stdout.strip() != "outcome: completed":
            problems.append(f"simulate printed {outcome.stdout.strip()!r}")
        header, data = read_series(outcome.out / filename)
        if header != CSV_COLUMNS:
            return None, problems + [f"CSV header {header}"]
        if data.shape[0] != rows:
            problems.append(f"{data.shape[0]} samples, expected {rows}")
        if not np.all(np.isfinite(data)):
            problems.append("non-finite values in the series")
        t = data[:, 0]
        if t[0] != 0.0 or abs(t[-1] - t_max) > 1e-9 or np.any(np.diff(t) <= 0.0):
            problems.append("sample times do not run from 0 to t_max")
        slope = l2_slope(t, data[:, 2], t_fit)
        if abs(slope - L2_EXPONENT) > 0.02:
            problems.append(f"l2 decays as (1+t)^{slope:.4f}, expected {L2_EXPONENT}")
        picked = list(range(0, data.shape[0], stride)) + [data.shape[0] - 1]
        result = {"samples": int(data.shape[0]),
                  "rows": {str(i): data[i].tolist() for i in picked}}
        return result, problems

    return check


def _checks_of(payload: dict) -> list:
    return [{k: c[k] for k in ("check_id", "n_cases", "worst", "tolerance", "passed", "skipped")}
            for c in payload["checks"]]


def json_report(schema: Schema, filename: str, outcome: Outcome):
    problems = _status(outcome)
    if problems:
        return None, problems
    payload = json.loads((outcome.out / filename).read_text())
    return payload, schema.problems(payload)


def verify_check(schema: Schema, filename: str):
    """The report is schema-valid and every check ran and passed."""

    def check(outcome: Outcome):
        payload, problems = json_report(schema, filename, outcome)
        if payload is None:
            return None, problems
        checks = _checks_of(payload)
        for c in checks:
            if c["skipped"] or not c["passed"]:
                problems.append(f"{filename}: check {c['check_id']} did not pass")
        if not checks:
            problems.append(f"{filename}: no checks")
        return {"suite": payload["suite"], "checks": checks}, problems

    return check


def odi_check(schema: Schema, filename: str):
    """The report is schema-valid and the trajectory dominates the comparison function."""

    def check(outcome: Outcome):
        payload, problems = json_report(schema, filename, outcome)
        if payload is None:
            return None, problems
        checks = _checks_of(payload)
        if [c["passed"] for c in checks] != [True] or "dominance=PASS" not in outcome.stdout:
            problems.append(f"{filename}: dominance did not pass")
        result = {k: payload[k] for k in ("problem", "nu", "life_span", "trajectory_blowup_time")}
        result["checks"] = checks
        return result, problems

    return check


def info_check(outcome: Outcome):
    problems = _status(outcome)
    facts = dict(line.split(" = ", 1) for line in outcome.stdout.splitlines() if " = " in line)
    if facts.get("p_crit") != "3" or facts.get("l2_exponent") != repr(L2_EXPONENT):
        problems.append(f"info printed {facts}")
    for key, text in facts.items():
        with contextlib.suppress(ValueError):
            facts[key] = float(text)
    return facts, problems


def decay_fit_check(schema: Schema, filename: str):
    def check(outcome: Outcome):
        payload, problems = json_report(schema, filename, outcome)
        if payload is None:
            return None, problems
        if abs(payload["fit"]["exponent"] - L2_EXPONENT) > 0.05:
            problems.append(f"fitted exponent {payload['fit']['exponent']}")
        return payload["fit"], problems

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

BUMP = {"u0_kind": "bump", "u0_width": 3.0, "u0_amplitude": 1.0,
        "u1_kind": "bump", "u1_width": 3.0, "u1_amplitude": 1.0}
GAUSSIAN = {"u0_kind": "gaussian", "u0_width": 0.4, "u0_amplitude": 1.0, "u1_kind": "zero"}


def sweep_dichotomy(seed: int, schema: Schema) -> Workload:
    """Three sweep commands around p_crit = 3: early blow-up, late blow-up, global.

    Bands (verified labels on the code this benchmark was written against):
    amplitude 0.3-1.2 bump data blows up by t ~ 19 for every p <= 2.5;
    amplitude 0.03-0.3 blows up late for p in {1.5, 2} (p = 2 at 0.03 at
    t ~ 91), while p = 2.5 at amplitude <= 0.1 survives to t_max and is left
    out; Gaussian amplitude 0.005-0.02 is global-looking with l2 exponent -0.5
    for p in {3.5, 4, 4.5}.
    """
    rng = np.random.default_rng(seed)
    bands = [
        ("blowup", [1.5, 2.0, 2.5], stratified(rng, 0.3, 1.2, 3), BUMP, "blowup"),
        ("late", [1.5, 2.0], stratified(rng, 0.03, 0.3, 3, log=True), BUMP, "blowup"),
        ("global", [3.5, 4.0, 4.5], stratified(rng, 0.005, 0.02, 2), GAUSSIAN, "global-looking"),
    ]
    ops = []
    for label, p_values, amplitudes, data, expect in bands:
        filename = f"sweep-{label}.csv"
        cfg = {**PDE, **data, "record_every": 25, "p_values": p_values, "amplitudes": amplitudes}
        ops.append(Op(name=f"sweep-{label}",
                      argv=["sweep", *_sets(cfg), "--out", f"{{out}}/{filename}"],
                      check=sweep_check(filename, p_values, amplitudes, expect),
                      cells=len(p_values) * len(amplitudes)))
    return Workload(name="sweep-dichotomy", ops=ops, probe="numpy", check_pass=dichotomy_monotone)


def record_dense(seed: int, schema: Schema) -> Workload:
    """One linear simulate that records every step (4446 samples) to CSV."""
    rng = np.random.default_rng(seed)
    amplitude = stratified(rng, 0.5, 2.0, 1)[0]
    cfg = {**PDE, **GAUSSIAN, "u0_amplitude": amplitude, "nonlinear": False, "record_every": 1}
    op = Op(name="simulate",
            argv=["simulate", *_sets(cfg), "--out", "{out}/run.csv"],
            check=simulate_check("run.csv", PDE["t_max"], rows=4446, stride=100, t_fit=20.0))
    return Workload(name="record-dense", ops=[op], probe="numpy")


#: Bounds of acceptance criterion 8 for k0, k1, alpha, p, f0, df0.
ODI_LOW = np.array([0.5, 0.3, -2.0, 1.5, 0.3, 0.3])
ODI_HIGH = np.array([6.0, 5.0, 0.0, 4.0, 2.0, 2.0])
#: Above this comparison life span ``odi`` integrates with dt = 1e-3 and a case
#: can take 1e7 RK4 steps.  Below it dt = life span / 1e5, and the trajectory
#: blows up before the life span (it dominates the comparison function), so an
#: integration takes at most 1e5 steps.
ODI_MAX_LIFE_SPAN = 100.0
ODI_CANDIDATES = 2000
ODI_CASES = 30


def _odi_life_span(x: np.ndarray) -> np.ndarray:
    """Life span of the comparison function, as scalewave.odi documents it
    (margin 0.9 of the admissible nu), for each row (k0, k1, alpha, p, f0, df0)."""
    k0, k1, alpha, p, f0, df0 = x.T
    inv_beta_f0 = f0 ** (-0.5 * (p - 1.0))
    a = 0.5 * (p + 1.0)
    b = np.maximum((alpha + 1.0 + k0), (p + 1.0) * (alpha + 2.0) / (p - 1.0)) * inv_beta_f0
    nu = 0.9 * np.minimum((-b + np.sqrt(b * b + 4.0 * a * k1)) / (2.0 * a),
                          df0 * f0 ** (-0.5 * (p + 1.0)))
    shift = alpha + 2.0
    with np.errstate(over="ignore", divide="ignore"):
        power = (2.0 * shift / ((p - 1.0) * nu) * inv_beta_f0 + 1.0) ** (1.0 / shift) - 1.0
        log_branch = np.exp(2.0 / ((p - 1.0) * nu) * inv_beta_f0) - 1.0
    return np.where(alpha == -2.0, log_branch, power)


def _odi_blowup_fraction(x: np.ndarray, span: np.ndarray, steps: int = 500) -> np.ndarray:
    """Coarse RK4 of F'' = -k0/(1+t) F' + k1 (1+t)^alpha |F|^p for every row at
    once: the fraction of the life span at which F passes 1e12 (1 if it does
    not).  ``odi`` takes about 1e5 times this many RK4 steps per integration."""
    k0, k1, alpha, p, f, df = (col.copy() for col in x.T)
    h = span / steps
    t = np.zeros_like(span)
    fraction = np.ones_like(span)
    alive = np.ones(span.shape, dtype=bool)

    def accel(t, f, df):
        return -k0 / (1.0 + t) * df + k1 * (1.0 + t) ** alpha * np.abs(f) ** p

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            d1 = accel(t, f, df)
            f2 = df + 0.5 * h * d1
            d2 = accel(t + 0.5 * h, f + 0.5 * h * df, f2)
            f3 = df + 0.5 * h * d2
            d3 = accel(t + 0.5 * h, f + 0.5 * h * f2, f3)
            f4 = df + h * d3
            d4 = accel(t + h, f + h * f3, f4)
            f = f + h / 6.0 * (df + 2.0 * f2 + 2.0 * f3 + f4)
            df = df + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            t = t + h
            hit = alive & ~(f <= 1e12)
            fraction[hit] = i / steps
            alive &= ~hit
            f = np.where(alive, f, 0.0)
            df = np.where(alive, df, 0.0)
    return fraction


def odi_cases(rng, k: int) -> list:
    """k coefficient sets from the distribution of acceptance criterion 8
    (every fifth draw has alpha = -2), stratified by cost.

    The cost of one ``odi`` command varies 100-fold between cases, so a plain
    draw of k cases moves the median by several percent from seed to seed.
    Instead ODI_CANDIDATES cases are drawn, those with a life span above
    ODI_MAX_LIFE_SPAN are dropped, the rest are sorted by predicted cost and
    cut into k equal strata, and one case is drawn from each stratum.
    """
    x = ODI_LOW + rng.random((ODI_CANDIDATES, ODI_LOW.size)) * (ODI_HIGH - ODI_LOW)
    x[::5, 2] = -2.0
    span = _odi_life_span(x)
    keep = span <= ODI_MAX_LIFE_SPAN
    x, span = x[keep], span[keep]
    order = np.argsort(_odi_blowup_fraction(x, span), kind="stable")
    keys = ("k0", "k1", "alpha", "p", "f0", "df0")
    picked = [int(rng.choice(stratum)) for stratum in np.array_split(order, k)]
    # shuffled, so that a pass cut short by the deadline is not biased to cheap cases
    return [{key: float(v) for key, v in zip(keys, x[i])} for i in rng.permutation(picked)]


def toolkit(seed: int, schema: Schema) -> Workload:
    """The three verify suites, then one odi command per drawn coefficient set."""
    rng = np.random.default_rng(seed)
    verify_seed = int(rng.integers(0, 1000))
    ops = []
    for suite in ("identities", "inequalities", "bihari"):
        filename = f"verify-{suite}.json"
        ops.append(Op(name=f"verify-{suite}",
                      argv=["verify", suite, "--seed", str(verify_seed),
                            "--out", f"{{out}}/{filename}"],
                      check=verify_check(schema, filename)))
    for i, case in enumerate(odi_cases(rng, ODI_CASES)):
        filename = f"odi-{i:02d}.json"
        ops.append(Op(name=f"odi-{i:02d}",
                      argv=["odi", *_sets(case), "--out", f"{{out}}/{filename}"],
                      check=odi_check(schema, filename)))
    return Workload(name="toolkit", ops=ops)


def cli_readme(seed: int, schema: Schema) -> Workload:
    """The README examples, plus the two other verify suites, one process each."""
    rng = np.random.default_rng(seed)
    verify_seed = int(rng.integers(0, 1000))
    amplitude = stratified(rng, 0.3, 1.2, 1)[0]
    p_values = [1.5, 2.0, 2.5]
    sweep_cfg = {"p_values": p_values, "amplitudes": [amplitude], "u0_kind": "bump",
                 "u1_kind": "bump", "u0_width": 3.0, "u1_width": 3.0,
                 "r_max": 230.0, "t_max": 200.0}
    run_cfg = {"t_max": 50.0, "r_max": 60.0, "dr": 0.05, "u0_width": 0.4,
               "nonlinear": False, "record_every": 5}
    ops = [
        Op("info", ["info", "--set", "mu1=4", "--set", "p=2"], info_check),
        Op("simulate", ["simulate", *_sets(run_cfg), "--out", "{out}/run.csv"],
           simulate_check("run.csv", 50.0, rows=224, stride=20, t_fit=5.0)),
        Op("decay-fit", ["decay-fit", "{out}/run.csv", "--set", "column=l2", "--set", "t_min=5",
                         "--out", "{out}/fit.json"], decay_fit_check(schema, "fit.json")),
        Op("sweep", ["sweep", *_sets(sweep_cfg), "--out", "{out}/sweep.csv"],
           sweep_check("sweep.csv", p_values, [amplitude], "blowup"), cells=3),
        Op("verify-inequalities", ["verify", "inequalities", "--seed", str(verify_seed),
                                   "--out", "{out}/checks.json"], verify_check(schema, "checks.json")),
        Op("odi", ["odi", *_sets({"k0": 4.0, "k1": 1.0, "alpha": -2.0, "p": 3.0}),
                   "--out", "{out}/odi.json"], odi_check(schema, "odi.json")),
        Op("verify-identities", ["verify", "identities", "--seed", str(verify_seed),
                                 "--out", "{out}/identities.json"],
           verify_check(schema, "identities.json")),
        Op("verify-bihari", ["verify", "bihari", "--out", "{out}/bihari.json"],
           verify_check(schema, "bihari.json")),
    ]
    return Workload(name="cli-readme", ops=ops, subprocess=True)


WORKLOADS = {
    "sweep-dichotomy": sweep_dichotomy,
    "record-dense": record_dense,
    "toolkit": toolkit,
    "cli-readme": cli_readme,
}


def build(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, Schema(root))


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

#: Relative tolerance for floats against the stored reference.  Reordered
#: floating-point arithmetic (a fused kernel, a log-domain quadrature) may move
#: the last digits; a wrong result moves far more than this.
REL_TOL = 1e-8
ABS_TOL = 1e-12


def differences(got, want, where: str = "") -> list:
    """Exact comparison of strings, booleans, integers and None; floats within REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []
