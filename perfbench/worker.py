"""One workload process: imports scalewave, builds the seeded inputs, prints
``READY``, then runs the workload's operations in a closed loop and prints a
JSON summary as its last line.  ``run.py`` starts it; it is not meant to be
run by hand.

Untraced mode repeats the operation list round-robin until ``--seconds``
have passed, and always completes at least one full pass, so every
operation of the seed contributes to the medians whatever the speed.
Traced mode runs a fixed number of passes; each operation runs untraced,
then with spans around every public scalewave function, and the two runs'
output files must be byte-identical.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

import scalewave.cli  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE_DIR = HERE / "reference"
#: The speed of a shared machine drifts by tens of percent over seconds.
#: ``op_s`` therefore rescales each operation's wall time to a machine on
#: which the speed probe takes PROBE_REFERENCE_S (10 ms), using
#: the probes taken within PROBE_WINDOW seconds of the operation.  Probes run
#: between operations, one per PROBE_INTERVAL of run, at most MAX_PROBES at once.
PROBE_REFERENCE_S = 0.01
PROBE_WINDOW = 2.0
PROBE_INTERVAL = 0.25
MAX_PROBES = 20
PROBE_LOOP = 150_000
PROBE_NUMPY_LOOP = 330
#: Traced passes; record-dense has one operation, so it runs three for a
#: tracing overhead above the timer noise.
TRACE_PASSES = {"record-dense": 3}
MAX_PROBLEMS = 20


def execute(op, out: Path, as_subprocess: bool) -> tuple:
    """Run one command; return (wall seconds, Outcome)."""
    argv = [arg.replace("{out}", str(out)) for arg in op.argv]
    if as_subprocess:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "scalewave.cli", *argv], cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, workloads.Outcome(-1, "", "timed out", out)
        wall = time.perf_counter() - start
        return wall, workloads.Outcome(proc.returncode, proc.stdout, proc.stderr, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = scalewave.cli.parse_and_dispatch(argv)
        except Exception:  # an uncaught error is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    return wall, workloads.Outcome(code, stdout.getvalue(), stderr.getvalue(), out)


class Ledger:
    """Attempted and failed operations, first results and problems found."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.results = {}
        self.problems = []

    def record(self, op, outcome) -> None:
        self.attempted += 1
        try:
            result, problems = op.check(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result, problems = None, [f"unreadable output: {exc!r}"]
        if op.name in self.results:
            if result != self.results[op.name]:
                problems.append("output differs from the first run of the same inputs")
        else:
            self.results[op.name] = result
            if self.reference is not None:
                want = self.reference.get(op.name)
                problems += workloads.differences(result, want, op.name)[:3]
        if problems:
            self.failed += 1
            self.problems += [f"{op.name}: {p}" for p in problems]

    def extra(self, problems: list) -> None:
        self.problems += problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_reference(name: str, seed: int, writing: bool):
    if seed != workloads.DEFAULT_SEED or writing:
        return None
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())["ops"]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.subprocess else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None, None
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


HEADLINE = {"sweep-dichotomy": "sweep_cell_s", "record-dense": "run_s",
            "toolkit": "odi_mean_s", "cli-readme": "cli_pass_s"}


def summarise(workload, times: dict) -> dict:
    """The workload's end-to-end metrics: name -> (value, unit, samples, note)."""
    med = {name: statistics.median(ts) for name, ts in times.items()}
    passes = min(len(ts) for ts in times.values())
    ops = workload.ops
    if workload.name == "sweep-dichotomy":
        cells = sum(op.cells for op in ops)
        value = sum(med[op.name] for op in ops) / cells
        return {"sweep_cell_s": (value, "s", passes, f"{cells} cells per pass")}
    if workload.name == "record-dense":
        return {"run_s": (med["simulate"], "s", len(times["simulate"]), "")}
    if workload.name == "toolkit":
        odi = [t for op in ops if op.name.startswith("odi-") for t in times[op.name]]
        verify = sum(med[op.name] for op in ops if op.name.startswith("verify-"))
        tail_value, pct = tail(odi)
        out = {"odi_case_s": (statistics.median(odi), "s", len(odi), "median over commands")}
        if tail_value is not None:
            out["odi_case_tail_s"] = (tail_value, "s", len(odi), f"p{pct:.1f} over commands")
        # the gated figure: a median over cases 100-fold apart in cost hinges
        # on the few middle cases, a mean over all of them does not
        cases = [med[op.name] for op in ops if op.name.startswith("odi-")]
        out["odi_mean_s"] = (statistics.fmean(cases), "s", len(odi), "mean of per-case medians")
        out["verify_pass_s"] = (verify, "s", passes, "sum of the three suites")
        return out
    return {
        "cli_pass_s": (sum(med.values()), "s", passes, "sum of per-command medians"),
        "cli_startup_s": (med["info"], "s", len(times["info"]), "info command"),
    }


def _aligned(n: int) -> np.ndarray:
    raw = np.empty(n + 8)
    offset = (-raw.ctypes.data % 64) // 8
    return raw[offset:offset + n]


PROBE_X = _aligned(4601)
PROBE_X[:] = np.linspace(0.0, 1.0, 4601)
PROBE_Y = _aligned(4601)


def python_probe() -> float:
    """Wall time of a fixed pure-Python arithmetic loop."""
    start = time.perf_counter()
    acc = 0.0
    for j in range(PROBE_LOOP):
        acc += j * 0.5
    return time.perf_counter() - start


def numpy_probe() -> float:
    """Wall time of fixed numpy work on a 4601-element array, as in a solver step.

    The buffers are 64-byte aligned: numpy's speed on a small array also
    depends on where the allocator placed it, which differs between processes.
    """
    start = time.perf_counter()
    for _ in range(PROBE_NUMPY_LOOP):
        np.power(PROBE_X, 2.5, out=PROBE_Y)
        np.subtract(PROBE_X[2:], PROBE_X[:-2], out=PROBE_Y[1:-1])
        PROBE_Y @ PROBE_X
    return time.perf_counter() - start


PROBES = {"python": python_probe, "numpy": numpy_probe}


class SpeedLog:
    """Speed probes taken between operations, one per PROBE_INTERVAL of run."""

    def __init__(self, kind: str):
        self.probe = PROBES[kind]
        self.at = []
        self.took = []
        self._last = time.perf_counter() - 4 * PROBE_INTERVAL

    def catch_up(self) -> None:
        due = int((time.perf_counter() - self._last) / PROBE_INTERVAL)
        for _ in range(min(due, MAX_PROBES)):
            self.at.append(time.perf_counter())
            self.took.append(self.probe())
        if due:
            self._last = time.perf_counter()

    def normalise(self, wall: float, start: float, end: float) -> float:
        """``wall`` rescaled to a machine on which the probe takes
        PROBE_REFERENCE_S, judged by the probes within PROBE_WINDOW of it."""
        at, took = np.array(self.at), np.array(self.took)
        near = took[(at >= start - PROBE_WINDOW) & (at <= end + PROBE_WINDOW)]
        return wall * PROBE_REFERENCE_S / float(np.median(near if near.size else took))


def run_untraced(workload, ledger: Ledger, out: Path, args) -> dict:
    ops = workload.ops
    spans = []
    speed = SpeedLog(workload.probe)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        speed.catch_up()
        op = ops[i % len(ops)]
        start = time.perf_counter()
        wall, outcome = execute(op, out, workload.subprocess)
        spans.append((op.name, start, start + wall, wall))
        ledger.record(op, outcome)
        i += 1
        if i == len(ops):
            ledger.extra(workload.check_pass(ledger.results))
            if args.write_reference and ledger.correct:
                write_reference(workload, args.seed, ledger.results)
        if i >= len(ops) and time.perf_counter() >= deadline:
            break
    speed.catch_up()
    raw = {op.name: [] for op in ops}
    scaled = {op.name: [] for op in ops}
    for name, start, end, wall in spans:
        raw[name].append(wall)
        scaled[name].append(speed.normalise(wall, start, end))
    metrics = summarise(workload, raw)
    headline = HEADLINE[workload.name]
    value, _, n, _ = summarise(workload, scaled)[headline]
    metrics["op_s"] = (value, "s", n, f"{headline}, speed-normalised")
    metrics["probe_s"] = (statistics.median(speed.took), "s", len(speed.took), "speed probe")
    metrics["peak_rss_mb"] = (peak_rss_mb(workload), "MB", 1, "")
    return metrics


def write_reference(workload, seed: int, results: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"workload": workload.name, "seed": seed, "ops": results}
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    (REFERENCE_DIR / f"{workload.name}.json").write_text(text)


def import_split() -> tuple:
    """(import scalewave, scipy share) in seconds, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scalewave"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if not match:
            continue
        self_us, cumulative_us, module = match.groups()
        if module == "scalewave":
            total = int(cumulative_us) / 1e6
        if module.split(".")[0] == "scipy":
            scipy += int(self_us) / 1e6
    return total, scipy


def identical_trees(a: Path, b: Path) -> list:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"traced run wrote {names_b}, untraced {names_a}"]
    return [f"traced and untraced {name} differ" for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]


def layer_metrics(tracer: Tracer) -> dict:
    m = {}
    spans = ["solver.step", "grid.laplacian_apply", "solver.detect_blowup",
             "functionals.weighted_l2", "functionals.weighted_energy",
             "functionals.weighted_gradient_norm", "functionals.to_comparison_frame",
             "functionals.spatial_integral", "model.weight_exponent", "grid.integrate",
             "grid.radial_derivative", "solver.run", "analysis.sweep", "analysis.classify_run",
             "analysis.fit_decay", "odi.integrate_odi", "odi.solve", "odi.comparison_check"]
    for name in spans:
        m[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        m[f"{name}.self_us"] = (tracer.self_us(name), "us")
    m["model.coefficients.calls"] = (tracer.calls.get("model.coefficients", 0), "count")
    for name in ["solver.init_state", "cli.write_run_csv", "cli.parse_and_dispatch",
                 "verify.check_psi_identities", "verify.check_dissipativity_signs",
                 "verify.check_energy_identity", "verify.check_weighted_gradient_bound",
                 "verify.check_embeddings", "verify.gn_ratio_check", "verify.bihari_check",
                 "grid.make_radial_grid"]:
        m[f"{name}.self_us"] = (tracer.self_us(name), "us")
    steps = tracer.rk4_steps
    rk4_ns = tracer.total_ns.get("odi.integrate_odi", 0) - tracer.child_ns.get("odi.integrate_odi", 0)
    m["odi.rk4_steps"] = (steps, "count")
    m["odi.rk4_step_us"] = (rk4_ns / steps / 1e3 if steps else 0.0, "us")
    return m


def run_traced(workload, ledger: Ledger, out: Path) -> dict:
    """Each operation runs untraced, then traced; their output files must match."""
    plain, traced = out / "untraced", out / "traced"
    plain.mkdir()
    traced.mkdir()
    walls = {plain: 0.0, traced: 0.0}
    tracer = Tracer()
    for _ in range(TRACE_PASSES.get(workload.name, 1)):
        for op in workload.ops:
            for target in (plain, traced):
                if target is traced:
                    tracer.install()
                try:
                    wall, outcome = execute(op, target, as_subprocess=False)
                finally:
                    tracer.uninstall()
                walls[target] += wall
                ledger.record(op, outcome)
    ledger.extra(workload.check_pass(ledger.results))
    ledger.extra(identical_trees(plain, traced))
    metrics = layer_metrics(tracer)
    scalewave_s, scipy_s = import_split()
    metrics["import.scalewave_s"] = (scalewave_s, "s")
    metrics["import.scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_s"] = (walls[traced] - walls[plain], "s")
    metrics["trace.untraced_s"] = (walls[plain], "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for the commands' outputs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, ROOT)
    print("READY", flush=True)
    # the speed right after set-up, by which run.py rescales the set-up time
    ready_speed = PROBE_REFERENCE_S / statistics.median(python_probe() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready_speed": ready_speed}), flush=True)
        return 0

    out = Path(args.out)
    ledger = Ledger(load_reference(workload.name, args.seed, args.write_reference))
    if args.trace:
        metrics = run_traced(workload, ledger, out)
    else:
        metrics = run_untraced(workload, ledger, out, args)
    summary = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:MAX_PROBLEMS],
        "metrics": metrics,
        "ready_speed": ready_speed,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
