"""scalewave benchmark: one command runs a workload and prints its metrics.

    python3 perfbench/run.py --workload sweep-dichotomy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The workload runs in a fresh process
(``worker.py``) with ``src`` on ``PYTHONPATH`` and single-threaded BLAS.
Set-up time is measured from spawning that process until it reports ready,
on several spawns, and rescaled by the speed the process measures right
after.  Every metric is printed by name and unit, then the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402

#: Extra spawns that only measure set-up; the measuring spawn adds one more sample.
SETUP_SPAWNS = 5

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "SCALEWAVE_LOG": "error",
}


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
    }


def spawn(workload: str, seed: int, seconds: float, trace: int, out: Path, env: dict,
          setup_only: bool = False, write_reference: bool = False) -> tuple:
    """Start a worker; return its speed-normalised set-up time and its summary."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if write_reference:
        cmd.append("--write-reference")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(60.0, 5.0 * seconds + 60.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    summary = json.loads(rest.strip().splitlines()[-1])
    return setup * summary["ready_speed"], summary


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 write_reference: bool) -> dict:
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SPAWNS):
                setups.append(spawn(workload, seed, seconds, trace, work, env, setup_only=True)[0])
        setup, summary = spawn(workload, seed, seconds, trace, work, env,
                               write_reference=write_reference)
        setups.append(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    metrics = summary["metrics"]
    if trace:
        report = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        lines = [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups),
                              "median over spawns, speed-normalised")
        attempted = summary["attempted"]
        metrics["fail_ratio"] = (summary["failed"] / attempted, "ratio", attempted,
                                 f"{summary['failed']} of {attempted} operations")
        report = {
            "op_s": {"value": metrics["op_s"][0], "unit": "s"},
            "setup_s": {"value": metrics["setup_s"][0], "unit": "s"},
            "peak_rss_mb": {"value": metrics["peak_rss_mb"][0], "unit": "MB"},
        }
        lines = [f"  {name} = {value:.6g} {unit} (n={n}{', ' + note if note else ''})"
                 for name, (value, unit, n, note) in metrics.items()]
    return {"summary": summary, "report": report, "lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description="scalewave benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{workloads.DEFAULT_SEED} reference")
    args = parser.parse_args()

    if not (ROOT / "src" / "scalewave" / "__init__.py").is_file():
        print(f"error: no scalewave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        print(f"error: the reference is stored for seed {workloads.DEFAULT_SEED} only",
              file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(args.seed)), flush=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.write_reference)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = result["summary"]
        print(f"workload {name} (seed {args.seed}, trace {args.trace}):")
        print("\n".join(result["lines"]))
        for problem in summary["problems"]:
            print(f"  problem: {problem}")
        final["correct"] = final["correct"] and summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        final["metrics"].update({prefix + k: v for k, v in result["report"].items()})
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
