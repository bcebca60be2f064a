"""Command-line front end: simulations, sweeps, verification suites, fits.

A command's defaults dict, and each verify suite's, is its config schema
(run defaults are those of ``RunConfig``; a suite's are its entry in
``verify.SUITES``, which ``verify`` offers and runs as they stand): it
holds exactly the keys its handler reads, a key is allowed exactly when it
has a default, and a value is coerced to that default's type.  A config
file is a flat JSON object of such keys, overridden by repeated
``--set key=value``; NaN is rejected.
CSV and JSON outputs are byte-stable for identical inputs: floats are
written with 17 significant digits, '.' decimal separator and '\\n' line
endings, and JSON keys are sorted.

Exit codes: 0 success, 1 usage error, 2 regime/config error, 3 run diverged.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import logging
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fit_decay, sweep
from .functionals import _gaussian
from .grid import make_radial_grid
from .model import ModelParams, borderline_log_factor, decay_exponents, regime_check
from .odi import OdiProblem, comparison_check, solve
from .solver import OUTCOME_DIVERGED, RunConfig, RunReport, SAMPLE_KEYS, check_run, run
from .verify import SUITES

log = logging.getLogger("scalewave")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

CSV_COLUMNS = ("t",) + SAMPLE_KEYS

MODEL_DEFAULTS = {"n": 1, "mu1": 4.0, "mu2sq": 0.0, "p": 2.0}
RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "params"}
SIMULATE_DEFAULTS = {
    **MODEL_DEFAULTS, **RUN_DEFAULTS,
    "r_max": 30.0, "dr": 0.05,
    # width 0.4 keeps Gaussian data inside the weighted space up to mu1 = 4
    "u0_kind": "gaussian", "u0_amplitude": 1.0, "u0_width": 0.4,
    "u1_kind": "zero", "u1_amplitude": 0.0, "u1_width": 0.4,
}
# each cell runs one of p_values, so a sweep takes no p of its own
SWEEP_DEFAULTS = {**{k: v for k, v in SIMULATE_DEFAULTS.items() if k != "p"},
                  "p_values": [2.0], "amplitudes": [1.0]}
SWEEP_COLUMNS = ("p", "amplitude", "outcome", "blowup_time", "l2_exponent", "p_crit",
                 "global_existence_applicable", "blowup_range_applicable", "delta")
ODI_DEFAULTS = {"k0": 4.0, "k1": 1.0, "alpha": -2.0, "p": 3.0, "f0": 1.0,
                "df0": 1.0, "dt": 0.0}
FIT_DEFAULTS = {"column": "l2", "t_min": 0.0, "t_max": math.inf,
                "log_corrected": False, "n": 1, "mu1": 1.0, "mu2sq": 0.0}
# the file a command writes without --out (the other commands then write to stdout)
DEFAULT_OUT = {"simulate": "run.csv", "sweep": "sweep.csv"}


class ConfigError(ValueError):
    pass


def format_float(x: float) -> str:
    """Fixed 17-significant-digit formatting; byte-identical across runs."""
    return f"{float(x):.17g}"


def _text(value, none: str = "undefined") -> str:
    """A report field as text: ``none`` for None, true or false, text as is, else a float."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else format_float(value)


def _coerce(key: str, value, target_type):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as a boolean")
    if target_type is list:
        if isinstance(value, str):
            value = json.loads(value)
        if not isinstance(value, list):
            raise ConfigError(f"key {key!r}: expected a list, got {value!r}")
        return [_coerce(key, v, float) for v in value]
    if isinstance(value, bool) or (target_type is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"key {key!r}: expected {target_type.__name__}, got {value!r}")
    try:
        result = target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {target_type.__name__}") from exc
    if target_type is float and math.isnan(result):
        raise ConfigError(f"key {key!r}: {value!r} is not a number")
    return result


def load_config(defaults: dict, config_path: str | None, overrides: list[str]) -> dict:
    """Merge defaults, a flat JSON config file and --set overrides.

    The defaults are the schema: a key is allowed exactly when it has a
    default, and a value is coerced to the type of that default.
    """
    pairs = []
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        pairs = list(raw.items())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        pairs.append(item.split("=", 1))
    merged = dict(defaults)
    for key, value in pairs:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value, type(defaults[key]))
    return merged


@dataclass(frozen=True)
class DataProfile:
    """Radial data profile: a validated callable of r."""

    kind: str
    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "gaussian", "bump"):
            raise ConfigError(f"unknown data kind {self.kind!r} (expected zero, gaussian or bump)")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"data amplitude must be finite, got {self.amplitude}")
        if not 0.0 < self.width < math.inf:
            raise ConfigError(f"data width must be finite and positive, got {self.width}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "gaussian":
            return self.amplitude * _gaussian(r, self.width)
        s = np.clip(r / self.width, 0.0, 1.0)
        return self.amplitude * (1.0 - s**2) ** 3


def _check_out(path) -> None:
    """Raise now the ConfigError that writing ``path`` would, where a stat can tell.

    That is a parent that is missing or not a directory, or a directory at
    ``path``; a command checks its output so before any work.
    """
    if path is None:
        return
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or os.curdir).st_mode):
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        # worded as the error open() raises for ``path``
        error = OSError(exc.errno, exc.strerror, path)
        raise ConfigError(f"cannot write {path}: {error}") from None


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing with '\\n' line endings; an OSError is a ConfigError."""
    try:
        with open(path, "w", newline="\n") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_run_csv(report: RunReport, path) -> None:
    """Serialize the recorded samples with the canonical column set."""
    # '%.17g' % x is format_float(x) for every float, NaN, infinities and -0.0 included
    template = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    with _output(path) as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        # one row at a time: a whole-array tolist() would hold every float as an object
        for row in report.samples:
            handle.write(template % tuple(row.tolist()))


def read_series_csv(path, column: str):
    """Read (t, column) out of a CSV produced by ``simulate``."""
    try:
        with open(path, "r", newline="") as handle:
            header = handle.readline().strip().split(",")
            rows = [line.strip().split(",") for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    if "t" not in header or column not in header:
        raise ConfigError(f"CSV {path} lacks a 't' or {column!r} column")
    if not rows:
        raise ConfigError(f"CSV {path} has no rows")
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"CSV {path} has a row whose length differs from its header's")
    ti = header.index("t")
    ci = header.index(column)
    t = np.array([float(row[ti]) for row in rows])
    v = np.array([float(row[ci]) for row in rows])
    return t, v


def _write_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with _output(out_path) as handle:
            handle.write(text)


def _report_header(kind: str, seed: int = 0) -> dict:
    return {"kind": kind, "seed": int(seed), "tool": f"scalewave {__version__}"}


def _model_params(cfg: dict) -> ModelParams:
    # sweep and decay-fit take no p: none of their cells or fits reads it
    return ModelParams(n=cfg["n"], mu1=cfg["mu1"], mu2sq=cfg["mu2sq"], p=cfg.get("p", 2.0))


def _build_run(cfg: dict):
    params = _model_params(cfg)
    grid = make_radial_grid(cfg["n"], cfg["r_max"], cfg["dr"])
    config = RunConfig(params=params, **{k: cfg[k] for k in RUN_DEFAULTS})
    check_run(grid, config)
    u0 = DataProfile(cfg["u0_kind"], cfg["u0_amplitude"], cfg["u0_width"])
    u1 = DataProfile(cfg["u1_kind"], cfg["u1_amplitude"], cfg["u1_width"])
    return grid, config, u0, u1


def _cmd_simulate(args) -> int:
    cfg = load_config(SIMULATE_DEFAULTS, args.config, args.set)
    grid, config, u0, u1 = _build_run(cfg)
    report = run(grid, u0, u1, config, jobs=args.jobs)
    out = args.out or DEFAULT_OUT["simulate"]
    write_run_csv(report, out)
    log.info("simulate: outcome=%s samples=%d -> %s", report.outcome, len(report.samples), out)
    print(f"outcome: {report.outcome}"
          + (f" (blow-up at t={format_float(report.blowup_time)})" if report.blowup_time else ""))
    return EXIT_DIVERGED if report.outcome == OUTCOME_DIVERGED else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(SWEEP_DEFAULTS, args.config, args.set)
    grid, config, u0, u1 = _build_run(cfg)
    rows = sweep(grid, cfg["p_values"], cfg["amplitudes"], config, u0,
                 None if cfg["u1_kind"] == "zero" else u1, jobs=args.jobs)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = asdict(row)
        cells.update(cells["params"], **cells["regime"])
        lines.append(",".join(_text(cells[column], none="") for column in SWEEP_COLUMNS))
    out = args.out or DEFAULT_OUT["sweep"]
    with _output(out) as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows -> {out}")
    diverged = any(row.outcome == OUTCOME_DIVERGED for row in rows)
    return EXIT_DIVERGED if diverged else EXIT_OK


def _cmd_verify(args) -> int:
    defaults, suite = SUITES[args.suite]
    checks = suite(load_config(defaults, args.config, args.set), args.seed)
    payload = _report_header("verify", args.seed)
    payload["suite"] = args.suite
    payload["checks"] = [c.to_dict() for c in checks]
    _write_json(payload, args.out)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        print(f"{status} {c.check_id}: worst={c.worst:.3g} tol={c.tolerance:.3g}")
    return EXIT_OK if not failed else EXIT_CONFIG


def _cmd_odi(args) -> int:
    cfg = load_config(ODI_DEFAULTS, args.config, args.set)
    problem = OdiProblem(k0=cfg["k0"], k1=cfg["k1"], alpha=cfg["alpha"], p=cfg["p"],
                         f0=cfg["f0"], df0=cfg["df0"])
    dt = cfg["dt"] if cfg["dt"] > 0.0 else None
    solution = solve(problem, dt)
    check = comparison_check(solution)
    payload = _report_header("odi")
    payload["problem"] = asdict(problem)
    payload["nu"] = solution.nu
    payload["life_span"] = solution.life_span
    payload["trajectory_blowup_time"] = solution.blowup_time
    payload["checks"] = [check.to_dict()]
    _write_json(payload, args.out)
    print(f"nu={format_float(solution.nu)} life_span={format_float(solution.life_span)} "
          f"dominance={'PASS' if check.passed else 'FAIL'}")
    return EXIT_OK if check.passed else EXIT_CONFIG


def _cmd_decay_fit(args) -> int:
    cfg = load_config(FIT_DEFAULTS, args.config, args.set)
    t, v = read_series_csv(args.csv, cfg["column"])
    hi = cfg["t_max"] if math.isfinite(cfg["t_max"]) else float(t.max())
    log_factor = None
    if cfg["log_corrected"]:
        params = _model_params(cfg)
        log_factor = lambda tt: borderline_log_factor(params, tt)
    fit = fit_decay(t, v, (cfg["t_min"], hi), log_factor)
    payload = _report_header("decay_fit")
    payload["column"] = cfg["column"]
    payload["fit"] = asdict(fit)
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_info(args) -> int:
    cfg = load_config(MODEL_DEFAULTS, args.config, args.set)
    params = _model_params(cfg)
    regime = asdict(regime_check(params))
    table = asdict(decay_exponents(params)) if regime["delta"] > 0.0 else None
    print(f"n={params.n} mu1={params.mu1} mu2sq={params.mu2sq} p={params.p}")
    for key, value in {**regime, **(table or {})}.items():
        print(f"{key} = {_text(value)}")
    if args.out:
        _write_json({**_report_header("info"), "params": asdict(params),
                     "delta": regime.pop("delta"), "regime": regime,
                     "decay_exponents": table}, args.out)
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalewave",
        description="Numerical laboratory for the wave equation with "
                    "scale-invariant damping and mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
        return p

    for name, handler, summary, work in (
            ("simulate", _cmd_simulate, "one run, norm series to CSV", "record samples"),
            ("sweep", _cmd_sweep, "(p, amplitude) sweep to CSV", "run cells")):
        command(name, handler, summary).add_argument(
            "--jobs", type=_jobs, default=_usable_cpus(),
            help=f"most processes that {work}, this one included (default: usable CPUs; "
                 "1 runs serially; more than 1 forks only on Linux)")
    verify_p = command("verify", _cmd_verify, "identity/inequality/comparison suites")
    verify_p.add_argument("suite", choices=list(SUITES))
    verify_p.add_argument("--seed", type=int, default=0,
                          help="seed of the sampled test points, recorded in the report")
    command("odi", _cmd_odi, "blow-up comparison toolkit report")
    command("decay-fit", _cmd_decay_fit, "fit a decay exponent from a series CSV").add_argument(
        "csv", help="input CSV (as written by simulate)")
    command("info", _cmd_info, "print regime facts for given parameters")
    return parser


def parse_and_dispatch(argv) -> int:
    level = os.environ.get("SCALEWAVE_LOG", "error").lower()
    logging.basicConfig(level={"error": logging.ERROR, "info": logging.INFO,
                               "debug": logging.DEBUG}.get(level, logging.ERROR))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        _check_out(args.out or DEFAULT_OUT.get(args.command))
        return args.handler(args)
    except ValueError as exc:  # ConfigError and RegimeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        # finite but extreme settings that overflow a closed form or a check
        print(f"error: a value overflowed ({exc})", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    # The imports are done: move what they made to the collector's permanent
    # generation, so that neither a collection during the command nor the
    # interpreter's exit walks it again.  Only the process entry freezes;
    # an in-process caller of parse_and_dispatch keeps its own collector.
    gc.freeze()
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
