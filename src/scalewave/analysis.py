"""Experiment layer: decay-rate fits, outcome classification and sweeps.

The classification label "global-looking" is deliberate: a finite-horizon
computation cannot certify global existence, so the label encodes the
epistemic limit of a desk-scale run.  A sweep cell fits its L2 series once,
in ``classify_run``, and the global-looking verdict and the reported decay
exponent both come from that fit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialGrid
from .model import ModelParams, RegimeReport, regime_check
from .solver import OUTCOME_COMPLETED, RunConfig, RunReport, run

GLOBAL_LOOKING = "global-looking"
UNDECIDED = "undecided"
# a global-looking run's weighted gradient norm stays within this factor of its start
ENERGY_GROWTH_BOUND = 10.0
# Measured cost of starting the sweep's process pool on Linux with the fork
# start method: importing concurrent.futures.process (about 20 ms) and one
# fork/join of 2 workers (about 16 ms).  A sweep fans out once a running cell
# has taken longer than this, so a sweep of cheaper cells runs serially.
# Other start methods (macOS, and Linux from Python 3.14) cost more to
# start, so there the break-even point lies higher; the rows are the same
# either way.
POOL_START_S = 0.05


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of a norm series against (1+t)."""

    exponent: float
    stderr: float
    window: tuple[float, float]
    log_corrected: bool
    n_points: int

    def __post_init__(self) -> None:
        if not self.window[0] < self.window[1]:
            raise ValueError(f"window must be increasing, got {self.window}")
        if self.n_points < 8:
            raise ValueError(f"a fit needs at least 8 points, got {self.n_points}")


def fit_decay(times, values, window: tuple[float, float], log_factor=None) -> DecayFit:
    """Slope of log(value / correction) against log(1+t) inside the window.

    ``log_factor``, if given, is a callable t -> correction divisor (used on
    the borderline discriminant where the theoretical rate carries a
    logarithmic factor).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    sel = (times >= lo) & (times <= hi)
    if int(sel.sum()) < 8:
        raise ValueError(f"fit window [{lo}, {hi}] contains {int(sel.sum())} samples; need >= 8")
    tw = times[sel]
    vw = values[sel]
    if np.any(vw <= 0.0):
        raise ValueError("decay fit needs positive values inside the window")
    if log_factor is not None:
        vw = vw / np.asarray(log_factor(tw), dtype=float)
    x = np.log1p(tw)
    if x.min() == x.max():
        raise ValueError(f"fit window [{lo}, {hi}] holds a single distinct time; no slope")
    y = np.log(vw)
    x_mean = x.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x_mean)
    residuals = y - (intercept + slope * x)
    dof = x.size - 2
    stderr = math.sqrt(max(float(residuals @ residuals), 0.0) / dof / sxx)
    return DecayFit(
        exponent=slope,
        stderr=stderr,
        window=(float(lo), float(hi)),
        log_corrected=log_factor is not None,
        n_points=int(x.size),
    )


def classify_run(report: RunReport) -> tuple[str, DecayFit | None]:
    """Label a run and return the L2 fit behind a global-looking label.

    A run that did not complete keeps its solver outcome (blow-up or
    diverged).  A completed run is global-looking if its weighted gradient
    norm stayed within ``ENERGY_GROWTH_BOUND`` times its initial value and
    the L2 series fitted over [t_max/10, t_max] decays; it is undecided
    otherwise.  The fit is None unless the label is global-looking, and
    also for identically zero data, which have no L2 series to fit.
    """
    if report.outcome != OUTCOME_COMPLETED:
        return report.outcome, None
    t, l2 = report.series("l2")
    if float(np.max(l2)) == 0.0:
        return GLOBAL_LOOKING, None
    _, wgrad = report.series("wgrad_l2")
    initial = float(wgrad[0])
    if initial == 0.0 or float(np.max(wgrad)) / initial > ENERGY_GROWTH_BOUND:
        return UNDECIDED, None
    try:
        fit = fit_decay(t, l2, (report.config.t_max / 10.0, report.config.t_max))
    except ValueError:
        return UNDECIDED, None
    return (GLOBAL_LOOKING, fit) if fit.exponent < 0.0 else (UNDECIDED, None)


@dataclass(frozen=True)
class SweepRow:
    """One (p, amplitude) cell of a sweep with its outcome and regime."""

    params: ModelParams
    amplitude: float
    outcome: str
    blowup_time: float | None
    l2_exponent: float | None
    regime: RegimeReport


def _sweep_one(task, progress=None) -> SweepRow:
    grid, base_params, p, amplitude, config, u0_profile, u1_profile = task
    params = replace(base_params, p=p)
    cfg = replace(config, params=params)
    u0 = (lambda r: amplitude * np.asarray(u0_profile(r), dtype=float))
    if u1_profile is None:
        u1 = (lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    else:
        u1 = (lambda r: amplitude * np.asarray(u1_profile(r), dtype=float))
    report = run(grid, u0, u1, cfg, progress)
    outcome, fit = classify_run(report)
    return SweepRow(
        params=params,
        amplitude=amplitude,
        outcome=outcome,
        blowup_time=report.blowup_time,
        l2_exponent=fit.exponent if fit is not None else None,
        regime=regime_check(params),
    )


def sweep(grid: RadialGrid, base_params: ModelParams, p_values, amplitudes,
          config: RunConfig, u0_profile, u1_profile=None, jobs: int = 1) -> list[SweepRow]:
    """One solver run per (p, amplitude) pair, rows in deterministic input order.

    ``jobs`` counts the processes that run cells, this one included.  Cells
    run here in input order, each watched at every recorded sample.  The
    first time the running cell has taken longer than ``POOL_START_S``
    while cells are left and ``jobs >= 2``, the sweep fans out over
    ``min(jobs - 1, unstarted)`` worker processes (profiles must then be
    picklable top-level callables).  This process keeps its share of the
    unstarted cells, ``unstarted // (workers + 1)`` from the end, and
    submits the others.  It finishes its cell and runs the kept ones, then
    takes back from the end each submitted cell that no worker has started
    yet, and last collects the workers' rows.  Either way every row carries
    the same bits.  A cell that raises cancels the cells no worker has
    started, waits for the running ones and re-raises.  A non-finite
    amplitude is rejected before any cell runs.
    """
    if not all(math.isfinite(a) for a in amplitudes):
        raise ValueError(f"sweep amplitudes must be finite, got {list(amplitudes)}")
    tasks = [
        (grid, base_params, float(p), float(a), config, u0_profile, u1_profile)
        for p in p_values
        for a in amplitudes
    ]
    rows: list[SweepRow | None] = [None] * len(tasks)
    submitted = []  # (index, future) of the cells handed to the pool, in input order
    kept = []  # the unstarted cells this process keeps at fan-out, last cell first
    pool = None
    started = 0  # cells started here; the cells from this index on are unstarted
    cell_start = 0.0
    caller_errors = np.geterr()

    def fan_out(_t) -> None:
        nonlocal pool
        unstarted = range(started, len(tasks))
        if pool is not None or not unstarted or time.perf_counter() - cell_start <= POOL_START_S:
            return
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs - 1, len(unstarted))
        # A pool puts each worker's running cell and up to workers + 1 queued ones
        # beyond cancel(), long before it starts the queued ones, so this process
        # keeps its share of the cells, from the end, unsubmitted.
        cut = len(unstarted) - len(unstarted) // (workers + 1)
        kept.extend(reversed(unstarted[cut:]))
        # forked workers inherit the running cell's error state; give them the caller's
        with np.errstate(**caller_errors):
            pool = ProcessPoolExecutor(max_workers=workers)
            submitted.extend((index, pool.submit(_sweep_one, tasks[index]))
                             for index in unstarted[:cut])

    watch = fan_out if jobs >= 2 else None
    try:
        while pool is None and started < len(tasks):
            started += 1
            cell_start = time.perf_counter()
            rows[started - 1] = _sweep_one(tasks[started - 1], watch)
        for index in kept:
            rows[index] = _sweep_one(tasks[index])
        # then, from the end, each cell that no worker has started yet
        while submitted and submitted[-1][1].cancel():
            index, _ = submitted.pop()
            rows[index] = _sweep_one(tasks[index])
        for index, future in submitted:
            rows[index] = future.result()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return rows
