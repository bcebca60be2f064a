"""Experiment layer: decay-rate fits, outcome classification and batches of runs.

The classification label "global-looking" is deliberate: a finite-horizon
computation cannot certify global existence, so the label encodes the
epistemic limit of a desk-scale run.  A sweep cell fits its L2 series once,
in ``classify_run``, and the global-looking verdict and the reported decay
exponent both come from that fit.  ``run_all`` runs a batch of solver runs,
on lanes it may fork; a sweep is one batch, of (p, amplitude) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lanes
from .grid import RadialGrid
from .model import ModelParams, RegimeReport, regime_check
from .solver import OUTCOME_COMPLETED, RunConfig, RunReport, lanes_that_fit, run

GLOBAL_LOOKING = "global-looking"
UNDECIDED = "undecided"
# a global-looking run's weighted gradient norm stays within this factor of its start
ENERGY_GROWTH_BOUND = 10.0


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
    # NaN fails both comparisons
    if not np.all((vw > 0.0) & (vw < math.inf)):
        raise ValueError("decay fit needs finite positive values inside the window")
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
    norm started finite and nonzero, stayed within ``ENERGY_GROWTH_BOUND``
    times that initial value, and the L2 series fitted over [t_max/10, t_max]
    decays; it is undecided otherwise.  The fit is None unless the label is
    global-looking, and also for identically zero data, which have no L2
    series to fit.
    """
    if report.outcome != OUTCOME_COMPLETED:
        return report.outcome, None
    t, l2 = report.series("l2")
    if float(np.max(l2)) == 0.0:
        return GLOBAL_LOOKING, None
    _, wgrad = report.series("wgrad_l2")
    initial = float(wgrad[0])
    # an initial norm of 0 or +inf (data outside the weighted space) bounds nothing
    if not 0.0 < initial < math.inf or float(np.max(wgrad)) / initial > ENERGY_GROWTH_BOUND:
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


def run_all(tasks, reduce, jobs: int = 1) -> list:
    """``reduce(run(*task))`` for each task ``(grid, u0, u1, config)``, in order.

    ``jobs`` counts the processes that run tasks, this one included.  Before
    the first task, ``run_all`` forks ``min(jobs, tasks, lanes_that_fit(...)
    of each task) - 1`` lanes (``lanes.Lanes``; Linux only); this process and
    the lanes then take every task's index from one pipe, in one loop.
    ``reduce`` runs where its run ran; a lane sends back its values, which
    must pickle (tasks reach it by fork, so profiles may be lambdas).  With
    no lane (``jobs`` 1, one task, another platform or a refused fork) the
    tasks run here.  Each ``run`` has ``jobs=1``, so the values carry the
    same bits either way.  A raising task takes every index left, so no task
    starts after it; once the lanes end, the lowest-index raising task's
    error is raised, as in a serial loop.
    """
    count = min(jobs, len(tasks), *(lanes_that_fit(task[0], task[3]) for task in tasks)) - 1
    pipe = lanes.IndexPipe() if count > 0 and lanes.forks() else None
    serial = iter(range(len(tasks)))  # while no lane forked

    def take() -> int | None:
        return next(serial, None) if pipe is None else pipe.take()

    def run_tasks() -> tuple[list, tuple | None]:
        # the tasks left, until none is: ([(index, value)], first failure or None)
        done = []
        while (index := take()) is not None:
            try:
                done.append((index, reduce(run(*tasks[index]))))
            except Exception as exc:
                # no task starts after a raising one
                while take() is not None:
                    pass
                return done, (index, exc)
        return done, None

    def lane() -> tuple[list, tuple | None]:
        pipe.close(read=False)
        return run_tasks()

    with lanes.Lanes() as forked:
        try:
            if pipe is not None:
                if forked.fork(count, lane):
                    pipe.put(range(len(tasks)))
                    # the loops see the pipe's end once it is empty
                    pipe.close(read=False)
                else:
                    pipe.close()
                    pipe = None
            ran = [run_tasks()] + forked.collect()
        finally:
            if pipe is not None:
                pipe.close()
    failures = [failure for _, failure in ran if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    # each index ran once, so the pairs sort by it alone
    return [value for _, value in sorted(pair for done, _ in ran for pair in done)]


def _outcome(report: RunReport) -> tuple:
    outcome, fit = classify_run(report)
    return outcome, report.blowup_time, fit.exponent if fit is not None else None


def sweep(grid: RadialGrid, p_values, amplitudes, config: RunConfig, u0_profile,
          u1_profile=None, jobs: int = 1) -> list[SweepRow]:
    """One solver run per (p, amplitude) pair, rows in deterministic input order.

    A cell runs ``config`` with its own p and its amplitude times each profile
    as data, as one task of ``run_all``.  A non-finite amplitude is rejected
    before any cell runs.
    """
    if not all(math.isfinite(a) for a in amplitudes):
        raise ValueError(f"sweep amplitudes must be finite, got {list(amplitudes)}")

    def task(p: float, amplitude: float) -> tuple:
        u0 = lambda r: amplitude * np.asarray(u0_profile(r), dtype=float)
        u1 = ((lambda r: np.zeros_like(np.asarray(r, dtype=float))) if u1_profile is None
              else (lambda r: amplitude * np.asarray(u1_profile(r), dtype=float)))
        return grid, u0, u1, replace(config, params=replace(config.params, p=p))

    cells = [(float(p), float(a)) for p in p_values for a in amplitudes]
    tasks = [task(*cell) for cell in cells]
    return [SweepRow(cfg.params, a, *value, regime_check(cfg.params)) for (*_, cfg), (_, a), value
            in zip(tasks, cells, run_all(tasks, _outcome, jobs))]
