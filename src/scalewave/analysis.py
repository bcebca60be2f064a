"""Experiment layer: decay-rate fits, outcome classification and sweeps.

The classification label "global-looking" is deliberate: a finite-horizon
computation cannot certify global existence, so the label encodes the
epistemic limit of a desk-scale run.  A sweep cell fits its L2 series once,
in ``classify_run``, and the global-looking verdict and the reported decay
exponent both come from that fit.  A sweep's cells are (p, amplitude)
pairs, run in one loop by this process and by the lanes it may fork before
the first cell, each lane sending back the rows of the cells it ran (see
``sweep``).
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


def _sweep_one(grid: RadialGrid, config: RunConfig, p: float, amplitude: float, u0_profile,
               u1_profile) -> SweepRow:
    params = replace(config.params, p=p)
    cfg = replace(config, params=params)
    u0 = (lambda r: amplitude * np.asarray(u0_profile(r), dtype=float))
    if u1_profile is None:
        u1 = (lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    else:
        u1 = (lambda r: amplitude * np.asarray(u1_profile(r), dtype=float))
    report = run(grid, u0, u1, cfg)
    outcome, fit = classify_run(report)
    return SweepRow(
        params=params,
        amplitude=amplitude,
        outcome=outcome,
        blowup_time=report.blowup_time,
        l2_exponent=fit.exponent if fit is not None else None,
        regime=regime_check(params),
    )


def sweep(grid: RadialGrid, p_values, amplitudes, config: RunConfig, u0_profile,
          u1_profile=None, jobs: int = 1) -> list[SweepRow]:
    """One solver run per (p, amplitude) pair, rows in deterministic input order.

    A cell runs ``config`` with its own power p, and with its amplitude times
    each profile as data.  ``jobs`` counts the processes that run cells, this
    one included.  Before any cell runs, the sweep forks
    ``min(jobs, cells, lanes_that_fit(...)) - 1`` lanes (``lanes.Lanes``;
    Linux only), so that every lane's run fits ``RUN_BYTES_BUDGET`` at once,
    and writes the index of every cell into one pipe.  This process and
    every lane then take indices from that pipe, in input order, in one loop
    until it is empty, and each lane sends back the rows it ran.  With no
    lane (``jobs`` 1, one cell, another platform or a refused fork), the
    cells run here in input order.  Every cell runs ``run`` with
    ``jobs=1``, so each row carries the same bits either way.  A cell that
    raises takes every index left, so that no cell starts after it; once
    every lane has ended, the error of the lowest-index raising cell is
    raised, as a serial sweep would raise it.  A non-finite amplitude is
    rejected before any cell runs.
    """
    if not all(math.isfinite(a) for a in amplitudes):
        raise ValueError(f"sweep amplitudes must be finite, got {list(amplitudes)}")
    cells = [(float(p), float(a)) for p in p_values for a in amplitudes]
    count = min(jobs, len(cells), lanes_that_fit(grid.num_nodes, grid.step_unit, config)) - 1
    pipe = lanes.IndexPipe() if count > 0 and lanes.forks() else None
    serial = iter(range(len(cells)))  # the cells in input order, while no lane forked

    def take() -> int | None:
        return next(serial, None) if pipe is None else pipe.take()

    def run_cells() -> tuple[list, tuple | None]:
        # the cells left, until none is: ([(index, row)], first failure or None)
        done = []
        while (index := take()) is not None:
            try:
                done.append((index, _sweep_one(grid, config, *cells[index], u0_profile,
                                               u1_profile)))
            except Exception as exc:
                # no cell starts after a raising one
                while take() is not None:
                    pass
                return done, (index, exc)
        return done, None

    def lane() -> tuple[list, tuple | None]:
        pipe.close(read=False)
        return run_cells()

    with lanes.Lanes() as forked:
        try:
            if pipe is not None:
                if forked.fork(count, lane):
                    pipe.put(range(len(cells)))
                    # the loops see the pipe's end once it is empty
                    pipe.close(read=False)
                else:
                    pipe.close()
                    pipe = None
            ran = [run_cells()] + forked.collect()
        finally:
            if pipe is not None:
                pipe.close()
    failures = [failure for _, failure in ran if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows: list[SweepRow | None] = [None] * len(cells)
    for done, _ in ran:
        for index, row in done:
            rows[index] = row
    return rows
