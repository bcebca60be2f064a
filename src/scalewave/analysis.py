"""Experiment layer: decay-rate fits, outcome classification, sweeps, blow-up cross-checks.

The classification label "global-looking" is deliberate: a finite-horizon
computation cannot certify global existence, so the label encodes the
epistemic limit of a desk-scale run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import CheckReport
from .grid import RadialGrid
from .model import ModelParams, discriminant, regime_check, shifted_dimension
from .odi import OdiProblem, life_span, select_nu
from .solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    RunConfig,
    RunReport,
    run,
)

GLOBAL_LOOKING = "global-looking"
UNDECIDED = "undecided"


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


@dataclass(frozen=True)
class ClassificationCriteria:
    energy_growth_bound: float = 10.0
    fit_window: tuple[float, float] | None = None  # default: [t_max/10, t_max]


def classify_run(report: RunReport, criteria: ClassificationCriteria = ClassificationCriteria()) -> str:
    """Classify a run: blow-up if the detector fired; global-looking if it
    completed with bounded weighted gradient norm and a decaying L2 fit;
    undecided otherwise."""
    if report.outcome == OUTCOME_BLOWUP:
        return OUTCOME_BLOWUP
    if report.outcome != OUTCOME_COMPLETED:
        return UNDECIDED
    t, l2 = report.series("l2")
    if float(np.max(l2)) == 0.0:
        return GLOBAL_LOOKING
    _, wgrad = report.series("wgrad_l2")
    initial = float(wgrad[0])
    if initial == 0.0 or float(np.max(wgrad)) / initial > criteria.energy_growth_bound:
        return UNDECIDED
    window = criteria.fit_window
    if window is None:
        window = (report.config.t_max / 10.0, report.config.t_max)
    try:
        fit = fit_decay(t, l2, window)
    except ValueError:
        return UNDECIDED
    return GLOBAL_LOOKING if fit.exponent < 0.0 else UNDECIDED


@dataclass(frozen=True)
class SweepRow:
    """One (p, amplitude) cell of a sweep with its outcome and context."""

    params: ModelParams
    amplitude: float
    outcome: str
    blowup_time: float | None
    l2_exponent: float | None
    p_crit: float | None
    global_existence_applicable: bool
    blowup_range_applicable: bool


def _sweep_one(task) -> SweepRow:
    grid, base_params, p, amplitude, config, u0_profile, u1_profile = task
    params = replace(base_params, p=p)
    cfg = replace(config, params=params)
    u0 = (lambda r: amplitude * np.asarray(u0_profile(r), dtype=float))
    if u1_profile is None:
        u1 = (lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    else:
        u1 = (lambda r: amplitude * np.asarray(u1_profile(r), dtype=float))
    report = run(grid, u0, u1, cfg)
    outcome = classify_run(report)
    exponent = None
    if outcome == GLOBAL_LOOKING:
        try:
            t, l2 = report.series("l2")
            exponent = fit_decay(t, l2, (cfg.t_max / 10.0, cfg.t_max)).exponent
        except ValueError:
            exponent = None
    regime = regime_check(params)
    return SweepRow(
        params=params,
        amplitude=amplitude,
        outcome=outcome,
        blowup_time=report.blowup_time,
        l2_exponent=exponent,
        p_crit=regime.p_crit,
        global_existence_applicable=regime.global_existence_applicable,
        blowup_range_applicable=regime.blowup_range_applicable,
    )


def sweep(grid: RadialGrid, base_params: ModelParams, p_values, amplitudes,
          config: RunConfig, u0_profile, u1_profile=None, jobs: int = 1) -> list[SweepRow]:
    """One solver run per (p, amplitude) pair, in deterministic input order.

    With jobs > 1 the rows run in separate processes (profiles must then be
    picklable top-level callables); results are still collected in input
    order.
    """
    tasks = [
        (grid, base_params, float(p), float(a), config, u0_profile, u1_profile)
        for p in p_values
        for a in amplitudes
    ]
    if jobs <= 1:
        return [_sweep_one(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_one, tasks))


def odi_crosscheck(report: RunReport, params: ModelParams | None = None) -> CheckReport:
    """Cross-check a blow-up run against the comparison-inequality picture.

    Asserts the sign and monotonicity structure of the comparison-frame
    integral: F(0) > 0, discrete F'(0) > 0, and F positive and increasing
    from the onset of monotone growth to blow-up.  The damping coefficient
    of the inequality is 1 + sqrt(delta) and the source exponent is
    -(shifted dimension)*(p-1); the source coefficient is only estimated
    (minimal observed ratio along the trajectory) because the exact one
    hides a support-volume constant, so the resulting life-span bound is
    reported, not asserted.
    """
    params = params if params is not None else report.config.params
    check_id = "odi-crosscheck"
    if report.outcome != OUTCOME_BLOWUP:
        return CheckReport(check_id=check_id, n_cases=0, worst=math.nan, tolerance=0.0,
                           passed=False, notes=["not applicable: run did not blow up"],
                           skipped=True)
    t, f = report.series("F")
    if t.size < 5 or not np.all(np.isfinite(f)):
        return CheckReport(check_id=check_id, n_cases=0, worst=math.nan, tolerance=0.0,
                           passed=False, notes=["not applicable: comparison-frame series unusable"],
                           skipped=True)
    if f[0] <= 0.0:
        return CheckReport(check_id=check_id, n_cases=0, worst=math.nan, tolerance=0.0,
                           passed=False,
                           notes=["not applicable: initial integral not positive"],
                           skipped=True)

    df0 = (f[1] - f[0]) / (t[1] - t[0])
    increases = np.diff(f) > 0.0
    onset = 0
    for i in range(increases.size - 1, -1, -1):
        if not increases[i]:
            onset = i + 1
            break
    tail_ok = onset <= increases.size - 3
    positive_tail = bool(np.all(f[onset:] > 0.0)) if tail_ok else False

    notes = [f"initial integral F(0)={f[0]:.6g}", f"discrete F'(0)={df0:.6g}",
             f"monotone growth onset at t={t[onset]:.6g}"]

    sqrt_d = math.sqrt(discriminant(params))
    k0 = 1.0 + sqrt_d
    alpha = -shifted_dimension(params) * (params.p - 1.0)
    df = np.gradient(f, t)
    ddf = np.gradient(df, t)
    lhs_form = ddf + k0 / (1.0 + t) * df
    rhs_form = (1.0 + t) ** alpha * np.abs(f) ** params.p
    window = slice(max(onset, 1), t.size - 1)
    valid = rhs_form[window] > 0.0
    ratios = lhs_form[window][valid] / rhs_form[window][valid]
    n_nonpositive = int(np.sum(ratios <= 0.0))
    ratios = ratios[ratios > 0.0]
    if n_nonpositive:
        notes.append(
            f"inequality form nonpositive at {n_nonpositive} transient samples; "
            "the estimated coefficient below is not a certified lower bound"
        )
    if ratios.size:
        k1_est = float(np.min(ratios))
        notes.append(f"estimated source coefficient k1={k1_est:.6g}")
        try:
            problem = OdiProblem(k0=k0, k1=k1_est, alpha=alpha, p=params.p,
                                 f0=float(f[0]), df0=float(df0))
            bound = life_span(problem, select_nu(problem))
            notes.append(f"life-span bound {bound:.6g} vs numerical blow-up "
                         f"{report.blowup_time:.6g} "
                         f"(bound respected: {report.blowup_time <= bound})")
        except ValueError as exc:
            notes.append(f"life-span bound unavailable: {exc}")
    else:
        notes.append("life-span bound unavailable: no usable ratio samples")

    slack = float(np.min(np.diff(f[onset:]))) if tail_ok else -math.inf
    passed = bool(df0 > 0.0 and tail_ok and positive_tail and slack > 0.0)
    return CheckReport(
        check_id=check_id,
        n_cases=int(t.size),
        worst=-slack,
        tolerance=0.0,
        passed=passed,
        notes=notes,
    )
