"""Numerical verification of standalone identities and inequalities.

Checks run on manufactured radial test functions with closed-form
derivatives, so each residual isolates the algebra under test from
discretization error.  Inequalities are integrated by radial quadrature and
asserted with a 1% margin: discretization can flip a tight inequality, and
the continuum statements are exact only in the limit.

Two protocols deserve a note.

* The energy-rate identity check evaluates every term of the pointwise
  identity with analytic space and time derivatives of a separable
  manufactured field, never with solver output.  Points on the axis r = 0
  are skipped: two terms are individually divided by the time derivative of
  the weight exponent, which vanishes there (their combination has a
  removable limit that is not evaluated).

* The weighted Gagliardo-Nirenberg-type bound carries an unknown constant
  that is independent of time.  It is tested by a ratio-supremum protocol
  over a dilation-covariant family: at evaluation time t every member is
  rescaled by the factor (1+t).  Under the exact scaling of the weighted
  norms the true supremum is time-invariant, so a drift of the observed
  supremum across the time list would expose a wrong time power in the
  inequality.  No constant is ever invented; only finiteness and
  time-stability of the supremum are asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .checks import CheckReport
from .errors import WeightOverflowError
from .functionals import weighted_quadrature
from .grid import RadialGrid, integrate
from .model import (
    ModelParams,
    coefficients,
    mass_coefficient_dt,
    weight_exponent,
    weight_exponent_dr,
    weight_exponent_dt,
    weight_exponent_grad_sq,
    weight_exponent_laplacian,
)

INEQUALITY_MARGIN = 1.01


@dataclass(frozen=True)
class RadialProfile:
    """Even, smooth radial test function with closed-form derivatives.

    value(r) = amplitude * r^(2*half_degree) * (g(r - center) + g(r + center)),
    g(s) = exp(-(s/width)^2).

    The mirrored Gaussian pair keeps the profile an even smooth function of
    r and hence a smooth radial function on R^n, even with a nonzero center
    offset.
    """

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    half_degree: int = 0

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.center < 0.0:
            raise ValueError(f"center offset must be >= 0, got {self.center}")
        if self.half_degree < 0:
            raise ValueError(f"half_degree must be >= 0, got {self.half_degree}")

    def _g(self, s):
        return np.exp(-((s / self.width) ** 2))

    def _g1(self, s):
        return -2.0 * s / self.width**2 * self._g(s)

    def _g2(self, s):
        return (-2.0 / self.width**2 + 4.0 * s**2 / self.width**4) * self._g(s)

    def __call__(self, r):
        return self.value(r)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        return self.amplitude * r ** (2 * m) * pair

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        pair1 = self._g1(r - self.center) + self._g1(r + self.center)
        out = r ** (2 * m) * pair1
        if m > 0:
            out = out + 2 * m * r ** (2 * m - 1) * pair
        return self.amplitude * out

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        pair1 = self._g1(r - self.center) + self._g1(r + self.center)
        pair2 = self._g2(r - self.center) + self._g2(r + self.center)
        out = r ** (2 * m) * pair2
        if m > 0:
            out = out + 4 * m * r ** (2 * m - 1) * pair1
            out = out + 2 * m * (2 * m - 1) * r ** (2 * m - 2) * pair
        return self.amplitude * out

    def laplacian(self, r, n: int):
        """f'' + (n-1)/r f', with the even-limit value n*f''(0) on the axis."""
        r = np.asarray(r, dtype=float)
        d1 = self.derivative(r)
        d2 = self.second_derivative(r)
        safe_r = np.where(r > 0.0, r, 1.0)
        out = np.where(r > 0.0, d2 + (n - 1) * d1 / safe_r, n * d2)
        return out if out.ndim else float(out)

    def support_radius(self, tol: float = 1e-14) -> float:
        """Conservative radius beyond which |value| stays below tol."""
        radius = self.center + 6.0 * self.width
        envelope = lambda rr: 2.0 * abs(self.amplitude) * rr ** (2 * self.half_degree) * math.exp(
            -(((rr - self.center) / self.width) ** 2)
        )
        while envelope(radius) > tol:
            radius += self.width
        return radius

    def dilate(self, factor: float) -> "RadialProfile":
        """The rescaled profile r -> value(r/factor), exactly in the same family."""
        if not factor > 0.0:
            raise ValueError(f"dilation factor must be positive, got {factor}")
        return replace(
            self,
            amplitude=self.amplitude * factor ** (-2 * self.half_degree),
            width=self.width * factor,
            center=self.center * factor,
        )


def standard_family(seed: int = 0, n_bases: int = 10,
                    degrees: Sequence[int] = (0, 1, 2, 3, 4)) -> list[RadialProfile]:
    """Seeded family of Gaussian-bump profiles crossed with polynomial factors.

    Parameters are drawn so every member is effectively supported within
    r <= 8 (tail below 1e-14).
    """
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n_bases):
        width = rng.uniform(0.35, 0.8)
        center = rng.uniform(0.0, 1.2)
        amplitude = rng.uniform(0.5, 2.0)
        for m in degrees:
            members.append(RadialProfile(amplitude=amplitude, width=width,
                                         center=center, half_degree=int(m)))
    return members


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def _rel_residual(residual: float, scale: float) -> float:
    if scale <= 0.0:
        return 0.0 if residual == 0.0 else math.inf
    return abs(residual) / scale


def check_psi_identities(params: ModelParams, times, radii,
                         tolerance: float = 1e-12) -> CheckReport:
    """Closed-form identities of the weight exponent at sampled (t, r) points.

    Checked: the gradient/damping cancellation |grad W|^2 + b(t) W_t = 0,
    the Laplacian value n*mu1/(1+t)^2 against an independent radial-calculus
    evaluation, and the relation W_t = -2 W/(1+t).
    """
    times = np.asarray(times, dtype=float)
    radii = np.asarray(radii, dtype=float)
    r_sq = radii**2
    b, _ = coefficients(params, times)

    grad_sq = weight_exponent_grad_sq(params, times, r_sq)
    w_t = weight_exponent_dt(params, times, r_sq)
    res_cancel = grad_sq + b * w_t
    scale_cancel = np.maximum(np.abs(grad_sq), np.abs(b * w_t))

    # independent route: radial calculus on W_r = mu1*r/(1+t)^2
    w_r = weight_exponent_dr(params, times, radii)
    w_rr = weight_exponent_dr(params, times, np.ones_like(radii))
    safe_r = np.where(radii > 0.0, radii, 1.0)
    lap_radial = np.where(radii > 0.0, w_rr + (params.n - 1) * w_r / safe_r, params.n * w_rr)
    lap_model = weight_exponent_laplacian(params, times) * np.ones_like(radii)
    res_lap = lap_radial - lap_model
    scale_lap = np.abs(lap_model)

    w_val = weight_exponent(params, times, r_sq)
    res_dt = w_t + 2.0 * w_val / (1.0 + times)
    scale_dt = np.maximum(np.abs(w_t), np.abs(2.0 * w_val / (1.0 + times)))

    worst = 0.0
    for res, scale in ((res_cancel, scale_cancel), (res_lap, scale_lap), (res_dt, scale_dt)):
        rel = np.divide(np.abs(res), scale, out=np.where(res == 0.0, 0.0, np.inf),
                        where=scale > 0.0)
        worst = max(worst, float(np.max(rel)))
    return CheckReport(
        check_id="weight-exponent-identities",
        n_cases=3 * times.size,
        worst=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def check_dissipativity_signs(params: ModelParams, times, radii) -> CheckReport:
    """Sign building blocks of the dissipation inequality: W_t <= 0 and d(m^2)/dt <= 0."""
    times = np.asarray(times, dtype=float)
    radii = np.asarray(radii, dtype=float)
    w_t = weight_exponent_dt(params, times, radii**2)
    m_dt = mass_coefficient_dt(params, times)
    worst = float(max(np.max(w_t, initial=-np.inf), np.max(m_dt, initial=-np.inf)))
    return CheckReport(
        check_id="dissipativity-signs",
        n_cases=2 * times.size,
        worst=worst,
        tolerance=0.0,
        passed=worst <= 0.0,
    )


@dataclass(frozen=True)
class ManufacturedSolution:
    """Separable space-time field time_value(t) * profile(r) with closed-form partials."""

    time_value: Callable[[float], float]
    time_d1: Callable[[float], float]
    time_d2: Callable[[float], float]
    profile: RadialProfile

    def u(self, t, r):
        return self.time_value(t) * self.profile.value(r)

    def u_t(self, t, r):
        return self.time_d1(t) * self.profile.value(r)

    def u_tt(self, t, r):
        return self.time_d2(t) * self.profile.value(r)

    def u_r(self, t, r):
        return self.time_value(t) * self.profile.derivative(r)

    def u_rt(self, t, r):
        return self.time_d1(t) * self.profile.derivative(r)

    def u_rr(self, t, r):
        return self.time_value(t) * self.profile.second_derivative(r)

    def laplacian(self, t, r, n: int):
        return self.time_value(t) * self.profile.laplacian(r, n)


def default_manufactured_solution() -> ManufacturedSolution:
    """sin(t) times a unit Gaussian; generic enough to excite every identity term."""
    return ManufacturedSolution(
        time_value=math.sin, time_d1=math.cos, time_d2=lambda t: -math.sin(t),
        profile=RadialProfile(amplitude=1.0, width=1.0, center=0.0, half_degree=0),
    )


def energy_identity_terms(ms: ManufacturedSolution, params: ModelParams,
                          t: float, r: float) -> tuple[float, dict]:
    """Left-hand side and every right-hand-side term of the energy-rate identity.

    All derivatives are analytic; r must be positive and mu1 nonzero (two
    terms divide by the time derivative of the weight exponent, which
    vanishes on the axis and for vanishing damping).
    """
    if not r > 0.0:
        raise ValueError("identity terms need r > 0 (removable singularity on the axis)")
    if params.mu1 == 0.0:
        raise ValueError("identity terms need mu1 > 0 (weight derivative vanishes identically)")
    n = params.n
    b, m_sq = coefficients(params, t)
    dm_sq = mass_coefficient_dt(params, t)
    r_sq = r * r
    w = weight_exponent(params, t, r_sq)
    w_t = weight_exponent_dt(params, t, r_sq)
    w_r = weight_exponent_dr(params, t, r)
    e2w = math.exp(2.0 * w)

    u = ms.u(t, r)
    ut = ms.u_t(t, r)
    utt = ms.u_tt(t, r)
    ur = ms.u_r(t, r)
    urt = ms.u_rt(t, r)
    urr = ms.u_rr(t, r)
    lap = ms.laplacian(t, r, n)

    lhs = e2w * ut * (utt - lap + b * ut + m_sq * u)

    density = ut**2 + ur**2 + m_sq * u**2
    t1 = e2w * (w_t * density + ut * utt + ur * urt + 0.5 * dm_sq * u**2 + m_sq * u * ut)
    t2 = e2w * (2.0 * w_r * ut * ur + urt * ur + ut * urr + (n - 1) / r * ut * ur)
    t3 = e2w / w_t * ut**2 * (w_r**2 + b * w_t)
    t4 = e2w / w_t * (ut * w_r - w_t * ur) ** 2
    t5 = w_t * e2w * (ut**2 + m_sq * u**2)
    t6 = 0.5 * e2w * u**2 * dm_sq

    rhs = t1 - t2 + t3 - t4 - t5 - t6
    return lhs, {"rhs": rhs, "t1": t1, "t2": t2, "t3": t3, "t4": t4, "t5": t5, "t6": t6}


def check_energy_identity(ms: ManufacturedSolution, params: ModelParams,
                          points: Iterable[tuple[float, float]],
                          tolerance: float = 1e-10) -> CheckReport:
    """Pointwise relative residual of the energy-rate identity at (t, r) samples.

    Points with r == 0 are skipped with a note.  The cancellation term
    (the one proportional to |grad W|^2 + b W_t) must also vanish on its
    own; its relative size is folded into the worst residual.
    """
    worst = 0.0
    n_cases = 0
    notes: list[str] = []
    for t, r in points:
        if r == 0.0:
            notes.append(f"skipped axis point t={t} (removable singularity)")
            continue
        lhs, terms = energy_identity_terms(ms, params, t, r)
        scale = max(abs(lhs), *(abs(terms[k]) for k in ("t1", "t2", "t4", "t5", "t6")))
        worst = max(worst, _rel_residual(lhs - terms["rhs"], scale))
        worst = max(worst, _rel_residual(terms["t3"], scale))
        n_cases += 1
    return CheckReport(
        check_id="energy-rate-identity",
        n_cases=n_cases,
        worst=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

def check_weighted_gradient_bound(family: Sequence[RadialProfile], params: ModelParams,
                                  sigmas: Sequence[float], times: Sequence[float],
                                  grid: RadialGrid,
                                  margin: float = INEQUALITY_MARGIN) -> CheckReport:
    """Weighted gradient domination:

        sigma*mu1*n*(1+t)^-2 ||e^(sW) v||^2 + ||grad(e^(sW) v)||^2 <= ||e^(sW) grad v||^2.

    Each case is evaluated by quadrature with closed-form v and grad v; the
    pass condition allows the quadrature margin on the ratio.  Each member
    is evaluated on the grid once; the values serve every (sigma, t).
    """
    worst = -math.inf
    n_cases = 0
    notes: list[str] = []
    profiles = [(member.value(grid.r), member.derivative(grid.r)) for member in family]
    for sigma in sigmas:
        for t in times:
            expo = 2.0 * sigma * weight_exponent(params, t, grid.r**2)
            w_r = weight_exponent_dr(params, t, grid.r)
            for k, (v, v_r) in enumerate(profiles):
                try:
                    lhs_norm_sq = weighted_quadrature(grid, expo, v * v)
                    grad_weighted = weighted_quadrature(grid, expo, (sigma * w_r * v + v_r) ** 2)
                    rhs = weighted_quadrature(grid, expo, v_r * v_r)
                except WeightOverflowError:
                    notes.append(f"skipped member {k} at sigma={sigma}, t={t}: weight overflow")
                    continue
                lhs = sigma * params.mu1 * params.n / (1.0 + t) ** 2 * lhs_norm_sq + grad_weighted
                if rhs <= 0.0:
                    continue
                worst = max(worst, lhs / rhs)
                n_cases += 1
    return CheckReport(
        check_id="weighted-gradient-domination",
        n_cases=n_cases,
        worst=worst,
        tolerance=margin,
        passed=worst <= margin,
        notes=notes,
    )


def check_embeddings(family: Sequence[RadialProfile], params: ModelParams,
                     sigma: float, t: float, grid: RadialGrid,
                     margin: float = INEQUALITY_MARGIN) -> CheckReport:
    """Weighted-space embeddings with the explicit Gaussian constant.

    L1 control: ||f||_L1 <= (pi*(1+t)^2/(sigma*mu1))^(n/4) * ||e^(sW) f||_L2,
    and the trivial L2 control ||f||_L2 <= ||e^(sW) f||_L2 (the weight is
    >= 1).  The L1 constant is undefined for mu1 = 0; the check is then
    skipped.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    if params.mu1 == 0.0:
        return CheckReport(
            check_id="weighted-embeddings",
            n_cases=0, worst=math.nan, tolerance=margin, passed=True,
            notes=["skipped: L1 embedding constant undefined for mu1 = 0"],
            skipped=True,
        )
    const = (math.pi * (1.0 + t) ** 2 / (sigma * params.mu1)) ** (params.n / 4.0)
    expo = 2.0 * sigma * weight_exponent(params, t, grid.r**2)
    worst = -math.inf
    n_cases = 0
    notes: list[str] = []
    for k, member in enumerate(family):
        f = member.value(grid.r)
        try:
            wl2 = math.sqrt(weighted_quadrature(grid, expo, f * f))
        except WeightOverflowError:
            notes.append(f"skipped member {k}: weight overflow")
            continue
        if wl2 == 0.0:
            continue
        l1 = integrate(grid, np.abs(f))
        l2 = math.sqrt(max(integrate(grid, f * f), 0.0))
        worst = max(worst, l1 / (const * wl2), l2 / wl2)
        n_cases += 2
    return CheckReport(
        check_id="weighted-embeddings",
        n_cases=n_cases,
        worst=worst,
        tolerance=margin,
        passed=worst <= margin,
        notes=notes,
    )


def gn_ratio_check(family: Sequence[RadialProfile], params: ModelParams,
                   sigma: float, q: float, times: Sequence[float], grid: RadialGrid,
                   spread_tolerance: float = 0.05) -> CheckReport:
    """Ratio-supremum protocol for the weighted interpolation inequality.

    For each time t the family is dilated by (1+t) and the achieved ratio

        ||e^(sigma W) v||_Lq / ((1+t)^(1-theta) ||grad v||^(1-sigma) ||e^W grad v||^sigma),

    theta = n*(1/2 - 1/q), is maximized over the members.  Asserted: every
    ratio is finite, and the supremum is stable (relative spread below the
    tolerance) across the time list, as it must be when the inequality's
    time power is exact.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    theta = params.n * (0.5 - 1.0 / q)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"q={q} gives interpolation exponent {theta} outside [0, 1]")
    sups = []
    n_cases = 0
    for t in times:
        scale = 1.0 + t
        expo_q = q * sigma * weight_exponent(params, t, grid.r**2)
        expo_full = 2.0 * weight_exponent(params, t, grid.r**2)
        best = 0.0
        for member in family:
            dilated = member.dilate(scale)
            v = dilated.value(grid.r)
            v_r = dilated.derivative(grid.r)
            numerator = weighted_quadrature(grid, expo_q, np.abs(v) ** q) ** (1.0 / q)
            grad_plain = math.sqrt(max(integrate(grid, v_r * v_r), 0.0))
            grad_weighted = math.sqrt(weighted_quadrature(grid, expo_full, v_r * v_r))
            if grad_plain == 0.0 or grad_weighted == 0.0:
                continue
            denom = scale ** (1.0 - theta) * grad_plain ** (1.0 - sigma) * grad_weighted**sigma
            ratio = numerator / denom
            if not math.isfinite(ratio):
                return CheckReport(
                    check_id="gn-ratio-supremum",
                    n_cases=n_cases, worst=math.inf, tolerance=spread_tolerance,
                    passed=False, notes=[f"non-finite ratio at t={t}"],
                )
            best = max(best, ratio)
            n_cases += 1
        sups.append(best)
    spread = max(sups) / min(sups) - 1.0
    notes = [f"supremum at t={t}: {s:.6g}" for t, s in zip(times, sups)]
    return CheckReport(
        check_id="gn-ratio-supremum",
        n_cases=n_cases,
        worst=spread,
        tolerance=spread_tolerance,
        passed=spread <= spread_tolerance,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Nonlinear Gronwall (comparison) check
# ---------------------------------------------------------------------------

def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


def bihari_check(times, y_values, k_values, g: Callable, bound: float,
                 antiderivative: Callable, tolerance: float = 1e-8) -> CheckReport:
    """Nonlinear Gronwall-type comparison on sampled trajectories.

    Hypothesis: y(t) <= bound + integral_0^t k(s) g(y(s)) ds.  Conclusion:
    A(y(t)) <= A(bound) + integral_0^t k(s) ds, where A is the
    antiderivative of 1/g.  The hypothesis is verified numerically first;
    if it fails the report notes "hypothesis violated" instead of testing
    the conclusion.  ``g`` must be non-decreasing (checked on the sampled
    range).
    """
    times = np.asarray(times, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing with at least 2 samples")
    if y_values.shape != times.shape or k_values.shape != times.shape:
        raise ValueError("y and k must be sampled on the same time base")
    if np.any(k_values < 0.0):
        raise ValueError("k must be nonnegative")

    probe = np.linspace(min(y_values.min(), bound), y_values.max(), 257)
    g_probe = np.asarray([g(v) for v in probe], dtype=float)
    if np.any(np.diff(g_probe) < -1e-12 * max(1.0, np.max(np.abs(g_probe)))):
        raise ValueError("g must be non-decreasing on the sampled range")

    g_of_y = np.asarray([g(v) for v in y_values], dtype=float)
    hypothesis_rhs = bound + _cumtrapz(times, k_values * g_of_y)
    hyp_excess = float(np.max(y_values - hypothesis_rhs))
    if hyp_excess > tolerance:
        return CheckReport(
            check_id="nonlinear-gronwall",
            n_cases=times.size,
            worst=hyp_excess,
            tolerance=tolerance,
            passed=False,
            notes=["hypothesis violated"],
        )

    lhs = np.asarray([antiderivative(v) for v in y_values], dtype=float)
    rhs = antiderivative(bound) + _cumtrapz(times, k_values)
    worst = float(np.max(lhs - rhs))
    return CheckReport(
        check_id="nonlinear-gronwall",
        n_cases=times.size,
        worst=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
