"""Numerical verification of standalone identities and inequalities.

Checks run on manufactured radial test functions with closed-form
derivatives, so each residual isolates the algebra under test from
discretization error; a test function yields (f, f', f'') from one jet.
Inequalities are integrated by radial quadrature and asserted with a 1%
margin: discretization can flip a tight inequality, and the continuum
statements are exact only in the limit.  Each check reports its worst
residual or ratio with a fixed module tolerance (``bihari_check`` alone
takes one, as it runs both with slack and exactly); the verdict follows
from the two (``CheckReport.passed``).  An inequality check leaves out, with
a note, a case whose weighted integrals are not all finite; a check left
with nothing to compare is skipped with a note, never passed over 0 cases.

Each suite of ``scalewave verify`` is one entry of ``SUITES``: its config
defaults, which are the schema the command line parses against, and a
runner that takes the merged config and the seed and returns the suite's
reports.  A runner raises ValueError for settings it cannot run; the
inequality suite, which integrates on two grids its test family fixes
(``INEQUALITY_GRID`` and ``INEQUALITY_WIDE_GRID``), does so before it
allocates either.

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
from .functionals import _gaussian, _power_source, weighted_quadrature
from .grid import RadialGrid, integrate, make_radial_grid
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

PSI_TOLERANCE = 1e-12
ENERGY_TOLERANCE = 1e-10
INEQUALITY_MARGIN = 1.01
GN_SPREAD_TOLERANCE = 0.05
FAMILY_BASES = 10
FAMILY_DEGREES = (0, 1, 2, 3, 4)
#: The range ``standard_family`` draws its members' widths from.
FAMILY_WIDTHS = (0.35, 0.8)
# The inequality suite's grids, as (r_max, dr).  The family fixes them, so they are
# no settings: every member lies within r <= 8 (``standard_family``) and is at least
# FAMILY_WIDTHS[0] = 0.35 wide, and the GN check dilates it by up to 1 + 9 = 10, to
# within r <= 80.  The first grid spans five support radii, with 17.5 nodes across the
# narrowest width; the wide grid, at twice the spacing, spans the most dilated support
# twice.  A grid that cuts members short reads as a false inequality (r_max = 2 and 5
# did), and a coarser one leaves the narrowest members between its nodes.
INEQUALITY_GRID = (40.0, 0.02)
INEQUALITY_WIDE_GRID = (160.0, 0.04)
#: The largest n the inequality suite takes: from n = 141 on, r^(n-1) at the wide
#: grid's last node overflows a float, and so do its quadrature weights.
INEQUALITY_MAX_N = 140


def _radial_laplacian(r, f_r, f_rr, n: int):
    """f'' + (n-1)/r f' of a radial function, with the even-limit value n*f''(0) on the axis."""
    r = np.asarray(r, dtype=float)
    safe_r = np.where(r > 0.0, r, 1.0)
    out = np.where(r > 0.0, f_rr + (n - 1) * f_r / safe_r, n * f_rr)
    return out if out.ndim else float(out)


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
        return _gaussian(s, self.width)

    def __call__(self, r):
        return self.value(r)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        return self.amplitude * r ** (2 * m) * pair

    def jet(self, r):
        """(f, f', f'') at r, from one evaluation of the Gaussian pair."""
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        w2, w4 = self.width**2, self.width**4
        lo, hi = r - self.center, r + self.center
        g_lo, g_hi = self._g(lo), self._g(hi)
        pair = g_lo + g_hi
        pair1 = -2.0 * lo / w2 * g_lo - 2.0 * hi / w2 * g_hi
        pair2 = (-2.0 / w2 + 4.0 * lo**2 / w4) * g_lo + (-2.0 / w2 + 4.0 * hi**2 / w4) * g_hi
        power = r ** (2 * m)
        d1 = power * pair1
        d2 = power * pair2
        if m > 0:
            odd_power = r ** (2 * m - 1)
            d1 = d1 + 2 * m * odd_power * pair
            d2 = d2 + 4 * m * odd_power * pair1
            d2 = d2 + 2 * m * (2 * m - 1) * r ** (2 * m - 2) * pair
        return self.amplitude * power * pair, self.amplitude * d1, self.amplitude * d2

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


def standard_family(seed: int = 0) -> list[RadialProfile]:
    """Seeded family of Gaussian-bump profiles crossed with polynomial factors.

    FAMILY_BASES bumps, each with every half degree in FAMILY_DEGREES.
    Parameters are drawn so every member is effectively supported within
    r <= 8 (tail below 1e-14).
    """
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(FAMILY_BASES):
        width = rng.uniform(*FAMILY_WIDTHS)
        center = rng.uniform(0.0, 1.2)
        amplitude = rng.uniform(0.5, 2.0)
        for m in FAMILY_DEGREES:
            members.append(RadialProfile(amplitude=amplitude, width=width,
                                         center=center, half_degree=m))
    return members


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def _worst_relative(residual, scale) -> float:
    """Largest |residual|/scale, at least 0.

    Where the scale is zero a zero residual counts 0 and any other inf.
    """
    residual = np.abs(residual)
    rel = np.divide(residual, scale, out=np.where(residual == 0.0, 0.0, np.inf),
                    where=scale > 0.0)
    return float(np.max(rel, initial=0.0))


def check_psi_identities(params: ModelParams, times, radii) -> CheckReport:
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
    lap_radial = _radial_laplacian(radii, w_r, w_rr, params.n)
    lap_model = weight_exponent_laplacian(params, times) * np.ones_like(radii)
    res_lap = lap_radial - lap_model
    scale_lap = np.abs(lap_model)

    w_val = weight_exponent(params, times, r_sq)
    res_dt = w_t + 2.0 * w_val / (1.0 + times)
    scale_dt = np.maximum(np.abs(w_t), np.abs(2.0 * w_val / (1.0 + times)))

    worst = _worst_relative(np.array((res_cancel, res_lap, res_dt)),
                            np.array((scale_cancel, scale_lap, scale_dt)))
    return CheckReport("weight-exponent-identities", 3 * times.size, worst, PSI_TOLERANCE)


def check_dissipativity_signs(params: ModelParams, times, radii) -> CheckReport:
    """Sign building blocks of the dissipation inequality: W_t <= 0 and d(m^2)/dt <= 0."""
    times = np.asarray(times, dtype=float)
    radii = np.asarray(radii, dtype=float)
    w_t = weight_exponent_dt(params, times, radii**2)
    m_dt = mass_coefficient_dt(params, times)
    worst = float(max(np.max(w_t, initial=-np.inf), np.max(m_dt, initial=-np.inf)))
    return CheckReport("dissipativity-signs", 2 * times.size, worst, 0.0)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Separable space-time field time_value(t) * profile(r) with closed-form partials."""

    time_value: Callable[[float], float]
    time_d1: Callable[[float], float]
    time_d2: Callable[[float], float]
    profile: RadialProfile

    def partials(self, t, r, n: int) -> tuple:
        """(u, u_t, u_tt, u_r, u_rt, u_rr, Laplacian of u in n dimensions) at (t, r)."""
        a, a_t, a_tt = self.time_value(t), self.time_d1(t), self.time_d2(t)
        f, f_r, f_rr = self.profile.jet(r)
        return (a * f, a_t * f, a_tt * f, a * f_r, a_t * f_r, a * f_rr,
                a * _radial_laplacian(r, f_r, f_rr, n))


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
    if w_t == 0.0:
        raise ValueError(f"identity terms need W_t != 0, which underflows at t={t:.6g}, "
                         f"r={r:.6g} for mu1 = {params.mu1:g}")
    w_r = weight_exponent_dr(params, t, r)
    e2w = math.exp(2.0 * w)

    u, ut, utt, ur, urt, urr, lap = ms.partials(t, r, n)

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
                          points: Iterable[tuple[float, float]]) -> CheckReport:
    """Pointwise relative residual of the energy-rate identity at (t, r) samples.

    Points with r == 0 are skipped with a note.  The cancellation term
    (the one proportional to |grad W|^2 + b W_t) must also vanish on its
    own; its relative size is folded into the worst residual.  A term that
    leaves the float range, for settings such as a subnormal mu1 or a huge
    mu2sq, raises ValueError.  For mu1 = 0 the weight derivative W_t
    vanishes identically, the identity is undefined, and the check is
    skipped with a note.
    """
    if params.mu1 == 0.0:
        return CheckReport("energy-rate-identity", 0, math.nan, ENERGY_TOLERANCE,
                           ["skipped: W_t vanishes identically for mu1 = 0"], skipped=True)
    residuals: list[float] = []
    scales: list[float] = []
    notes: list[str] = []
    # a term past the float range is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t, r in points:
            if r == 0.0:
                notes.append(f"skipped axis point t={t} (removable singularity)")
                continue
            lhs, terms = energy_identity_terms(ms, params, t, r)
            if not _finite(lhs, *terms.values()):
                raise ValueError(f"energy identity terms leave the float range at t={t:.6g}, "
                                 f"r={r:.6g} for mu1 = {params.mu1:g}, mu2sq = {params.mu2sq:g}")
            scale = max(abs(lhs), *(abs(terms[k]) for k in ("t1", "t2", "t4", "t5", "t6")))
            residuals += [lhs - terms["rhs"], terms["t3"]]
            scales += [scale, scale]
    worst = _worst_relative(np.array(residuals), np.array(scales))
    return CheckReport("energy-rate-identity", len(scales) // 2, worst, ENERGY_TOLERANCE, notes)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

def _finite(*integrals: float) -> bool:
    """Whether a case's weighted integrals are all finite, so that it can be compared."""
    return all(map(math.isfinite, integrals))


def _report(check_id: str, n_cases: int, worst: float, notes: list) -> CheckReport:
    """An inequality's report, skipped with a note when no case was left to compare."""
    if n_cases:
        return CheckReport(check_id, n_cases, worst, INEQUALITY_MARGIN, notes)
    return CheckReport(check_id, 0, math.nan, INEQUALITY_MARGIN,
                       notes + ["skipped: no case left to compare"], skipped=True)


def check_weighted_gradient_bound(family: Sequence[RadialProfile], params: ModelParams,
                                  sigmas: Sequence[float], times: Sequence[float],
                                  grid: RadialGrid) -> CheckReport:
    """Weighted gradient domination:

        sigma*mu1*n*(1+t)^-2 ||e^(sW) v||^2 + ||grad(e^(sW) v)||^2 <= ||e^(sW) grad v||^2.

    Each case is evaluated by quadrature with closed-form v and grad v; the
    pass condition allows the quadrature margin on the ratio.  The weights of
    every (sigma, t) are formed once, and one member's jet at a time, with
    v^2 and v_r^2, is evaluated on the grid and serves them all; the skip
    notes keep the (sigma, t, member) order.
    """
    worst = -math.inf
    n_cases = 0
    w_rs = [weight_exponent_dr(params, t, grid.r) for t in times]
    cases = [(sigma, t, 2.0 * sigma * weight_exponent(params, t, grid.r**2), w_r)
             for sigma in sigmas for t, w_r in zip(times, w_rs)]
    skipped: list[list[str]] = [[] for _ in cases]
    # a density that overflows has a non-finite integral, and its case is noted
    with np.errstate(over="ignore"):
        for k, member in enumerate(family):
            v, v_r, _ = member.jet(grid.r)
            v_sq, v_r_sq = v * v, v_r * v_r
            for (sigma, t, expo, w_r), notes in zip(cases, skipped):
                lhs_norm_sq = weighted_quadrature(grid, expo, v_sq)
                grad_weighted = weighted_quadrature(grid, expo, (sigma * w_r * v + v_r) ** 2)
                rhs = weighted_quadrature(grid, expo, v_r_sq)
                if not _finite(lhs_norm_sq, grad_weighted, rhs):
                    notes.append(f"skipped member {k} at sigma={sigma}, t={t}: weight overflow")
                    continue
                lhs = sigma * params.mu1 * params.n / (1.0 + t) ** 2 * lhs_norm_sq + grad_weighted
                if rhs <= 0.0:
                    continue
                worst = max(worst, lhs / rhs)
                n_cases += 1
    return _report("weighted-gradient-domination", n_cases, worst,
                   [note for notes in skipped for note in notes])


def check_embeddings(family: Sequence[RadialProfile], params: ModelParams,
                     sigma: float, times: Sequence[float], grid: RadialGrid) -> list[CheckReport]:
    """Weighted-space embeddings with the explicit Gaussian constant, one report per time.

    L1 control: ||f||_L1 <= (pi*(1+t)^2/(sigma*mu1))^(n/4) * ||e^(sW) f||_L2,
    and the trivial L2 control ||f||_L2 <= ||e^(sW) f||_L2 (the weight is
    >= 1).  The L1 constant is undefined for mu1 = 0, or where sigma*mu1
    underflows to 0; each time's check is then skipped.  The weights of
    every t are formed once, and one member's values, square and plain
    integrals at a time serve them all.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    if sigma * params.mu1 == 0.0:
        cause = ("mu1 = 0" if params.mu1 == 0.0
                 else f"sigma*mu1 = {sigma:g}*{params.mu1:g}, which underflows to 0")
        return [CheckReport("weighted-embeddings", 0, math.nan, INEQUALITY_MARGIN,
                            [f"skipped: L1 embedding constant undefined for {cause}"], skipped=True)
                for _ in times]
    r_sq = grid.r**2
    cases = [((math.pi * (1.0 + t) ** 2 / (sigma * params.mu1)) ** (params.n / 4.0),
              2.0 * sigma * weight_exponent(params, t, r_sq)) for t in times]
    worst = [-math.inf] * len(cases)
    n_cases = [0] * len(cases)
    notes: list[list[str]] = [[] for _ in cases]
    for k, member in enumerate(family):
        f = member.value(grid.r)
        f_sq = f * f
        l1 = integrate(grid, np.abs(f))
        l2 = math.sqrt(max(integrate(grid, f_sq), 0.0))
        for i, (const, expo) in enumerate(cases):
            wl2 = math.sqrt(weighted_quadrature(grid, expo, f_sq))
            if not _finite(wl2):
                notes[i].append(f"skipped member {k}: weight overflow")
                continue
            if wl2 == 0.0:
                continue
            worst[i] = max(worst[i], l1 / (const * wl2), l2 / wl2)
            n_cases[i] += 2
    return [_report("weighted-embeddings", count, value, time_notes)
            for count, value, time_notes in zip(n_cases, worst, notes)]


def _interpolation_exponent(n: int, sigma: float, q: float) -> float:
    """theta = n*(1/2 - 1/q) of the interpolation inequality, for sigma in (0, 1].

    Raises ValueError for a sigma outside (0, 1], a q that is not positive,
    or a theta outside [0, 1].
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    theta = n * (0.5 - 1.0 / q)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"q={q} gives interpolation exponent {theta} outside [0, 1]")
    return theta


def gn_ratio_check(family: Sequence[RadialProfile], params: ModelParams,
                   sigma: float, q: float, times: Sequence[float],
                   grid: RadialGrid) -> CheckReport:
    """Ratio-supremum protocol for the weighted interpolation inequality.

    For each time t the family is dilated by (1+t) and the achieved ratio

        ||e^(sigma W) v||_Lq / ((1+t)^(1-theta) ||grad v||^(1-sigma) ||e^W grad v||^sigma),

    theta = n*(1/2 - 1/q), is maximized over the members.  Asserted: every
    ratio is finite, and the supremum is stable (relative spread below
    GN_SPREAD_TOLERANCE) across the time list, as it must be when the
    inequality's time power is exact.  A member whose |v|^q or weighted
    integrals leave the float range is skipped with a note, and a time where
    no member gives a positive ratio leaves no supremum, and the check is
    then skipped.  ``sigma`` and ``q`` are refused as by
    ``_interpolation_exponent``.
    """
    theta = _interpolation_exponent(params.n, sigma, q)
    sups = []
    n_cases = 0
    notes: list[str] = []
    for t in times:
        scale = 1.0 + t
        expo_full = weight_exponent(params, t, grid.r**2)
        expo_q = q * sigma * expo_full
        expo_full *= 2.0
        best = 0.0
        for k, member in enumerate(family):
            v, v_r, _ = member.dilate(scale).jet(grid.r)
            v_r_sq = v_r * v_r
            # |v|^q past the float range is inf, and the member is then skipped
            with np.errstate(over="ignore"):
                powered = _power_source(np.abs(v), q)
            lq = weighted_quadrature(grid, expo_q, powered)
            grad_weighted = math.sqrt(weighted_quadrature(grid, expo_full, v_r_sq))
            if not _finite(lq, grad_weighted):
                cause = "|v|^q overflow" if np.isinf(powered).any() else "weight overflow"
                notes.append(f"skipped member {k} at t={t}: {cause}")
                continue
            numerator = lq ** (1.0 / q)
            grad_plain = math.sqrt(max(integrate(grid, v_r_sq), 0.0))
            if grad_plain == 0.0 or grad_weighted == 0.0:
                continue
            denom = scale ** (1.0 - theta) * grad_plain ** (1.0 - sigma) * grad_weighted**sigma
            ratio = numerator / denom
            if not math.isfinite(ratio):
                return CheckReport("gn-ratio-supremum", n_cases, math.inf, GN_SPREAD_TOLERANCE,
                                   notes + [f"non-finite ratio at t={t}"])
            best = max(best, ratio)
            n_cases += 1
        sups.append(best)
    notes += [f"supremum at t={t}: {s:.6g}" if s > 0.0 else f"skipped: no positive ratio at t={t}"
              for t, s in zip(times, sups)]
    bare = not min(sups) > 0.0  # some time has no supremum, so there is no spread
    spread = math.nan if bare else max(sups) / min(sups) - 1.0
    return CheckReport("gn-ratio-supremum", n_cases, spread, GN_SPREAD_TOLERANCE, notes,
                       skipped=bare)


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
        return CheckReport("nonlinear-gronwall", times.size, hyp_excess, tolerance,
                           ["hypothesis violated"])

    lhs = np.asarray([antiderivative(v) for v in y_values], dtype=float)
    rhs = antiderivative(bound) + _cumtrapz(times, k_values)
    return CheckReport("nonlinear-gronwall", times.size, float(np.max(lhs - rhs)), tolerance)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _verify_identities(cfg: dict, seed: int) -> list:
    rng = np.random.default_rng(seed)
    params = ModelParams(n=cfg["n"], mu1=cfg["mu1"], mu2sq=cfg["mu2sq"], p=2.0)  # p is unread
    times = rng.uniform(0.0, 5.0, size=1000)
    radii = rng.uniform(0.0, 3.0, size=1000)
    checks = [
        check_psi_identities(params, times, radii),
        check_dissipativity_signs(params, times, radii),
    ]
    ms = default_manufactured_solution()
    pts = list(zip(rng.uniform(0.0, 5.0, size=100), rng.uniform(0.1, 3.0, size=100)))
    checks.append(check_energy_identity(ms, params, pts))
    return checks


def _verify_inequalities(cfg: dict, seed: int) -> list:
    params = ModelParams(n=cfg["n"], mu1=cfg["mu1"], mu2sq=0.0, p=2.0)  # mu2sq and p are unread
    n, sigma, q = cfg["n"], cfg["sigma"], cfg["q"]
    if n > INEQUALITY_MAX_N:
        raise ValueError(f"n = {n} too large for verify inequalities: its wide grid's quadrature "
                         f"weights overflow a float past n = {INEQUALITY_MAX_N}")
    # the largest weight exponent the suite forms, on the wide grid at t = 0
    q_sigma, wide_r_max = q * sigma, INEQUALITY_WIDE_GRID[0]
    if not math.isfinite(max(2.0, q_sigma) * params.mu1 * wide_r_max**2 / 2.0):
        raise ValueError(f"weight exponent max(2, q·sigma)·mu1·{wide_r_max:g}²/2 of verify "
                         f"inequalities overflows at mu1 = {params.mu1}, q·sigma = {q_sigma:g}")
    # the GN check's refusals of sigma and q, before any array
    _interpolation_exponent(n, sigma, q)
    grid, wide = make_radial_grid(n, *INEQUALITY_GRID), make_radial_grid(n, *INEQUALITY_WIDE_GRID)
    family = standard_family(seed=seed)
    sigmas = (0.25, 0.5, 1.0)
    times = (0.0, 1.0, 4.0, 9.0)
    checks = [check_weighted_gradient_bound(family, params, sigmas, times, grid),
              *check_embeddings(family, params, sigma, times, grid)]
    checks.append(gn_ratio_check(family, params, sigma, q, times, wide))
    return checks


def _verify_bihari(cfg: dict, seed: int) -> list:
    del cfg, seed  # canonical instantiation needs no knobs
    sqrt2 = math.sqrt(2.0)
    g = lambda u: math.sqrt(2.0 * max(u, 0.0))
    antideriv = lambda u: sqrt2 * math.sqrt(max(u, 0.0))
    times = np.linspace(0.0, 5.0, 4001)
    bound = 1.0
    k_const = np.full_like(times, 0.3)
    y_eq = 0.5 * (sqrt2 * math.sqrt(bound) + 0.3 * times) ** 2
    checks = [bihari_check(times, y_eq, k_const, g, bound, antideriv)]
    k_zero = np.zeros_like(times)
    y_flat = np.full_like(times, bound)
    checks.append(bihari_check(times, y_flat, k_zero, g, bound, antideriv, tolerance=0.0))
    return checks


#: Each suite's config schema (its defaults) and runner, by name; a runner takes
#: the merged config and the seed and returns the suite's CheckReports.  A schema
#: holds only what the suite's checks read: no inequality check reads mu2sq, and
#: the inequality suite's grids are fixed (``INEQUALITY_GRID``).
SUITES = {
    "identities": ({"n": 1, "mu1": 1.0, "mu2sq": 0.0}, _verify_identities),
    "inequalities": ({"n": 1, "mu1": 1.0, "sigma": 0.5, "q": 4.0}, _verify_inequalities),
    "bihari": ({}, _verify_bihari),
}
