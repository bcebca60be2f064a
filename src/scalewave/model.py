"""Closed-form model quantities for the scale-invariant damped/massive wave equation.

The Cauchy problem under study is

    u_tt - Lap(u) + (mu1/(1+t)) u_t + (mu2sq/(1+t)^2) u = |u|^p

on R^n.  Everything in this module is a pure formula in the parameters:
the damping/mass discriminant delta = (mu1-1)^2 - 4*mu2sq, the Fujita-type
critical exponent read off at the shifted dimension
n + (mu1-1)/2 - sqrt(delta)/2, the Gaussian weight exponent
mu1*|x|^2/(2*(1+t)^2) with its derivatives, the time-dependent damping and
mass coefficients, and the table of theoretical decay exponents including
the logarithmic correction on the borderline delta == (n+1)^2.

All operations are pure functions of their inputs and freely shareable
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError

# The borderline delta == (n+1)^2 is a measure-zero case users hit only by
# exact construction; a relative tolerance keeps its detection robust.
BORDERLINE_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Spatial dimension, damping and mass coefficients, nonlinearity power."""

    n: int
    mu1: float
    mu2sq: float
    p: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"spatial dimension must be a positive integer, got {self.n!r}")
        if not all(map(math.isfinite, (self.mu1, self.mu2sq, self.p))):
            raise ValueError(f"mu1, mu2sq and p must be finite, got {self.mu1, self.mu2sq, self.p}")
        if not self.mu1 >= 0.0:
            raise ValueError(f"damping coefficient mu1 must be >= 0, got {self.mu1}")
        if not self.mu2sq >= 0.0:
            raise ValueError(f"mass coefficient mu2sq must be >= 0, got {self.mu2sq}")
        if not self.p > 1.0:
            raise ValueError(f"nonlinearity exponent p must be > 1, got {self.p}")

    @property
    def delta(self) -> float:
        # recomputed on demand so (mu1, mu2sq, delta) can never go stale
        return discriminant(self)


def discriminant(params: ModelParams) -> float:
    """(mu1 - 1)^2 - 4*mu2sq; may be negative."""
    return (params.mu1 - 1.0) ** 2 - 4.0 * params.mu2sq


def fujita_exponent(d: float) -> float:
    """1 + 2/d at a (possibly fractional) dimension d > 0."""
    if d <= 0.0:
        raise ValueError(f"fujita_exponent needs a positive dimension, got {d}")
    return 1.0 + 2.0 / d


def shifted_dimension(params: ModelParams) -> float:
    """n + (mu1-1)/2 - sqrt(delta)/2, the dimension at which the critical power is read off."""
    d = discriminant(params)
    if d < 0.0:
        raise RegimeError(f"sqrt of the discriminant undefined: delta = {d} < 0")
    return params.n + 0.5 * (params.mu1 - 1.0) - 0.5 * math.sqrt(d)


def critical_exponent(params: ModelParams) -> float:
    """Threshold power separating small-data decay from sign-forced blow-up."""
    dim = shifted_dimension(params)
    if dim <= 0.0:
        raise ValueError(f"shifted dimension must be positive, got {dim}")
    return fujita_exponent(dim)


@dataclass(frozen=True)
class RegimeReport:
    """Which qualitative regime the parameters fall into.

    ``sqrt_delta`` and ``p_crit`` are None exactly when they are not
    computable (negative discriminant, nonpositive shifted dimension).
    """

    delta: float
    sqrt_delta: float | None
    p_crit: float | None
    global_existence_applicable: bool
    blowup_range_applicable: bool


def regime_check(params: ModelParams) -> RegimeReport:
    """Evaluate regime flags; invalid regimes are reported, never raised.

    The small-data global-existence regime needs delta >= (n+1)^2,
    p > p_crit and, for n >= 3, p <= n/(n-2).  The blow-up range needs
    delta >= 0 and 1 < p <= p_crit.
    """
    d = discriminant(params)
    sqrt_d = math.sqrt(d) if d >= 0.0 else None
    p_crit = None
    if sqrt_d is not None:
        dim = params.n + 0.5 * (params.mu1 - 1.0) - 0.5 * sqrt_d
        if dim > 0.0:
            p_crit = fujita_exponent(dim)
    glob = False
    if p_crit is not None and d >= (params.n + 1) ** 2 and params.p > p_crit:
        glob = params.n < 3 or params.p <= params.n / (params.n - 2)
    blow = p_crit is not None and params.p <= p_crit
    return RegimeReport(
        delta=d,
        sqrt_delta=sqrt_d,
        p_crit=p_crit,
        global_existence_applicable=glob,
        blowup_range_applicable=blow,
    )


def coefficients(params: ModelParams, t) -> tuple:
    """Damping and mass coefficients (mu1/(1+t), mu2sq/(1+t)^2) at time t."""
    return params.mu1 / (1.0 + t), params.mu2sq / (1.0 + t) ** 2


def mass_coefficient_dt(params: ModelParams, t):
    """d/dt of the mass coefficient: -2*mu2sq/(1+t)^3 (never positive)."""
    return -2.0 * params.mu2sq / (1.0 + t) ** 3


def weight_exponent(params: ModelParams, t, r_sq):
    """Gaussian weight exponent mu1*|x|^2/(2*(1+t)^2); accepts arrays."""
    return weight_exponent_from_product(t, params.mu1 * r_sq)


def weight_exponent_from_product(t, mu1_r_sq, out=None):
    """``weight_exponent`` from the product mu1*|x|^2, bit for bit.

    A caller that evaluates the weight at many times on one grid forms the
    product once, and may pass an array ``out`` that receives the values.
    """
    denominator = 2.0 * (1.0 + t) ** 2
    return mu1_r_sq / denominator if out is None else np.divide(mu1_r_sq, denominator, out=out)


def weight_exponent_dt(params: ModelParams, t, r_sq):
    """Time derivative -mu1*|x|^2/(1+t)^3; equals -2/(1+t) times the exponent."""
    return -params.mu1 * r_sq / (1.0 + t) ** 3


def weight_exponent_grad_sq(params: ModelParams, t, r_sq):
    """Squared spatial gradient mu1^2*|x|^2/(1+t)^4."""
    return params.mu1**2 * r_sq / (1.0 + t) ** 4


def weight_exponent_dr(params: ModelParams, t, r):
    """Radial derivative mu1*r/(1+t)^2."""
    return params.mu1 * r / (1.0 + t) ** 2


def weight_exponent_laplacian(params: ModelParams, t):
    """Spatial Laplacian n*mu1/(1+t)^2, independent of x."""
    return params.n * params.mu1 / (1.0 + t) ** 2


def _is_borderline(delta_value: float, n: int) -> bool:
    return math.isclose(delta_value, float((n + 1) ** 2), rel_tol=BORDERLINE_RTOL)


@dataclass(frozen=True)
class DecayExponentTable:
    """Theoretical power-law decay exponents for the linear problem.

    ``l2_exponent`` is the rate of the solution's L2 norm,
    ``grad_exponent`` the rate of the (gradient, time-derivative) pair;
    ``log_correction`` is True exactly on the borderline discriminant.
    """

    l2_exponent: float
    grad_exponent: float
    log_correction: bool


def decay_exponents(params: ModelParams) -> DecayExponentTable:
    """Build the decay-exponent table; requires a positive discriminant."""
    d = discriminant(params)
    if d <= 0.0:
        raise RegimeError(f"decay exponent table needs delta > 0, got {d}")
    sqrt_d = math.sqrt(d)
    l2 = -0.5 * params.n - 0.5 * params.mu1 + 0.5 + 0.5 * sqrt_d
    return DecayExponentTable(
        l2_exponent=l2,
        grad_exponent=l2 - 1.0,
        log_correction=_is_borderline(d, params.n),
    )


def borderline_log_factor(params: ModelParams, t):
    """Decay-fit correction factor: 1 above the borderline, 1 + sqrt(log(1+t)) on it.

    Raises RegimeError for delta < (n+1)^2, where the table does not apply.
    """
    d = discriminant(params)
    if _is_borderline(d, params.n):
        return 1.0 + np.sqrt(np.log1p(t))
    if d > (params.n + 1) ** 2:
        return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0
    raise RegimeError(
        f"log correction defined only for delta >= (n+1)^2; got delta={d}, n={params.n}"
    )
