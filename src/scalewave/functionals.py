"""Norms, energies, and the averaged comparison functional.

The spatial weight is exp(sigma*W) with W(t,x) = mu1*|x|^2/(2*(1+t)^2), so
a weighted L2 norm is the plain L2 norm of exp(sigma*W)*f.  Every weighted
integral goes through one log-domain kernel, ``weighted_quadrature``: each
quadrature term exp(expo)*density is formed as exp(expo + log density), so
the weight may be astronomically large wherever the integrand is not.
Overflow is judged on that combined exponent, never on the weight alone:
a WeightOverflowError means the weighted integral itself cannot be
represented, instead of being silently saturated.

The recorder's three weighted quantities, the L2 norm of u, the norm of
the pair (grad u, u_t) and the energy, all integrate squares against
exp(2W); ``weighted_norms`` builds that exponent once and runs the three
quadratures on it.

The comparison frame rescales the solution by (1+t)^((mu1-1)/2 -
sqrt(delta)/2); in that frame the mass term drops out and the spatial
integral of the rescaled solution obeys the blow-up comparison inequality
implemented in the odi module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegimeError, WeightOverflowError
from .grid import RadialGrid
from .model import ModelParams, coefficients, discriminant, weight_exponent

# Largest admissible exponent of a single quadrature term; its exponential,
# about 1e260, leaves headroom below the float overflow at exp(709) for the
# weighted sum.
EXPONENT_BUDGET = 600.0


def weighted_quadrature(grid: RadialGrid, expo, density) -> float:
    """Quadrature of exp(expo)*density for a nonnegative nodal density.

    Sums w_i*exp(expo_i + log density_i) over the nodes where the density
    is nonzero, so a vanishing density never evaluates its weight.  Raises
    WeightOverflowError when some term's exponent exceeds the budget.  A
    NaN density propagates into the result instead of being dropped.
    """
    density = np.asarray(density, dtype=float)
    if density.shape != grid.r.shape:
        raise ValueError(f"expected {grid.r.size} nodal values, got shape {density.shape}")
    active = density != 0.0
    # boolean indexing copies, so the in-place updates leave expo untouched
    terms = np.asarray(expo, dtype=float)[active]
    terms += np.log(density[active])
    peak = terms.max() if terms.size else -math.inf
    if peak > EXPONENT_BUDGET:
        raise WeightOverflowError(
            f"weighted integral not representable: a quadrature term has exponent "
            f"{peak:.4g} > {EXPONENT_BUDGET:.0f}; the data do not decay fast enough "
            "for the weight on this grid"
        )
    return float(grid.quad_weights[active] @ np.exp(terms, out=terms))


def weighted_lq(grid: RadialGrid, values, params: ModelParams, sigma: float, t: float, q: float) -> float:
    """Lq norm of exp(sigma*W(t,.))*f by radial quadrature."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    expo = q * sigma * weight_exponent(params, t, grid.r**2)
    density = np.abs(np.asarray(values, dtype=float)) ** q
    return weighted_quadrature(grid, expo, density) ** (1.0 / q)


def weighted_norms(grid: RadialGrid, u, u_t, u_r, params: ModelParams, t: float):
    """(wl2, wgrad_l2, wenergy): the recorder's norms under the weight exp(2W).

    wl2 = ||exp(W) u||_2, wgrad_l2 = ||exp(W) (grad u, u_t)||_2 and
    wenergy = (1/2) * integral of exp(2W) * (u_t^2 + |grad u|^2 + m^2(t) u^2).
    ``u_t`` is expected from the centered two-level difference of the wave
    state, ``u_r`` from the centered radial difference.
    """
    u = np.asarray(u, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    _, m_sq = coefficients(params, t)
    expo = 2.0 * weight_exponent(params, t, grid.r**2)
    u_sq = u * u
    grad_sq = u_r * u_r + u_t * u_t
    wl2 = weighted_quadrature(grid, expo, u_sq) ** (1.0 / 2.0)
    wgrad_l2 = math.sqrt(weighted_quadrature(grid, expo, grad_sq))
    wenergy = 0.5 * weighted_quadrature(grid, expo, grad_sq + m_sq * u_sq)
    return wl2, wgrad_l2, wenergy


def comparison_frame_factor(params: ModelParams, t: float) -> float:
    """(1+t)^((mu1-1)/2 - sqrt(delta)/2); requires a nonnegative discriminant."""
    d = discriminant(params)
    if d < 0.0:
        raise RegimeError(f"comparison frame needs delta >= 0, got {d}")
    return (1.0 + t) ** (0.5 * (params.mu1 - 1.0) - 0.5 * math.sqrt(d))


def to_comparison_frame(values, t: float, params: ModelParams) -> np.ndarray:
    """Rescale solution values into the frame where the mass term drops out."""
    return comparison_frame_factor(params, t) * np.asarray(values, dtype=float)

