"""Norms, energies, and the averaged comparison functional.

The spatial weight is exp(sigma*W) with W(t,x) = mu1*|x|^2/(2*(1+t)^2), so
a weighted L2 norm is the plain L2 norm of exp(sigma*W)*f.  Every weighted
integral goes through one log-domain kernel, ``weighted_quadrature``: each
quadrature term exp(expo)*density is formed as exp(expo + log density), so
the weight may be astronomically large wherever the integrand is not.
Overflow is judged on that combined exponent, never on the weight alone.
The one rule: past a budget, the terms are summed relative to the largest
one and scaled back, so a weighted integral is represented up to the float
range and is +inf beyond it; nothing raises.  The recorder records such a
norm as +inf at every sample of a run, the first included, so data the
weight cannot represent still run and only their weighted columns say so;
the verify suites leave out a case whose weighted integrals are not all
finite, with a note.

The recorder's three weighted quantities, the L2 norm of u, the norm of
the pair (grad u, u_t) and the energy, all integrate squares against
exp(2W).  ``norms_of_squares`` takes those squares and that exponent
from its caller, which forms each once: the solver's recorder, on the
active window only, with the window's prefix of the quadrature weights.
Restricting to a prefix keeps every bit of the whole-grid values, because
the kernel compresses its arrays to the nonzero density nodes before it
sums, and beyond the window every density is 0.  The recorder also passes
scratch arrays, formed once per run, that receive the nonzero mask, the
terms expo + log(density) and a massive energy density, so a sample
allocates none of them; ``weighted_quadrature`` passes fresh arrays to the
same kernel.  Written in place, each value has the operations, operands
and order of the plain expression, so the bits are the same.
Without mass the energy density equals the gradient density bit for bit
(as long as u^2 is finite), so the energy reuses that quadrature and a
massless sample takes two log/exp passes instead of three.

The comparison frame rescales the solution by (1+t)^((mu1-1)/2 -
sqrt(delta)/2); in that frame the mass term drops out and the spatial
integral of the rescaled solution obeys the blow-up comparison inequality
implemented in the odi module.

Exactly zero: the package's one rule for skipping powers and Gaussians
whose value is +0.0.  Any real at most 2**-1100, 26 binades below the
smallest subnormal, rounds to +0.0, and in the far tails, where that
happens, ``np.power`` and ``np.exp`` leave their vector paths and cost
tens of times more per element.  So:

- |u|**p is taken only where |u| >= c_p = 2**(-1100/p): below it the
  power is at most 2**-1100 (``_source_cutoff``, ``_power_source``).
  For p < 1100/1074, c_p underflows to 0 and only zeros are skipped.
- exp(-(s/w)**2) is taken only where (s/w)**2 < 1100*ln 2: past it the
  exponential is at most 2**-1100 (``_gaussian``).

Each evaluates its function only on the span of nodes from the first to
the last that may be nonzero (for the power, from node 0) and writes +0.0
outside it, so every bit, the signs of zeros included, is that of the
plain expression; a NaN compares false, so it counts as inside and is
evaluated.  The solver's step and first level,
``weighted_lq``, the verify suites' Gaussians and powers and the CLI's
Gaussian data all go through these helpers; ``test_functionals`` and
``test_solver`` check the underflow assumption on the running numpy.  The
helpers are private, so the tracer wraps none of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegimeError
from .grid import RadialGrid, _nodal
from .model import ModelParams, discriminant, weight_exponent

# Largest term exponent summed as it is; past it the terms are summed relative to
# the largest and scaled back, since exp(709.8) overflows a float.
EXPONENT_BUDGET = 600.0


def weighted_quadrature(grid: RadialGrid, expo, density) -> float:
    """Quadrature of exp(expo)*density for a nonnegative nodal density.

    Sums w_i*exp(expo_i + log density_i) over the nodes where the density
    is nonzero, so a vanishing density never evaluates its weight; the one
    rule of the module notes applies past the budget, and nothing raises.  A
    NaN density propagates into the result instead of being dropped.
    """
    return _log_quadrature(grid.quad_weights, np.asarray(expo, dtype=float),
                           _nodal(grid, density))


def _log_quadrature(weights: np.ndarray, expo: np.ndarray, density: np.ndarray,
                    scratch: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """``weighted_quadrature`` with explicit weights.

    The weights may be a prefix of the grid's.  The terms, and so their
    sum, depend only on the nonzero density nodes in order; where those form
    a prefix they are sliced instead of gathered.  ``scratch`` is a boolean
    and a float array, each at least as long as the density, which receive
    the nonzero mask and the terms; without it both are fresh arrays.
    """
    size = density.size
    if scratch is None:
        scratch = np.empty(size, dtype=bool), np.empty(size)
    active, terms = scratch[0][:size], scratch[1]
    np.not_equal(density, 0.0, active)
    # one past the last nonzero node (a numpy bool is the byte 0 or 1)
    mask = active.tobytes()
    end = mask.rfind(b"\x01") + 1
    if mask.find(b"\x00", 0, end) < 0:
        # the nonzero nodes form a prefix: slices hold exactly what the gathers would
        weights, expo, density = weights[:end], expo[:end], density[:end]
    else:
        weights, expo, density = weights[active], expo[active], density[active]
    terms = terms[:density.size]
    np.add(expo, np.log(density, terms), terms)
    peak = float(np.maximum.reduce(terms)) if terms.size else -math.inf
    if not peak > EXPONENT_BUDGET:
        return float(weights @ np.exp(terms, terms))
    if peak == math.inf:
        return math.inf
    terms -= peak
    scaled = float(weights @ np.exp(terms, terms))
    try:
        half = math.exp(0.5 * peak)
    except OverflowError:
        return math.inf if scaled > 0.0 else 0.0
    return scaled * half * half


def weighted_lq(grid: RadialGrid, values, params: ModelParams, sigma: float, t: float, q: float) -> float:
    """Lq norm of exp(sigma*W(t,.))*f by radial quadrature."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    values = _nodal(grid, values)
    expo = q * sigma * weight_exponent(params, t, grid.r**2)
    return weighted_quadrature(grid, expo, _power_source(np.abs(values), q)) ** (1.0 / q)


def _source_cutoff(p: float) -> float:
    """c_p: every |u| below it has |u|**p exactly +0.0 (see the module notes)."""
    return 2.0 ** (-1100.0 / p)


def _power_source(source: np.ndarray, p: float, c_p: float | np.ndarray | None = None,
                  below: np.ndarray | None = None) -> np.ndarray:
    """|u|**p in place from the 1-d ``source`` = |u|, taken only where it can be nonzero.

    See the module notes.  ``c_p`` is ``_source_cutoff(p)`` and the boolean
    ``below`` has the length of ``source``; a caller that powers many
    arrays forms them once, and without them they are formed here.
    """
    if c_p is None:
        c_p = _source_cutoff(p)
    if below is None:
        below = np.empty(source.size, dtype=bool)
    np.less(source, c_p, below)  # NaN compares false, so it counts as inside
    # one past the last node not below c_p (a numpy bool is the byte 0 or 1)
    end = below.tobytes().rfind(b"\x00") + 1
    if end < source.size:
        source[end:].fill(0.0)
    # one view, powered in place (``source[:end] **= p`` also assigns it back)
    head = source[:end]
    head **= p
    return source


# past this (s/w)^2, exp(-(s/w)^2) is at most 2**-1100 and so +0.0 (module notes)
_GAUSSIAN_LIMIT = 1100.0 * math.log(2.0)


def _gaussian(s, width: float):
    """exp(-(s/width)^2), the exponential taken only where it can be nonzero.

    Bit for bit ``np.exp(-((s / width) ** 2))``, on arrays of any layout and
    on scalars, which take the plain expression (see the module notes).
    """
    x = (s / width) ** 2
    if not isinstance(x, np.ndarray) or not x.flags.c_contiguous:
        return np.exp(-x)
    flat = x.reshape(-1)
    # the bytes of ``past``: 1 where the exponential is +0.0 (NaN compares false)
    past = np.greater_equal(flat, _GAUSSIAN_LIMIT).tobytes()
    start, end = past.find(b"\x00"), past.rfind(b"\x00") + 1
    if start < 0:
        start = end = flat.size
    head = flat[start:end]
    np.exp(np.negative(head, head), head)
    flat[:start].fill(0.0)
    flat[end:].fill(0.0)
    return x


def norms_of_squares(weights: np.ndarray, expo: np.ndarray, u_sq: np.ndarray,
                     grad_sq: np.ndarray, m_sq: float, u_sq_max: float,
                     scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    """(wl2, wgrad_l2, wenergy) from the nodal squares u^2 and u_r^2 + u_t^2.

    Under the weight exp(2W) = exp(``expo``): wl2 = ||exp(W) u||_2,
    wgrad_l2 = ||exp(W) (grad u, u_t)||_2 and wenergy = (1/2) * integral of
    exp(2W) * (u_t^2 + |grad u|^2 + m^2(t) u^2), each +inf where it
    overflows (module notes).  All arrays may be one prefix of the grid's
    (weights, the exponent 2W and the squares) when both squares are 0
    beyond it: the quadratures see the same nonzero terms, so the values
    keep every bit.
    ``u_sq_max`` is the largest u^2.  Without mass (m_sq == 0) and with u^2
    finite, the energy density grad_sq + 0*u_sq is grad_sq bit for bit, so
    the energy reuses the gradient quadrature; where u^2 overflows or is
    NaN, 0*u^2 is NaN and the energy is integrated as written.
    ``scratch`` is (mask, terms, energy): the quadrature's boolean and float
    scratch and a float array for the energy density, each at least as
    long as the squares; without it they are fresh arrays.
    """
    if scratch is None:
        size = u_sq.size
        scratch = np.empty(size, dtype=bool), np.empty(size), np.empty(size)
    quadrature_scratch, energy = scratch[:2], scratch[2][:u_sq.size]
    u_integral = _log_quadrature(weights, expo, u_sq, quadrature_scratch)
    grad_integral = _log_quadrature(weights, expo, grad_sq, quadrature_scratch)
    if m_sq == 0.0 and math.isfinite(u_sq_max):
        energy_integral = grad_integral
    else:
        np.add(grad_sq, np.multiply(m_sq, u_sq, out=energy), out=energy)
        energy_integral = _log_quadrature(weights, expo, energy, quadrature_scratch)
    return u_integral ** (1.0 / 2.0), math.sqrt(grad_integral), 0.5 * energy_integral


def comparison_frame_exponent(params: ModelParams) -> float:
    """(mu1-1)/2 - sqrt(delta)/2, the power of (1+t) in the comparison frame.

    Requires a nonnegative discriminant.
    """
    d = discriminant(params)
    if d < 0.0:
        raise RegimeError(f"comparison frame needs delta >= 0, got {d}")
    return 0.5 * (params.mu1 - 1.0) - 0.5 * math.sqrt(d)


def comparison_frame_factor(params: ModelParams, t: float) -> float:
    """(1+t)^((mu1-1)/2 - sqrt(delta)/2); requires a nonnegative discriminant."""
    return (1.0 + t) ** comparison_frame_exponent(params)


def to_comparison_frame(values, t: float, params: ModelParams) -> np.ndarray:
    """Rescale solution values into the frame where the mass term drops out."""
    return comparison_frame_factor(params, t) * np.asarray(values, dtype=float)

