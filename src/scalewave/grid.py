"""Radially symmetric spatial mesh with quadrature and a discrete Laplacian.

Functions on R^n are reduced to profiles on r in [0, r_max].  Integrals
carry the surface measure omega_{n-1} r^(n-1) dr with trapezoidal weights
(robust at r = 0 where the measure vanishes), and the Laplacian acts as
u_rr + (n-1)/r u_r with the even-extension regularization n*u_rr(0) at the
origin.  The outer boundary is a homogeneous Dirichlet cut-off: callers
size r_max so nothing reaches it within the time horizon (finite speed of
propagation).  Grids are immutable and define the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class RadialGrid:
    n: int
    r_max: float
    dr: float
    r: np.ndarray
    quad_weights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.r.size

    @property
    def step_unit(self) -> float:
        """Stable time step per unit ``cfl_safety``, as ``grid_size`` gives it."""
        return _step_unit(self.n, self.dr)

    @property
    def row_divisor(self) -> float:
        """Largest divisor of a Laplacian row (``solver`` notes, "Shared passes")."""
        return self.dr_sq

    @cached_property  # formed on first use, as are the denominators
    def dr_sq(self) -> float:
        return self.dr**2

    @cached_property
    def denominators(self) -> np.ndarray | None:
        """(2 dr) r of the (n-1)/r u_r term; None in n = 1."""
        return 2.0 * self.dr * self.r if self.n > 1 else None

    def laplacian(self, u) -> np.ndarray:
        """The Laplacian (module notes) of 2 <= m <= num_nodes nodal values.

        The ghost beyond node m - 1 is 0: for a profile that is 0 beyond the
        prefix, the result is the prefix of the full-grid one bit for bit
        (up to the sign of a zero).
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or not 2 <= u.size <= self.num_nodes:
            raise ValueError(f"expected 2 to {self.num_nodes} nodal values, got shape {u.shape}")
        out = np.empty_like(u)
        self.laplacian_into(u, 2.0 * u, out, np.empty_like(u))
        return out

    def laplacian_into(self, u: np.ndarray, two_u: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> None:
        """``laplacian(u)`` written into ``out`` bit for bit, unchecked and in place.

        ``two_u`` holds 2.0 * u, which the centre term reads.  ``out`` and
        ``two_u`` have the length of ``u`` and ``scratch`` at least that;
        ``out`` and ``scratch`` may not overlap ``u`` or ``two_u``.  The end
        rows are formed on Python floats, which round as float64 does.
        """
        n, dr_sq, denominators = self.n, self.dr_sq, self.denominators
        m = u.size
        inner = out[1:-1]
        np.subtract(u[2:], two_u[1:-1], inner)
        np.add(inner, u[:-2], inner)
        np.divide(inner, dr_sq, inner)
        if n > 1:
            first_order = scratch[: m - 2]
            np.subtract(u[2:], u[:-2], first_order)
            np.multiply(n - 1, first_order, first_order)
            np.divide(first_order, denominators[1 : m - 1], first_order)
            np.add(inner, first_order, inner)
        u_0, u_1, u_before, u_last = u.item(0), u.item(1), u.item(-2), u.item(-1)
        out[0] = 2.0 * n * (u_1 - u_0) / dr_sq
        last = (-2.0 * u_last + u_before) / dr_sq
        if n > 1:
            last += (n - 1) * (-u_before) / denominators.item(m - 1)
        out[-1] = last


def surface_measure(n: int) -> float:
    """Area of the unit sphere in R^n: 2*pi^(n/2)/Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


#: Largest stable leapfrog step per unit spacing in n = 1..5: 2/sqrt(rho dr^2) for
#: the spectral radius rho of ``RadialGrid.laplacian``, rounded down (n = 1 takes
#: the limit, 1, as the wave speed is 1).  From n = 6 on the spectrum is complex and
#: no step is stable: runs refuse it (``solver.check_dimension``), and other grids
#: take 1.
_STEP_FACTORS = {1: 1.0, 2: 0.908908, 3: 0.816496, 4: 0.744623, 5: 0.688041}


def _step_unit(n: int, spacing: float) -> float:
    return spacing * _STEP_FACTORS.get(n, 1.0)


def grid_size(n: int, r_max: float, dr: float) -> tuple[int, float, float]:
    """(nodes, spacing, step unit) of ``make_radial_grid(n, r_max, dr)``, allocating nothing."""
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    if not 0.0 < dr < r_max:
        raise ValueError(f"need 0 < dr < r_max, got dr={dr}, r_max={r_max}")
    num = int(round(r_max / dr)) + 1
    spacing = r_max / (num - 1)
    return num, spacing, _step_unit(n, spacing)


def make_radial_grid(n: int, r_max: float, dr: float) -> RadialGrid:
    """Uniform radial mesh on [0, r_max] with trapezoidal quadrature weights.

    The requested spacing is snapped minimally so that the last node sits
    exactly on r_max.
    """
    num, spacing, _ = grid_size(n, r_max, dr)
    r = spacing * np.arange(num)
    weights = surface_measure(int(n)) * r ** (n - 1) * spacing
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return RadialGrid(n=int(n), r_max=float(r_max), dr=float(spacing), r=r, quad_weights=weights)


def _nodal(grid: RadialGrid, values) -> np.ndarray:
    """``values`` as a float array, which must hold one value per node of ``grid``."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.r.shape:
        raise ValueError(f"expected {grid.r.size} nodal values, got shape {values.shape}")
    return values


def integrate(grid: RadialGrid, values) -> float:
    """Quadrature approximation of the integral of a radial profile over R^n."""
    return float(grid.quad_weights @ _nodal(grid, values))


def radial_derivative_into(two_dr: float, u: np.ndarray, out: np.ndarray) -> None:
    """Centered radial derivative of ``u`` written into ``out``, with ``two_dr`` = 2*dr.

    The derivative is 0 at the origin (even symmetry), and the ghost beyond
    the last given node is 0.  As for ``RadialGrid.laplacian``, ``u`` may be a
    prefix of 2 <= m <= num_nodes values; for a profile that is 0 beyond
    it, the result is the prefix of the full-grid result bit for bit (up to
    the sign of a zero).  ``out`` has the length of ``u`` and may not
    overlap it; the values are those of the plain expressions bit for bit.
    """
    inner = out[1:-1]
    np.subtract(u[2:], u[:-2], inner)
    np.divide(inner, two_dr, inner)
    out[0] = 0.0
    out[-1] = -u.item(-2) / two_dr
