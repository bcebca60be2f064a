"""Frozen forms of library functions, kept as oracles that tests compare the live code with."""

import numpy as np


def parent_radial_derivative(grid, u):
    # grid.radial_derivative as it was before the recorder's in-place stencil
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * grid.dr)
    out[0] = 0.0
    out[-1] = -u[-2] / (2.0 * grid.dr)
    return out


def parent_laplacian_apply(grid, u):
    # grid.laplacian_apply as it was before the per-run step kernel
    u = np.asarray(u, dtype=float)
    n, dr, r = grid.n, grid.dr, grid.r[: u.size]
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr**2
    if n > 1:
        out[1:-1] += (n - 1) * (u[2:] - u[:-2]) / (2.0 * dr * r[1:-1])
    out[0] = 2.0 * n * (u[1] - u[0]) / dr**2
    out[-1] = (-2.0 * u[-1] + u[-2]) / dr**2
    if n > 1:
        out[-1] += (n - 1) * (-u[-2]) / (2.0 * dr * r[-1])
    return out
