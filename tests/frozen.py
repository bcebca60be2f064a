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
