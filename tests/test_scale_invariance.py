"""Scale invariance: an exact oracle for nonlinear runs, blow-up times and s > 0.

If u solves u_tt - Lap u + mu1/(1+t) u_t + mu2sq/(1+t)^2 u = |u|^p, so does
lam^a u(lam (1+t) - 1, lam x) for a = 2/(p-1): damping, mass and power all
scale alike, and the weight exponent mu1 r^2 / (2 (1+t)^2) is invariant.
The leapfrog, the Taylor first level and the recorder are equivariant under
the same map of the discrete run (dr and dt scale by lam, the clock starts
at lam (1+s) - 1), so a run and its image agree to round-off, not to
O(dr^2): each recorded column is the first run's times a fixed power of lam.
"""

import dataclasses

import numpy as np
import pytest

from scalewave.grid import make_radial_grid
from scalewave.model import ModelParams, discriminant
from scalewave.functionals import comparison_frame_exponent
from scalewave.solver import OUTCOME_BLOWUP, SAMPLE_KEYS, RunConfig, check_run, run

R_MAX, DR, T_MAX = 30.0, 0.05, 10.0


def gaussian(amplitude):
    return lambda r: amplitude * np.exp(-((np.asarray(r) / 0.4) ** 2))


def image(lam, a, profile, extra=0):
    # lam^-(a + extra) f(r / lam): u0's image for extra = 0, u1's for extra = 1
    return lambda r: lam ** -(a + extra) * profile(np.asarray(r) / lam)


def column_powers(params: ModelParams, a: float) -> dict:
    """The power of lam by which each recorded column of the image run scales."""
    n = params.n
    frame = comparison_frame_exponent(params) if discriminant(params) >= 0.0 else 0.0
    return {"sup": -a, "l2": n / 2 - a, "grad_l2": n / 2 - a - 1, "ut_l2": n / 2 - a - 1,
            "wl2": n / 2 - a, "wgrad_l2": n / 2 - a - 1, "wenergy": n - 2 * a - 2,
            "F": frame + n - a}


@pytest.mark.parametrize("n, mu1, mu2sq, p, amplitude, lam, nonlinear, s, u1, blows_up", [
    (1, 4.0, 0.0, 3.0, 1.0, 2.0, True, 0.0, 0.0, False),
    # massive, from s > 0, with initial velocity
    (1, 4.0, 0.5, 3.0, 1.0, 3.0, True, 0.5, 0.5, False),
    (1, 4.0, 0.0, 2.0, 5.0, 2.0, True, 0.0, 0.0, True),
    (2, 3.0, 1.0, 2.5, 1.0, 3.0, False, 0.0, 0.0, False),
    (2, 2.0, 0.0, 2.0, 10.0, 3.0, True, 1.0, 0.0, True),
    (3, 5.0, 2.0, 2.0, 1.0, 2.0, True, 0.0, 0.0, False),
    (3, 5.0, 0.0, 1.5, 2.0, 3.0, True, 0.0, 0.0, False),
    (3, 2.0, 1.0, 2.0, 30.0, 2.0, True, 0.5, 0.0, True),
])
def test_a_run_and_its_image_agree_to_round_off(n, mu1, mu2sq, p, amplitude, lam, nonlinear,
                                                 s, u1, blows_up):
    a = 2.0 / (p - 1.0)
    params = ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=p)
    cfg = RunConfig(params=params, s=s, t_max=T_MAX, nonlinear=nonlinear, cfl_safety=0.5,
                    record_every=1)
    cfg_image = dataclasses.replace(cfg, s=lam * (1.0 + s) - 1.0,
                                    t_max=lam * (1.0 + T_MAX) - 1.0,
                                    blowup_threshold=lam**-a * cfg.blowup_threshold)
    grid, grid_image = make_radial_grid(n, R_MAX, DR), make_radial_grid(n, lam * R_MAX, lam * DR)
    # every rule of the up-front check is scale-invariant, so it admits both runs
    check_run(grid, cfg)
    check_run(grid_image, cfg_image)
    u0, v0 = gaussian(amplitude), gaussian(u1)
    rep = run(grid, u0, v0, cfg)
    rep_image = run(grid_image, image(lam, a, u0), image(lam, a, v0, 1), cfg_image)

    assert (rep.outcome == OUTCOME_BLOWUP) == blows_up
    assert rep_image.outcome == rep.outcome
    assert rep_image.samples.shape == rep.samples.shape
    t, t_image = rep.samples[:, 0], rep_image.samples[:, 0]
    mapped = lam * (1.0 + t) - 1.0
    assert np.max(np.abs(t_image - mapped) / mapped) <= 1e-12
    if blows_up:
        T = lam * (1.0 + rep.blowup_time) - 1.0
        assert abs(rep_image.blowup_time - T) <= 1e-12 * T
    for column, (key, power) in enumerate(column_powers(params, a).items(), start=1):
        assert key == SAMPLE_KEYS[column - 1]
        x, y = rep.samples[:, column], rep_image.samples[:, column]
        # zeros (u_t at t = s without initial velocity) and NaN (F without a frame)
        # match; every other row's ratio is lam^power to round-off
        assert np.array_equal(x == 0.0, y == 0.0) and np.array_equal(np.isnan(x), np.isnan(y))
        rows = (x != 0.0) & ~np.isnan(x)
        ratio = y[rows] / x[rows]
        assert np.all(np.abs(ratio / lam**power - 1.0) <= 1e-10), key


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("cfl_safety, admitted", [(0.37, True), (0.38, False)])
def test_mass_bound_refuses_a_run_and_its_image_alike(lam, cfl_safety, admitted):
    # the coarse massive run whose step unchecked was unstable, and its images
    cfg = RunConfig(params=ModelParams(n=1, mu1=0.0, mu2sq=100.0, p=3.0),
                    s=lam - 1.0, t_max=lam * 21.0 - 1.0, cfl_safety=cfl_safety)
    grid = make_radial_grid(1, lam * 40.0, lam * 0.5)
    if admitted:
        check_run(grid, cfg)
    else:
        with pytest.raises(ValueError, match="time step past the mass bound"):
            check_run(grid, cfg)
