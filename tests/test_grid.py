import math
from dataclasses import replace

import numpy as np
import pytest

from scalewave.grid import (
    integrate,
    make_radial_grid,
    radial_derivative_into,
    surface_measure,
)

from frozen import parent_radial_derivative


class TestConstruction:
    def test_node_count_and_endpoints(self):
        g = make_radial_grid(1, 10.0, 0.1)
        assert g.num_nodes == 101
        assert g.r[0] == 0.0
        assert abs(g.r[-1] - 10.0) <= 1e-12

    @pytest.mark.parametrize("n,expected", [(1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)])
    def test_surface_measure(self, n, expected):
        assert surface_measure(n) == pytest.approx(expected, rel=1e-14)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_radial_grid(1, -1.0, 0.1)
        with pytest.raises(ValueError):
            make_radial_grid(1, 1.0, 2.0)
        with pytest.raises(ValueError):
            make_radial_grid(0, 1.0, 0.1)

    def test_infinite_radius_rejected(self):
        with pytest.raises(ValueError, match="r_max must be finite"):
            make_radial_grid(1, math.inf, 0.1)

    def test_weights_nonnegative_and_ball_volume(self):
        # quadrature of the unit function over the ball of radius r_max
        for n in (1, 2, 3):
            g = make_radial_grid(n, 5.0, 0.01)
            assert np.all(g.quad_weights >= 0.0)
            vol = surface_measure(n) / n * 5.0**n
            # trapezoid order: exact for n <= 2, O(dr^2) for the r^2 measure
            assert integrate(g, np.ones_like(g.r)) == pytest.approx(vol, rel=1e-5)

    def test_operator_constants_derived_from_the_fields(self):
        # formed on first use, so a grid that never applies the operator holds no
        # denominators, and a replaced grid derives its own
        g = make_radial_grid(3, 5.0, 0.1)
        assert "denominators" not in vars(g)
        g.laplacian(np.zeros(g.num_nodes))
        assert np.array_equal(g.denominators, 2.0 * g.dr * g.r)
        h = replace(g, dr=2.0 * g.dr, r_max=2.0 * g.r_max)
        assert "denominators" not in vars(h) and h.dr_sq == (2.0 * g.dr) ** 2
        assert np.array_equal(h.r, 2.0 * g.r)
        assert np.array_equal(h.denominators, 2.0 * h.dr * h.r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_building_allocates_nothing_and_derives_the_arrays_bitwise(self, n):
        # a grid is its four fields until an array is used, so a run can be checked
        # against it first; the arrays are the expressions the grid was built with
        g = make_radial_grid(n, 7.0, 0.03)
        assert not {"r", "quad_weights", "denominators"} & set(vars(g))
        num = int(round(7.0 / 0.03)) + 1
        spacing = 7.0 / (num - 1)
        assert (g.n, g.r_max, g.dr, g.num_nodes) == (n, 7.0, spacing, num)
        r = spacing * np.arange(num)
        weights = surface_measure(n) * r ** (n - 1) * spacing
        weights[0] *= 0.5
        weights[-1] *= 0.5
        assert g.r.tobytes() == r.tobytes()
        assert g.quad_weights.tobytes() == weights.tobytes()
        # formed once
        assert g.r is g.r and g.quad_weights is g.quad_weights


class TestIntegrate:
    def test_zero(self):
        g = make_radial_grid(2, 5.0, 0.05)
        assert integrate(g, np.zeros_like(g.r)) == 0.0

    def test_gaussian_1d(self):
        g = make_radial_grid(1, 10.0, 0.01)
        value = integrate(g, np.exp(-g.r**2))
        assert value == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_gaussian_3d(self):
        g = make_radial_grid(3, 10.0, 0.01)
        value = integrate(g, np.exp(-g.r**2))
        assert value == pytest.approx(math.pi**1.5, abs=1e-4)

    def test_length_mismatch(self):
        g = make_radial_grid(1, 5.0, 0.1)
        with pytest.raises(ValueError):
            integrate(g, np.zeros(7))

    def test_ball_indicator_first_order(self):
        for n in (1, 2, 3):
            g = make_radial_grid(n, 5.0, 0.01)
            indicator = np.where(g.r <= 2.0, 1.0, 0.0)
            vol = surface_measure(n) / n * 2.0**n
            # trapezoid across the jump: error bounded by one weight strip
            assert abs(integrate(g, indicator) - vol) <= surface_measure(n) * 2.0 ** (n - 1) * g.dr


class TestLaplacian:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_constant_interior(self, n):
        g = make_radial_grid(n, 5.0, 0.05)
        lap = g.laplacian(np.full_like(g.r, 2.5))
        assert np.max(np.abs(lap[:-1])) == 0.0  # boundary node sees the Dirichlet ghost

    def test_gaussian_analytic_oracle(self):
        # Lap exp(-r^2) = (4 r^2 - 2n) exp(-r^2)
        for n in (1, 2, 3):
            g = make_radial_grid(n, 10.0, 0.02)
            u = np.exp(-g.r**2)
            exact = (4.0 * g.r**2 - 2.0 * n) * np.exp(-g.r**2)
            err = np.max(np.abs(g.laplacian(u)[:-1] - exact[:-1]))
            assert err <= 5.0 * g.dr**2

    def test_quadratic_exact(self):
        g = make_radial_grid(3, 5.0, 0.1)
        lap = g.laplacian(g.r**2)
        assert np.max(np.abs(lap[:-1] - 6.0)) <= 1e-9

    def test_second_order_refinement(self):
        errors = []
        for dr in (0.04, 0.02):
            g = make_radial_grid(2, 10.0, dr)
            u = np.exp(-g.r**2)
            exact = (4.0 * g.r**2 - 4.0) * np.exp(-g.r**2)
            errors.append(np.max(np.abs(g.laplacian(u)[:-1] - exact[:-1])))
        assert math.log2(errors[0] / errors[1]) >= 1.9

    def test_symmetric_negative(self):
        g = make_radial_grid(2, 10.0, 0.01)
        u = np.exp(-((g.r - 2.0) ** 2)) + np.exp(-((g.r + 2.0) ** 2))
        v = np.exp(-(g.r**2)) * (1.0 + 0.3 * g.r**2)
        asym = integrate(g, g.laplacian(u) * v) - integrate(g, u * g.laplacian(v))
        assert abs(asym) <= 50.0 * g.dr**2
        assert integrate(g, g.laplacian(u) * u) < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_prefix_matches_full_grid_bitwise(self, n):
        # the last row of a prefix is the interior row with a zero ghost
        g = make_radial_grid(n, 5.0, 0.05)
        size = g.num_nodes
        for m in (2, size // 2, size):
            u = np.where(np.arange(size) < m, 1.5 + np.cos(3.0 * g.r), 0.0)
            full = g.laplacian(u)
            assert g.laplacian(u[:m]).tobytes() == full[:m].tobytes()

    def test_prefix_length_checked(self):
        g = make_radial_grid(1, 1.0, 0.1)
        for bad in (np.zeros(1), np.zeros(g.num_nodes + 1), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                g.laplacian(bad)


def laplacian_spectrum(g):
    """Eigenvalues of ``g.laplacian`` as a matrix, from its action on unit vectors."""
    matrix = np.column_stack([g.laplacian(e) for e in np.eye(g.num_nodes)])
    return np.linalg.eigvals(matrix)


class TestStepUnit:
    @pytest.mark.parametrize("nodes", [101, 401])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_within_the_leapfrog_bound_and_tight(self, n, nodes):
        # leapfrog on u'' = L u is stable for dt <= 2/sqrt(rho(L)) when L's spectrum
        # is real; the step unit per spacing is that bound rounded down (n = 1: its
        # limit 1, which the finite grid's rho, just below 4/dr^2, keeps)
        g = make_radial_grid(n, 0.1 * (nodes - 1), 0.1)
        spectrum = laplacian_spectrum(g)
        assert np.all(spectrum.imag == 0.0) and np.all(spectrum.real <= 0.0)
        bound = 2.0 / math.sqrt(np.max(np.abs(spectrum)) * g.dr**2)
        factor = g.step_unit / g.dr
        assert factor <= bound
        assert factor >= bound - (1e-4 if n == 1 else 1e-6)
        # the unit is read from the fields, which the derived radii agree with
        assert (g.r.size, g.r[1]) == (g.num_nodes, g.dr)
        # n = 1 keeps dt = cfl_safety * dr, bit for bit
        assert n > 1 or g.step_unit == g.dr

    @pytest.mark.parametrize("n", [6, 7])
    def test_spectrum_complex_from_six_dimensions(self, n):
        # no dt is stable there, so runs refuse it; the grid keeps the spacing as its unit
        g = make_radial_grid(n, 10.0, 0.1)
        assert np.max(np.abs(laplacian_spectrum(g).imag)) * g.dr**2 > 0.3
        assert g.step_unit == g.dr


def derivative_row(g, u):
    # radial_derivative_into on an allocated row
    row = np.empty_like(u)
    radial_derivative_into(2.0 * g.dr, u, row)
    return row


class TestRadialDerivative:
    def test_even_extension_at_origin(self):
        g = make_radial_grid(1, 5.0, 0.05)
        assert derivative_row(g, np.exp(-g.r**2))[0] == 0.0

    def test_centered_accuracy(self):
        g = make_radial_grid(1, 10.0, 0.02)
        du = derivative_row(g, np.exp(-g.r**2))
        exact = -2.0 * g.r * np.exp(-g.r**2)
        assert np.max(np.abs(du[:-1] - exact[:-1])) <= 5.0 * g.dr**2

    def test_into_a_prefix_matches_the_frozen_stencil_bitwise(self):
        # signed zeros included: -0.0 data and a zero ghost give -0.0 and +0.0 slopes
        g = make_radial_grid(2, 5.0, 0.05)
        size = g.num_nodes
        index = np.arange(size)
        u = np.where(index < 40, np.cos(3.0 * g.r), np.where(index // 2 % 2, 0.0, -0.0))
        row = np.full(size, np.nan)
        for m in (2, 3, 41, size // 2, size):
            radial_derivative_into(2.0 * g.dr, u[:m], row[:m])
            assert row[:m].tobytes() == parent_radial_derivative(g, u[:m]).tobytes()
        zeros = np.signbit(row[41:])
        assert not row[41:].any() and zeros.any() and not zeros.all()
