import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalewave.functionals import (
    EXPONENT_BUDGET,
    _gaussian,
    _log_quadrature,
    comparison_frame_factor,
    norms_of_squares,
    to_comparison_frame,
    weighted_lq,
    weighted_quadrature,
)
from scalewave.grid import integrate, make_radial_grid, radial_derivative_into
from scalewave.model import ModelParams, RegimeError, coefficients, weight_exponent


def params(n=1, mu1=1.0, mu2sq=0.0, p=2.0):
    return ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=p)


@pytest.fixture(scope="module")
def grid():
    return make_radial_grid(1, 20.0, 0.005)


class TestWeightedQuadrature:
    def test_log_domain_terms(self):
        g = make_radial_grid(1, 4.0, 1.0)
        density = np.array([1.0, 2.0, 0.0, 0.5, 0.0])
        expo = np.array([0.0, 1.0, 5000.0, -2.0, 0.0])
        # the huge exponent sits on a zero density and is never exponentiated
        expected = g.quad_weights @ np.array([1.0, 2.0 * math.e, 0.0, 0.5 * math.exp(-2.0), 0.0])
        assert weighted_quadrature(g, expo, density) == pytest.approx(expected, rel=1e-15)
        # only the term exponent counts: 700 - 150 is within the budget
        tiny = np.array([math.exp(-150.0), 0.0, 0.0, 0.0, 0.0])
        assert weighted_quadrature(g, np.full(5, 700.0), tiny) == pytest.approx(
            g.quad_weights[0] * math.exp(550.0), rel=1e-12)
        # past the budget the terms are summed scaled, never refused
        assert weighted_quadrature(g, np.full(5, 601.0), np.ones(5)) == pytest.approx(
            g.quad_weights.sum() * math.exp(601.0), rel=1e-13)
        assert math.isnan(weighted_quadrature(g, expo, np.where(density == 2.0, np.nan, density)))
        with pytest.raises(ValueError):
            weighted_quadrature(g, expo, np.ones(4))


class TestPastTheBudget:
    """Past the exponent budget the kernel sums relative to the peak term, for every caller."""

    @pytest.mark.parametrize("peak", [600.5, 650.0, 700.0, 705.1, 708.0, 900.0])
    def test_just_past_the_budget_is_the_shifted_sum(self, peak):
        g = make_radial_grid(3, 6.0, 0.05)
        rng = np.random.default_rng(11)
        density = rng.uniform(0.1, 2.0, g.num_nodes)
        expo = rng.uniform(peak - 40.0, peak - 1.0, g.num_nodes)
        expo[17] = peak - math.log(density[17])  # node 17 carries the peak term exponent
        terms = expo + np.log(density)
        top = float(terms.max())
        shifted = math.fsum(g.quad_weights * np.exp(terms - top))
        got = weighted_quadrature(g, expo, density)
        assert top > EXPONENT_BUDGET
        assert np.float64(_log_quadrature(g.quad_weights, expo, density)).tobytes() == \
            np.float64(got).tobytes()
        if math.log(shifted) + top < 709.7:
            assert got == pytest.approx(shifted * math.exp(top), rel=1e-13)
            # the scaled sum, bit for bit: relative to the peak, scaled back by e^(peak/2) twice
            half = math.exp(0.5 * top)
            assert got == float(g.quad_weights @ np.exp(terms - top)) * half * half
        else:
            assert got == math.inf

    def test_within_the_budget_is_unchanged(self):
        g = make_radial_grid(1, 4.0, 1.0)
        density = np.array([1.0, 2.0, 0.0, 0.5, 0.0])
        expo = np.array([0.0, 599.0, 5000.0, -2.0, 0.0])
        terms = expo[density != 0.0] + np.log(density[density != 0.0])
        want = float(g.quad_weights[density != 0.0] @ np.exp(terms))
        assert _log_quadrature(g.quad_weights, expo, density) == want
        assert weighted_quadrature(g, expo, density) == want

    def test_infinite_or_unrepresentable_integral_is_inf(self):
        g = make_radial_grid(1, 4.0, 1.0)
        ones = np.ones(5)
        assert _log_quadrature(g.quad_weights, np.zeros(5), np.array([1.0, math.inf, 0, 0, 0])) \
            == math.inf
        assert _log_quadrature(g.quad_weights, np.full(5, 750.0), ones) == math.inf
        assert _log_quadrature(g.quad_weights, np.full(5, 1e6), ones) == math.inf
        assert weighted_quadrature(g, np.full(5, 1e6), ones) == math.inf
        # a NaN density is not an overflow: it propagates, as within the budget
        with np.errstate(over="ignore"):
            assert math.isnan(_log_quadrature(g.quad_weights, np.full(5, 800.0),
                                              np.array([1.0, math.nan, 1.0, 0.0, 0.0])))

    def test_norms_past_the_budget_are_formed(self):
        # a term past the budget is summed scaled back, with or without mass
        g = make_radial_grid(1, 4.0, 1.0)
        expo = np.array([0.0, 700.0, 0.0, 0.0, 0.0])
        u_sq, grad_sq = np.array([1.0, 1.0, 0, 0, 0]), np.array([0.0, 0.0, 2.0, 0, 0])
        wl2_massless, wgrad_l2, wenergy = norms_of_squares(g.quad_weights, expo, u_sq, grad_sq,
                                                           0.0, 1.0)
        assert wgrad_l2 == math.sqrt(2.0 * g.quad_weights[2]) and wenergy == g.quad_weights[2]
        wl2, _, wenergy = norms_of_squares(g.quad_weights, expo, u_sq, grad_sq, 0.5, 1.0)
        assert wl2 == wl2_massless
        assert wl2 == pytest.approx(math.sqrt(g.quad_weights[1] * math.exp(700.0)), rel=1e-13)
        assert wenergy == pytest.approx(0.25 * g.quad_weights[1] * math.exp(700.0), rel=1e-13)

    @pytest.mark.parametrize("path", ["prefix", "gather"])
    def test_reused_scratch_matches_fresh_arrays(self, path):
        # one scratch pair, dirtied by every call, for windows that shrink and grow
        g = make_radial_grid(3, 10.0, 0.05)
        rng = np.random.default_rng(5)
        scratch = np.ones(g.num_nodes, dtype=bool), np.full(g.num_nodes, np.nan)
        for w in (g.num_nodes, 50, 120, 3, 0, 200):
            expo = rng.uniform(-40.0, 700.0, w)
            density = rng.uniform(0.0, 3.0, w) ** 5
            density[rng.integers(0, w + 1):] = 0.0
            if path == "gather" and w > 2:
                density[rng.integers(0, w - 1, 3)] = 0.0
                density[-1] = 1.0
            want = _log_quadrature(g.quad_weights[:w], expo, density)
            got = _log_quadrature(g.quad_weights[:w], expo, density, scratch)
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestWeightedL2:
    def test_zero(self, grid):
        assert weighted_lq(grid, np.zeros_like(grid.r), params(), 1.0, 0.0, 2.0) == 0.0

    def test_unweighted_limit(self, grid):
        # mu1 = 0 makes the weight exponent vanish identically
        f = np.exp(-grid.r**2)
        plain = math.sqrt(integrate(grid, f * f))
        assert weighted_lq(grid, f, params(mu1=0.0), 1.0, 0.0, 2.0) == pytest.approx(plain, rel=1e-14)

    def test_gaussian_closed_form(self, grid):
        # f = exp(-a r^2), sigma=1, t=0: the squared norm is the integral over
        # the line of exp((mu1 - 2a) r^2), i.e. sqrt(pi/(2a - mu1)).  In the
        # second case (mu1 = 6, the default data width 0.4) the weight
        # exponent alone reaches 2400 on this grid, far above the budget,
        # while every term of the integrand stays below 1.
        for mu1, a in ((1.0, 1.0), (6.0, 6.25)):
            got = weighted_lq(grid, np.exp(-a * grid.r**2), params(mu1=mu1), 1.0, 0.0, 2.0)
            assert got == pytest.approx((math.pi / (2.0 * a - mu1)) ** 0.25, rel=1e-10)

    def test_refined_quadrature_oracle(self):
        f_of = lambda r: np.exp(-(r**2))
        p = params(mu1=1.0)
        coarse = make_radial_grid(1, 20.0, 0.01)
        fine = make_radial_grid(1, 20.0, 0.001)
        a = weighted_lq(coarse, f_of(coarse.r), p, 1.0, 0.0, 2.0)
        b = weighted_lq(fine, f_of(fine.r), p, 1.0, 0.0, 2.0)
        assert a == pytest.approx(b, rel=1e-8)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            weighted_lq(grid, np.zeros_like(grid.r), params(), 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            weighted_lq(grid, np.zeros_like(grid.r), params(), 1.0, -1.0, 2.0)

    def test_overflow_guard(self):
        g = make_radial_grid(1, 60.0, 0.05)
        f = np.exp(-0.01 * g.r**2)  # slowly decaying, nonzero at large r
        # its largest term exponent, about 1.4e4, is past the float range: +inf, not an error
        assert weighted_lq(g, f, params(mu1=4.0), 1.0, 0.0, 2.0) == math.inf

    def test_past_the_budget_only_the_term_exponent_counts(self):
        g = make_radial_grid(1, 4.0, 1.0)
        ones = np.ones(5)
        # a term exactly at the budget is summed, a NaN term propagates
        assert weighted_quadrature(g, np.full(5, EXPONENT_BUDGET), ones) == pytest.approx(
            g.quad_weights.sum() * math.exp(EXPONENT_BUDGET), rel=1e-13)
        assert math.isnan(weighted_quadrature(g, np.full(5, EXPONENT_BUDGET), ones * math.nan))
        # however large the data, past the budget the sum depends on the term exponent alone
        for size in (1.0, 0.5, 1e10, 1e140):
            got = weighted_quadrature(g, np.full(5, 700.0 - 2.0 * math.log(size)), ones * size**2)
            assert got == pytest.approx(g.quad_weights.sum() * math.exp(700.0), rel=1e-12)

    def test_lower_bounds_plain_l2(self, grid):
        # pointwise weight >= 1, so the weighted norm dominates the plain one
        rng = np.random.default_rng(0)
        for _ in range(20):
            width = rng.uniform(0.3, 2.0)
            f = rng.uniform(0.2, 3.0) * np.exp(-((grid.r / width) ** 2))
            plain = math.sqrt(integrate(grid, f * f))
            for sigma in (0.25, 1.0):
                assert weighted_lq(grid, f, params(mu1=2.0), sigma, 1.5, 2.0) >= plain


class TestWeightedLq:
    def test_zero(self, grid):
        assert weighted_lq(grid, np.zeros_like(grid.r), params(), 1.0, 0.0, 4.0) == 0.0

    def test_refined_quadrature_oracle_q4(self):
        p = params(mu1=1.0)
        coarse = make_radial_grid(1, 20.0, 0.01)
        fine = make_radial_grid(1, 20.0, 0.001)
        a = weighted_lq(coarse, np.exp(-coarse.r**2), p, 0.5, 0.0, 4.0)
        b = weighted_lq(fine, np.exp(-fine.r**2), p, 0.5, 0.0, 4.0)
        assert a == pytest.approx(b, rel=1e-8)

    def test_q_domain(self, grid):
        with pytest.raises(ValueError):
            weighted_lq(grid, np.zeros_like(grid.r), params(), 1.0, 0.0, 0.5)


def full_grid_norms(grid, u, u_t, u_r, p, t):
    # (wl2, wgrad_l2, wenergy) of norms_of_squares on full-grid squares
    u_sq = u * u
    expo = 2.0 * weight_exponent(p, t, grid.r**2)
    return norms_of_squares(grid.quad_weights, expo, u_sq, u_r * u_r + u_t * u_t,
                            coefficients(p, t)[1], float(u_sq.max()))[:3]


class TestWeightedEnergy:
    def test_zero_state(self, grid):
        z = np.zeros_like(grid.r)
        assert full_grid_norms(grid, z, z, z, params(mu2sq=1.0), 0.0)[2] == 0.0

    def test_massless_drops_mass_term(self, grid):
        u = np.exp(-grid.r**2)
        z = np.zeros_like(grid.r)
        u_r = np.empty_like(u)
        radial_derivative_into(2.0 * grid.dr, u, u_r)
        with_mass = full_grid_norms(grid, u, z, u_r, params(mu1=1.0, mu2sq=1.0), 0.0)[2]
        without = full_grid_norms(grid, u, z, u_r, params(mu1=1.0, mu2sq=0.0), 0.0)[2]
        assert without < with_mass
        # removing the solution values entirely leaves the gradient part only
        grad_only = full_grid_norms(grid, z, z, u_r, params(mu1=1.0, mu2sq=1.0), 0.0)[2]
        assert grad_only == pytest.approx(without, rel=1e-13)

    def test_static_gaussian_refined_oracle(self):
        p = params(mu1=1.0, mu2sq=1.0)
        coarse = make_radial_grid(1, 20.0, 0.01)
        fine = make_radial_grid(1, 20.0, 0.001)

        def value(g):
            u = np.exp(-g.r**2)
            z = np.zeros_like(g.r)
            u_r = -2.0 * g.r * np.exp(-g.r**2)
            return full_grid_norms(g, u, z, u_r, p, 0.0)[2]

        assert value(coarse) == pytest.approx(value(fine), rel=1e-8)


class TestWeightedNorms:
    def test_one_exponent_matches_separate_quadratures_bitwise(self):
        # massive n = 2 state at t > 0: each value carries the bits of its own
        # quadrature with its own weight exponent
        g = make_radial_grid(2, 12.0, 0.05)
        p = params(n=2, mu1=3.0, mu2sq=2.0)
        t = 1.5
        u = 0.8 * np.exp(-((g.r / 0.5) ** 2))
        u_t = -1.3 * g.r * np.exp(-((g.r / 0.6) ** 2))
        u_r = np.empty_like(u)
        radial_derivative_into(2.0 * g.dr, u, u_r)
        wl2, wgrad_l2, wenergy = full_grid_norms(g, u, u_t, u_r, p, t)
        expo = 2.0 * weight_exponent(p, t, g.r**2)
        m_sq = coefficients(p, t)[1]
        assert wl2 == weighted_lq(g, u, p, 1.0, t, 2.0)
        assert wgrad_l2 == math.sqrt(weighted_quadrature(g, expo, u_r**2 + u_t**2))
        assert wenergy == 0.5 * weighted_quadrature(g, expo, u_t**2 + u_r**2 + m_sq * u**2)
        assert wenergy > 0.5 * wgrad_l2**2 > 0.0


class TestComparisonFrame:
    def test_identity_at_t0(self):
        assert comparison_frame_factor(params(mu1=4.0), 0.0) == 1.0

    def test_massless_is_identity_for_all_t(self):
        p = params(mu1=5.0, mu2sq=0.0)
        for t in (0.0, 1.0, 7.0):
            assert comparison_frame_factor(p, t) == 1.0

    def test_explicit_factor(self):
        # mu1=5, mu2sq=1.75: delta=9, exponent (4-3)/2 = 1/2, so factor sqrt(1+t)
        assert comparison_frame_factor(params(mu1=5.0, mu2sq=1.75), 3.0) == pytest.approx(2.0)

    def test_negative_discriminant(self):
        with pytest.raises(RegimeError):
            to_comparison_frame(np.ones(3), 1.0, params(mu1=2.0, mu2sq=1.0))


def gaussian_inputs(width):
    # s with (s/width)^2 across normal, subnormal and underflowing results of exp, the
    # mask's edge, +-0, +-inf and NaN, shuffled so that the skipped nodes are no suffix
    rng = np.random.default_rng(5)
    edge = math.sqrt(1100.0 * math.log(2.0))
    ratios = np.concatenate([
        rng.uniform(0.0, 26.0, 1000),     # normal results
        rng.uniform(26.62, 27.3, 400),    # subnormal results: (s/w)^2 in (708.4, 745.1)
        rng.uniform(27.3, edge, 200),     # +0.0, but before the edge: exp is taken
        [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)],
        rng.uniform(edge, 1e3, 400),      # past the edge: skipped
        [0.0, 1e-300, 1e200, math.inf, math.nan],
    ])
    signs = rng.choice([-1.0, 1.0], ratios.size)
    s = np.concatenate([signs * ratios * width, [-0.0, -math.inf, -math.nan]])
    return s[rng.permutation(s.size)]


class TestExactZeroGaussian:
    """``_gaussian`` keeps every bit of exp(-(s/w)^2) on the running numpy."""

    @staticmethod
    def assert_plain(s, width):
        with np.errstate(over="ignore"):  # the square of 1e200 is inf in both
            got, want = _gaussian(s, width), np.exp(-((s / width) ** 2))
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("width", [1.0, 0.37, 3.0, 12.5])
    def test_contiguous_strided_and_nd(self, width):
        s = gaussian_inputs(width)
        with np.errstate(over="ignore"):
            past = (s / width) ** 2 >= 1100.0 * math.log(2.0)
        assert past.any() and not past.all()
        ordered = np.sort(np.abs(s))  # the skipped nodes form a suffix
        for form in (s, s[::3], s[::-1], ordered, ordered[::-1], s[:2000].reshape(40, 50),
                     s[:2000].reshape(40, 50).T, s[:0], s[past], s[~past]):
            self.assert_plain(form, width)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 26.9, 27.5, 27.7, 1e3,
                                       math.inf, -math.inf, math.nan])
    def test_scalars_and_0d(self, value):
        for form in (value, np.float64(value), np.asarray(value)):
            self.assert_plain(form, 1.0)

    def test_grid_radii(self):
        # the verify family's use: r - center on a grid, with the tail past the edge
        r = make_radial_grid(1, 40.0, 0.02).r
        for center in (0.0, 0.9):
            self.assert_plain(r - center, 0.5)
            self.assert_plain(r + center, 0.5)


class TestSpatialIntegral:
    def test_zero(self, grid):
        assert integrate(grid, np.zeros_like(grid.r)) == 0.0

    def test_gaussian(self, grid):
        assert integrate(grid, np.exp(-grid.r**2)) == pytest.approx(
            math.sqrt(math.pi), abs=1e-6
        )

    def test_signed_cancellation(self, grid):
        # (1 - 2r^2) e^{-r^2} integrates to zero over the line (n=1 measure)
        f = (1.0 - 2.0 * grid.r**2) * np.exp(-grid.r**2)
        assert abs(integrate(grid, f)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       sigma=st.sampled_from([0.25, 0.5, 1.0]))
def test_absolute_homogeneity(scale, sigma):
    g = make_radial_grid(1, 15.0, 0.01)
    f = np.exp(-g.r**2) * (1.0 + g.r)
    p = ModelParams(n=1, mu1=1.0, mu2sq=0.0, p=2.0)
    base = weighted_lq(g, f, p, sigma, 0.5, 2.0)
    assert weighted_lq(g, scale * f, p, sigma, 0.5, 2.0) == pytest.approx(scale * base, rel=1e-12)
    base_q = weighted_lq(g, f, p, sigma, 0.5, 3.0)
    assert weighted_lq(g, scale * f, p, sigma, 0.5, 3.0) == pytest.approx(scale * base_q, rel=1e-12)


def test_frame_then_integral_linear_in_u():
    g = make_radial_grid(1, 15.0, 0.01)
    p = ModelParams(n=1, mu1=5.0, mu2sq=1.75, p=2.0)
    u1 = np.exp(-g.r**2)
    u2 = np.exp(-((g.r - 1.0) ** 2)) + np.exp(-((g.r + 1.0) ** 2))
    t = 2.5
    lhs = integrate(g, to_comparison_frame(2.0 * u1 + 3.0 * u2, t, p))
    rhs = 2.0 * integrate(g, to_comparison_frame(u1, t, p)) + 3.0 * integrate(
        g, to_comparison_frame(u2, t, p)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)
