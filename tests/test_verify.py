import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scalewave.checks import CheckReport
from scalewave.errors import WeightOverflowError
from scalewave.grid import integrate, make_radial_grid
from scalewave.functionals import weighted_quadrature
from scalewave.model import ModelParams, weight_exponent, weight_exponent_dr
from scalewave.verify import (
    ManufacturedSolution,
    RadialProfile,
    bihari_check,
    check_dissipativity_signs,
    check_embeddings,
    check_energy_identity,
    check_weighted_gradient_bound,
    check_psi_identities,
    default_manufactured_solution,
    energy_identity_terms,
    gn_ratio_check,
    standard_family,
    _radial_laplacian,
)


def params(n=1, mu1=1.0, mu2sq=0.0, p=2.0):
    return ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=p)


class TestRadialProfile:
    def test_derivatives_match_finite_differences(self):
        prof = RadialProfile(amplitude=1.3, width=0.7, center=0.9, half_degree=2)
        r = np.linspace(0.05, 6.0, 200)
        h = 1e-5
        fd1 = (prof.value(r + h) - prof.value(r - h)) / (2.0 * h)
        fd2 = (prof.value(r + h) - 2.0 * prof.value(r) + prof.value(r - h)) / h**2
        scale1 = np.max(np.abs(fd1))
        scale2 = np.max(np.abs(fd2))
        _, d1, d2 = prof.jet(r)
        assert np.max(np.abs(d1 - fd1)) <= 1e-8 * scale1
        assert np.max(np.abs(d2 - fd2)) <= 1e-4 * scale2

    def test_even_at_origin(self):
        prof = RadialProfile(amplitude=2.0, width=0.5, center=1.1, half_degree=0)
        assert prof.jet(0.0)[1] == pytest.approx(0.0, abs=1e-14)

    def test_origin_laplacian_limit(self):
        # the radial Laplacian that ManufacturedSolution and the psi identities use
        prof = RadialProfile(amplitude=1.0, width=0.8, center=0.6)
        eps = 1e-7
        for n in (1, 2, 3):
            at_zero = _radial_laplacian(0.0, *prof.jet(0.0)[1:], n)
            near_zero = _radial_laplacian(eps, *prof.jet(eps)[1:], n)
            assert at_zero == pytest.approx(near_zero, rel=1e-5)

    def test_dilate_is_exact_rescaling(self):
        prof = RadialProfile(amplitude=1.5, width=0.5, center=0.8, half_degree=3)
        lam = 3.7
        r = np.linspace(0.0, 20.0, 400)
        assert prof.dilate(lam).value(r) == pytest.approx(prof.value(r / lam), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    def test_standard_family_size_and_support(self, seed):
        # the documented claim: every member's tail stays below 1e-14 beyond r = 8
        family = standard_family(seed=seed)
        assert len(family) == 50
        r = np.linspace(8.0, 30.0, 2201)
        assert max(np.max(np.abs(m.value(r))) for m in family) <= 1e-14


class ReferenceProfile(RadialProfile):
    """The closed-form derivatives as separate methods, one Gaussian pair per call.

    A verbatim copy of the per-derivative implementation that ``jet``
    replaced; the jet must reproduce it bit for bit.
    """

    def _g(self, s):
        return np.exp(-((s / self.width) ** 2))

    def _g1(self, s):
        return -2.0 * s / self.width**2 * self._g(s)

    def _g2(self, s):
        return (-2.0 / self.width**2 + 4.0 * s**2 / self.width**4) * self._g(s)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        return self.amplitude * r ** (2 * m) * pair

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        pair1 = self._g1(r - self.center) + self._g1(r + self.center)
        out = r ** (2 * m) * pair1
        if m > 0:
            out = out + 2 * m * r ** (2 * m - 1) * pair
        return self.amplitude * out

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        m = self.half_degree
        pair = self._g(r - self.center) + self._g(r + self.center)
        pair1 = self._g1(r - self.center) + self._g1(r + self.center)
        pair2 = self._g2(r - self.center) + self._g2(r + self.center)
        out = r ** (2 * m) * pair2
        if m > 0:
            out = out + 4 * m * r ** (2 * m - 1) * pair1
            out = out + 2 * m * (2 * m - 1) * r ** (2 * m - 2) * pair
        return self.amplitude * out


class TestJetBitwise:
    POINTS = {
        "array": np.linspace(0.0, 7.0, 701),
        "scalar": 1.2345678901234567,
        "axis": 0.0,
    }

    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("center", [0.0, 0.37, 1.1])
    @pytest.mark.parametrize("half_degree", [0, 1, 2, 3, 4])
    def test_matches_separate_derivatives(self, half_degree, center, point):
        kwargs = dict(amplitude=1.7, width=0.55, center=center, half_degree=half_degree)
        ref = ReferenceProfile(**kwargs)
        r = self.POINTS[point]
        jet = RadialProfile(**kwargs).jet(r)
        expected = (ref.value(r), ref.derivative(r), ref.second_derivative(r))
        for got, want in zip(jet, expected):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_value_is_the_jets_first_entry(self):
        prof = RadialProfile(amplitude=0.8, width=0.7, center=0.9, half_degree=3)
        r = np.linspace(0.0, 7.0, 701)
        assert prof.value(r).tobytes() == prof.jet(r)[0].tobytes()


class TestCheckReportVerdict:
    def test_passed_follows_worst_and_tolerance(self):
        assert CheckReport("c", 1, worst=1e-3, tolerance=1e-3).passed
        assert not CheckReport("c", 1, worst=2e-3, tolerance=1e-3).passed
        assert CheckReport("c", 1, worst=-math.inf, tolerance=0.0).passed

    def test_non_finite_worst_fails_unless_skipped(self):
        assert not CheckReport("c", 1, worst=math.inf, tolerance=0.05).passed
        assert not CheckReport("c", 1, worst=math.nan, tolerance=0.05).passed
        skipped = CheckReport("c", 0, worst=math.nan, tolerance=1.01, skipped=True)
        assert skipped.passed and skipped.to_dict()["passed"] is True

    def test_verdict_is_not_a_constructor_field(self):
        with pytest.raises(TypeError):
            CheckReport("c", 1, worst=0.0, tolerance=1.0, passed=False)


class TestPsiIdentities:
    def test_examples(self):
        # mu1=4, n=1, t=0, |x|^2=1: gradient term 16 cancels damping term -16
        rep = check_psi_identities(params(n=1, mu1=4.0), np.array([0.0]), np.array([1.0]))
        assert rep.passed and rep.worst <= 1e-12

    def test_origin_is_trivial(self):
        rep = check_psi_identities(params(n=2, mu1=2.0), np.array([1.0]), np.array([0.0]))
        assert rep.passed

    def test_random_cloud(self):
        rng = np.random.default_rng(0)
        rep = check_psi_identities(
            params(n=3, mu1=2.5, mu2sq=1.0),
            rng.uniform(0.0, 10.0, 1000),
            rng.uniform(0.0, 5.0, 1000),
        )
        assert rep.passed and rep.n_cases == 3000


class TestDissipativitySigns:
    def test_closed_form_signs(self):
        rng = np.random.default_rng(1)
        rep = check_dissipativity_signs(
            params(mu1=3.0, mu2sq=2.0), rng.uniform(0, 10, 100), rng.uniform(0, 5, 100)
        )
        assert rep.passed and rep.worst <= 0.0


class TestEnergyIdentity:
    def test_zero_solution(self):
        ms = ManufacturedSolution(
            time_value=lambda t: 0.0, time_d1=lambda t: 0.0, time_d2=lambda t: 0.0,
            profile=RadialProfile(),
        )
        lhs, terms = energy_identity_terms(ms, params(mu1=2.0, mu2sq=1.0), 1.0, 1.0)
        assert lhs == 0.0 and terms["rhs"] == 0.0

    def test_analytic_residual_and_cancellation(self):
        rng = np.random.default_rng(5)
        ms = default_manufactured_solution()
        pts = list(zip(rng.uniform(0.0, 5.0, 100), rng.uniform(0.1, 3.0, 100)))
        for mu2sq in (0.0, 1.0):
            rep = check_energy_identity(ms, params(n=2, mu1=2.0, mu2sq=mu2sq), pts)
            assert rep.passed and rep.worst <= 1e-10

    def test_axis_points_skipped(self):
        ms = default_manufactured_solution()
        rep = check_energy_identity(ms, params(mu1=2.0), [(1.0, 0.0), (1.0, 1.0)])
        assert rep.n_cases == 1 and any("skipped" in note for note in rep.notes)

    def test_vanishing_damping_rejected(self):
        ms = default_manufactured_solution()
        with pytest.raises(ValueError, match="mu1"):
            energy_identity_terms(ms, params(mu1=0.0), 1.0, 1.0)

    def test_finite_difference_residual_is_second_order(self):
        # replacing the outer time derivative and divergence with centered
        # differences of the composite density/flux makes the residual O(h^2)
        from scalewave.model import coefficients, weight_exponent

        ms = default_manufactured_solution()
        p = params(n=2, mu1=2.0, mu2sq=1.0)

        def density(t, r):
            w = weight_exponent(p, t, r * r)
            _, m_sq = coefficients(p, t)
            u, u_t, _, u_r, _, _, _ = ms.partials(t, r, p.n)
            return 0.5 * math.exp(2.0 * w) * (u_t**2 + u_r**2 + m_sq * u**2)

        def flux(t, r):
            w = weight_exponent(p, t, r * r)
            _, u_t, _, u_r, _, _, _ = ms.partials(t, r, p.n)
            return math.exp(2.0 * w) * u_t * u_r

        def worst_residual(h):
            worst = 0.0
            for t, r in ((0.7, 0.8), (1.9, 1.4), (3.1, 2.2)):
                lhs, terms = energy_identity_terms(ms, p, t, r)
                d_t = (density(t + h, r) - density(t - h, r)) / (2.0 * h)
                div = (flux(t, r + h) - flux(t, r - h)) / (2.0 * h) + (p.n - 1) / r * flux(t, r)
                rhs = d_t - div + terms["t3"] - terms["t4"] - terms["t5"] - terms["t6"]
                scale = max(abs(lhs), abs(d_t), abs(div), 1e-300)
                worst = max(worst, abs(lhs - rhs) / scale)
            return worst

        coarse, fine = worst_residual(1e-3), worst_residual(5e-4)
        assert coarse / fine >= 3.0  # observed order >= log2(3) ~ 1.58


@pytest.fixture(scope="module")
def family():
    return standard_family(seed=3)


class TestWeightedGradientBound:
    def test_family_passes(self, family):
        for n in (1, 2, 3):
            grid = make_radial_grid(n, 40.0, 0.02)
            rep = check_weighted_gradient_bound(
                family, params(n=n, mu1=1.0), (0.25, 0.5, 1.0), (0.0, 1.0, 4.0, 9.0), grid
            )
            assert rep.passed and rep.worst <= 1.01

    def test_vanishing_damping_limit_is_equality(self, family):
        grid = make_radial_grid(1, 40.0, 0.02)
        rep = check_weighted_gradient_bound(family[:5], params(mu1=0.0), (1.0,), (0.0,), grid)
        assert rep.worst == pytest.approx(1.0, abs=1e-12)

    def test_zero_profile_trivial(self):
        grid = make_radial_grid(1, 40.0, 0.05)
        silent = RadialProfile(amplitude=0.0)
        rep = check_weighted_gradient_bound([silent], params(), (0.5,), (0.0,), grid)
        assert rep.n_cases == 0  # 0 <= 0 carries no ratio information


class CountingProfile:
    """A family member that counts its grid evaluations."""

    def __init__(self, profile):
        self.profile = profile
        self.calls = {"value": 0, "jet": 0}

    def value(self, r):
        self.calls["value"] += 1
        return self.profile.value(r)

    def jet(self, r):
        self.calls["jet"] += 1
        return self.profile.jet(r)


# The weighted gradient check as it stood with every member's jet held at once and
# the (sigma, t) cases outside, kept as the reference for its member-outer loop.
def reference_weighted_gradient_bound(family, params, sigmas, times, grid):
    worst = -math.inf
    n_cases = 0
    notes = []
    profiles = [member.jet(grid.r)[:2] for member in family]
    for sigma in sigmas:
        for t in times:
            expo = 2.0 * sigma * weight_exponent(params, t, grid.r**2)
            w_r = weight_exponent_dr(params, t, grid.r)
            for k, (v, v_r) in enumerate(profiles):
                try:
                    lhs_norm_sq = weighted_quadrature(grid, expo, v * v)
                    grad_weighted = weighted_quadrature(grid, expo, (sigma * w_r * v + v_r) ** 2)
                    rhs = weighted_quadrature(grid, expo, v_r * v_r)
                except WeightOverflowError:
                    notes.append(f"skipped member {k} at sigma={sigma}, t={t}: weight overflow")
                    continue
                lhs = sigma * params.mu1 * params.n / (1.0 + t) ** 2 * lhs_norm_sq + grad_weighted
                if rhs <= 0.0:
                    continue
                worst = max(worst, lhs / rhs)
                n_cases += 1
    return CheckReport("weighted-gradient-domination", n_cases, worst, 1.01, notes)


class TestWeightedGradientBoundEvaluation:
    def test_each_member_evaluated_once(self, family):
        grid = make_radial_grid(2, 40.0, 0.05)
        counted = [CountingProfile(member) for member in family[:4]]
        args = (params(n=2, mu1=1.0), (0.25, 0.5, 1.0), (0.0, 1.0, 4.0, 9.0), grid)
        rep = check_weighted_gradient_bound(counted, *args)
        assert [m.calls for m in counted] == [{"value": 0, "jet": 1}] * 4
        assert rep.to_dict() == check_weighted_gradient_bound(family[:4], *args).to_dict()
        assert rep.n_cases == 4 * 12

    @pytest.mark.parametrize("mu1", [4.0, 12.0, 40.0])
    def test_matches_the_all_jets_loop(self, family, mu1):
        # mu1 = 12 and 40 skip 40 and 158 cases with overflow notes: the member-outer
        # loop must give the same ratio, count and notes in the same order
        grid = make_radial_grid(1, 40.0, 0.05)
        args = (params(mu1=mu1), (0.25, 0.5, 1.0), (0.0, 1.0, 4.0, 9.0), grid)
        rep = check_weighted_gradient_bound(family, *args)
        assert rep.to_dict() == reference_weighted_gradient_bound(family, *args).to_dict()
        assert (len(rep.notes) > 0) == (mu1 > 4.0)

class TestEmbeddings:
    def test_family_passes(self, family):
        for n in (1, 2, 3):
            grid = make_radial_grid(n, 40.0, 0.02)
            for sigma in (0.25, 0.5, 1.0):
                for t in (0.0, 1.0, 4.0, 9.0):
                    rep = check_embeddings(family, params(n=n, mu1=1.0), sigma, t, grid)
                    assert rep.passed, (n, sigma, t, rep.worst)

    def test_cauchy_schwarz_tightness(self):
        # e^{sigma W} f proportional to the Gaussian dual weight makes the
        # L1 bound sharp: mu1=2, sigma=1, t=0 gives W = r^2, f = e^{-2r^2}.
        # Marginal decay: r_max must keep the weight exponent within budget.
        grid = make_radial_grid(1, 15.0, 0.01)
        p = params(mu1=2.0)
        f = np.exp(-2.0 * grid.r**2)
        l1 = integrate(grid, np.abs(f))
        from scalewave.functionals import weighted_lq

        wl2 = weighted_lq(grid, f, p, 1.0, 0.0, 2.0)
        const = (math.pi / 2.0) ** 0.25
        assert l1 / (const * wl2) >= 0.99

    def test_zero_damping_skipped(self, family):
        grid = make_radial_grid(1, 40.0, 0.05)
        rep = check_embeddings(family, params(mu1=0.0), 0.5, 0.0, grid)
        assert rep.skipped and rep.passed

    @pytest.mark.parametrize("sigma", [0.0, -0.5, 1.5])
    def test_sigma_outside_unit_interval_rejected(self, family, sigma):
        grid = make_radial_grid(1, 10.0, 0.1)
        with pytest.raises(ValueError, match="sigma must lie in"):
            check_embeddings(family, params(mu1=1.0), sigma, 0.0, grid)


class TestGnRatio:
    def test_spread_stable_across_times(self, family):
        grid = make_radial_grid(1, 160.0, 0.04)
        for sigma, q in ((1.0, 2.0), (0.5, 4.0)):
            rep = gn_ratio_check(family, params(mu1=1.0), sigma, q, (0.0, 1.0, 4.0, 9.0), grid)
            assert rep.passed and rep.worst <= 0.05

    def test_ratio_scale_invariant_in_amplitude(self):
        # both sides are 1-homogeneous, so a rescaled member gives the same ratio
        grid = make_radial_grid(1, 160.0, 0.04)
        p = params(mu1=1.0)
        base = RadialProfile(amplitude=1.0, width=0.6, center=0.5)
        scaled = RadialProfile(amplitude=37.0, width=0.6, center=0.5)
        r1 = gn_ratio_check([base], p, 0.5, 2.0, (0.0, 4.0), grid)
        r2 = gn_ratio_check([scaled], p, 0.5, 2.0, (0.0, 4.0), grid)
        for n1, n2 in zip(r1.notes, r2.notes):
            v1 = float(n1.split(":")[-1])
            v2 = float(n2.split(":")[-1])
            assert v1 == pytest.approx(v2, rel=1e-10)

    def test_interpolation_exponent_domain(self, family):
        grid = make_radial_grid(1, 160.0, 0.04)
        with pytest.raises(ValueError):
            gn_ratio_check(family, params(), 0.5, 1.5, (0.0,), grid)  # theta < 0
        with pytest.raises(ValueError):
            gn_ratio_check(family, params(), 1.5, 2.0, (0.0,), grid)  # sigma > 1


class TestBihari:
    @staticmethod
    def sqrt2u(u):
        return math.sqrt(2.0 * max(u, 0.0))

    @staticmethod
    def antideriv(u):
        return math.sqrt(2.0 * max(u, 0.0))

    def test_zero_k_degenerate(self):
        times = np.linspace(0.0, 5.0, 101)
        rep = bihari_check(times, np.full_like(times, 2.0), np.zeros_like(times),
                           self.sqrt2u, 2.0, self.antideriv, tolerance=0.0)
        assert rep.passed and rep.worst <= 0.0

    def test_equality_case_constant_k(self):
        # y' = k sqrt(2y) with constant k: sqrt(2y) = sqrt(2M) + k t exactly
        times = np.linspace(0.0, 5.0, 2001)
        k = np.full_like(times, 0.3)
        y = 0.5 * (math.sqrt(2.0) + 0.3 * times) ** 2
        rep = bihari_check(times, y, k, self.sqrt2u, 1.0, self.antideriv, tolerance=1e-8)
        assert rep.passed
        assert abs(rep.worst) <= 1e-8  # equality within tolerance

    def test_equality_case_ode_oracle(self):
        # y' = k(t) g(y) integrated by a high-order adaptive oracle
        k_fun = lambda t: 1.0 / (1.0 + t)
        sol = solve_ivp(lambda t, y: [k_fun(t) * math.sqrt(2.0 * y[0])], (0.0, 5.0), [1.0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        times = np.linspace(0.0, 5.0, 40001)
        y = sol.sol(times)[0]
        rep = bihari_check(times, y, k_fun(times), self.sqrt2u, 1.0, self.antideriv,
                           tolerance=1e-8)
        assert rep.passed and abs(rep.worst) <= 1e-8

    def test_hypothesis_violation_reported(self):
        times = np.linspace(0.0, 2.0, 101)
        y = 1.0 + times  # grows with no k to support it
        rep = bihari_check(times, y, np.zeros_like(times), self.sqrt2u, 1.0, self.antideriv)
        assert not rep.passed and "hypothesis violated" in rep.notes

    def test_non_monotone_g_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        y = 1.0 + 0.1 * times  # spans a range so the probe can see g decrease
        with pytest.raises(ValueError):
            bihari_check(times, y, np.ones_like(times), lambda u: -u, 2.0, lambda u: u)

    def test_strict_bound_below_equality(self):
        # y smaller than the equality trajectory leaves slack in the conclusion
        times = np.linspace(0.0, 5.0, 2001)
        k = np.full_like(times, 0.3)
        y = 0.45 * (math.sqrt(2.0) + 0.3 * times) ** 2
        rep = bihari_check(times, y, k, self.sqrt2u, 1.0, self.antideriv, tolerance=1e-8)
        assert rep.passed and rep.worst < -1e-3


class TestOverflowHandling:
    def test_gradient_bound_notes_overflowing_member(self):
        # a very wide member on a big grid at t=0 with mu1 large overflows;
        # the case is skipped with a note instead of poisoning the report
        grid = make_radial_grid(1, 120.0, 0.05)
        wide = RadialProfile(amplitude=1.0, width=12.0, center=0.0)
        rep = check_weighted_gradient_bound([wide], params(mu1=4.0), (1.0,), (0.0,), grid)
        assert rep.n_cases == 0
        assert any("weight overflow" in note for note in rep.notes)

    def test_gn_ratio_overflow_raises(self):
        grid = make_radial_grid(1, 120.0, 0.05)
        wide = RadialProfile(amplitude=1.0, width=12.0, center=0.0)
        with pytest.raises(WeightOverflowError):
            gn_ratio_check([wide], params(mu1=4.0), 1.0, 2.0, (0.0,), grid)
