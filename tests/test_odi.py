import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scalewave.odi import (
    CHECK_CHUNK,
    STOP_BLOWUP,
    STOP_HORIZON,
    STOP_STEP_CAP,
    OdiProblem,
    OdiSolution,
    comparison_check,
    comparison_function,
    integrate_odi,
    life_span,
    select_nu,
    solve,
)

STANDARD = OdiProblem(k0=4.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)


def random_problem(rng, force_alpha=None):
    return OdiProblem(
        k0=rng.uniform(0.5, 6.0),
        k1=rng.uniform(0.3, 5.0),
        alpha=force_alpha if force_alpha is not None else rng.uniform(-2.0, 0.0),
        p=rng.uniform(1.5, 4.0),
        f0=rng.uniform(0.3, 2.0),
        df0=rng.uniform(0.3, 2.0),
    )


class TestProblemValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            OdiProblem(k0=0.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        with pytest.raises(ValueError):
            OdiProblem(k0=1.0, k1=-1.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        with pytest.raises(ValueError):
            OdiProblem(k0=1.0, k1=1.0, alpha=-2.5, p=3.0, f0=1.0, df0=1.0)
        with pytest.raises(ValueError):
            OdiProblem(k0=1.0, k1=1.0, alpha=-2.0, p=1.0, f0=1.0, df0=1.0)
        with pytest.raises(ValueError):
            OdiProblem(k0=1.0, k1=1.0, alpha=-2.0, p=3.0, f0=0.0, df0=1.0)
        with pytest.raises(ValueError):
            OdiProblem(k0=1.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0, df0=0.0)


class TestSelectNu:
    def test_standard_case_quadratic_root_oracle(self):
        # 2 nu^2 + 3 nu - 1 = 0 has positive root (-3 + sqrt(17))/4, below
        # the slope bound 1; selection takes 0.9 times it
        nu = select_nu(STANDARD)
        oracle = 0.9 * (-3.0 + math.sqrt(17.0)) / 4.0
        assert nu == pytest.approx(oracle, rel=1e-12)
        assert nu == pytest.approx(0.25270, abs=1e-4)

    def test_huge_source_hits_slope_bound(self):
        prob = OdiProblem(k0=4.0, k1=1e9, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        assert select_nu(prob) == pytest.approx(0.9 * 1.0, rel=1e-9)

    def test_constraints_hold_by_substitution(self):
        rng = np.random.default_rng(2)
        for k in range(50):
            prob = random_problem(rng, force_alpha=-2.0 if k % 4 == 0 else None)
            nu = select_nu(prob)
            a = 0.5 * (prob.p + 1.0)
            b = (prob.alpha + 1.0 + prob.k0) * prob.f0 ** (-0.5 * (prob.p - 1.0))
            assert nu * (a * nu + b) < prob.k1
            assert nu * prob.f0 ** (0.5 * (prob.p + 1.0)) < prob.df0

    def test_zero_source_rejected(self):
        prob = OdiProblem(k0=4.0, k1=0.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        with pytest.raises(ValueError):
            select_nu(prob)

    @pytest.mark.parametrize("field, value", [
        ("k0", 1e308), ("alpha", 1e308), ("p", 1e308), ("df0", 5e-324)])
    def test_margin_past_the_float_range_rejected(self, field, value):
        # b*b overflows or the slope bound underflows, and the nu formed breaks a
        # constraint: a ValueError, which ``python -O`` keeps, unlike an assert
        prob = dataclasses.replace(STANDARD, **{field: value})
        with pytest.raises(ValueError, match="no margin parameter"):
            select_nu(prob)


class TestLifeSpan:
    def test_log_case_example(self):
        # p=3, alpha=-2, f0=1, nu=0.5 -> exp(2/(2*0.5)) - 1 = e^2 - 1
        prob = OdiProblem(k0=4.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        assert life_span(prob, 0.5) == pytest.approx(math.e**2 - 1.0, rel=1e-12)

    def test_power_case_example(self):
        # p=3, alpha=-1, f0=1, nu=1 -> (2*1/(2*1) + 1)^1 - 1 = 1
        prob = OdiProblem(k0=4.0, k1=1.0, alpha=-1.0, p=3.0, f0=1.0, df0=1.0)
        assert life_span(prob, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_in_nu(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            prob = random_problem(rng, force_alpha=-2.0 if k % 3 == 0 else None)
            assert life_span(prob, 0.2) > life_span(prob, 0.4)

    def test_continuity_at_log_branch(self):
        for prob_base in (STANDARD, OdiProblem(k0=2.0, k1=3.0, alpha=-2.0, p=2.2, f0=0.7, df0=1.3)):
            nu = select_nu(prob_base)
            shifted = OdiProblem(k0=prob_base.k0, k1=prob_base.k1, alpha=-2.0 + 1e-6,
                                 p=prob_base.p, f0=prob_base.f0, df0=prob_base.df0)
            t_log = life_span(prob_base, nu)
            t_pow = life_span(shifted, nu)
            assert abs(t_pow - t_log) / t_log <= 1e-4


class TestComparisonFunction:
    def test_initial_value(self):
        nu = select_nu(STANDARD)
        assert comparison_function(STANDARD, nu, 0.0) == pytest.approx(1.0)

    def test_domain_error_beyond_life_span(self):
        nu = select_nu(STANDARD)
        t0 = life_span(STANDARD, nu)
        with pytest.raises(ValueError, match="life span"):
            comparison_function(STANDARD, nu, t0 * 1.001)
        with pytest.raises(ValueError):
            comparison_function(STANDARD, nu, -0.1)

    def test_divergence_near_life_span(self):
        nu = select_nu(STANDARD)
        t0 = life_span(STANDARD, nu)
        assert comparison_function(STANDARD, nu, t0 * (1.0 - 1e-6)) > 1e3 * STANDARD.f0

    def test_increasing(self):
        nu = select_nu(STANDARD)
        t0 = life_span(STANDARD, nu)
        ts = np.linspace(0.0, 0.999 * t0, 200)
        vals = comparison_function(STANDARD, nu, ts)
        assert np.all(np.diff(vals) > 0.0)

    def test_matches_adaptive_integration(self):
        rng = np.random.default_rng(4)
        for k in range(20):
            prob = random_problem(rng, force_alpha=-2.0 if k % 5 == 0 else None)
            nu = select_nu(prob)
            t_end = 0.9 * life_span(prob, nu)
            sol = solve_ivp(
                lambda t, y: [nu * (1.0 + t) ** (prob.alpha + 1.0) * y[0] ** (0.5 * (prob.p + 1.0))],
                (0.0, t_end), [prob.f0], rtol=1e-12, atol=1e-14, dense_output=True,
            )
            ts = np.linspace(0.0, t_end, 50)
            closed = comparison_function(prob, nu, ts)
            adaptive = sol.sol(ts)[0]
            assert np.max(np.abs(closed - adaptive) / np.abs(adaptive)) <= 1e-8


class TestIntegrateOdi:
    def test_zero_source_linear_oracle(self):
        # k1 = 0: F' = df0 (1+t)^(-k0), so F = f0 + df0 ((1+t)^(1-k0) - 1)/(1-k0)
        prob = OdiProblem(k0=4.0, k1=0.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        t, f, blow = integrate_odi(prob, dt=1e-3, t_max=5.0)
        assert blow is None
        exact = 1.0 + (1.0 - (1.0 + t) ** (-3.0)) / 3.0
        assert np.max(np.abs(f - exact)) <= 1e-6
        assert np.max(f) <= 1.0 + 1.0 / 3.0 + 1e-9  # f0 + df0/(k0-1)

    def test_blowup_earlier_for_larger_slope(self):
        base = dict(k0=4.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0)
        _, _, blow_small = integrate_odi(OdiProblem(df0=0.5, **base), dt=1e-3, t_max=500.0)
        _, _, blow_large = integrate_odi(OdiProblem(df0=5.0, **base), dt=1e-3, t_max=500.0)
        assert blow_small is not None and blow_large is not None
        assert blow_large < blow_small

    def test_trajectory_holds_float64_buffers(self):
        # 8 bytes a step for F (a list of float objects holds 32; F' is not kept), and
        # 8 for the times, summed in place, plus the slack of F's last regrowth:
        # 16.4 a step measured, within 17
        steps = 20_000
        slow = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        # a short untraced run first, as in test_solve_and_check_hold_16_bytes_a_step:
        # without it the traced run is several times slower
        integrate_odi(slow, dt=1e-3, t_max=1e3, max_steps=500)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            t, f, blow = integrate_odi(slow, dt=1e-3, t_max=1e3, max_steps=steps)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert blow is None and t.size == f.size == steps + 1
        assert f.dtype == np.float64
        assert peak <= 17 * steps

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            integrate_odi(STANDARD, dt=0.0, t_max=5.0)


class TestComparisonCheck:
    def test_standard_case(self):
        rep = comparison_check(solve(STANDARD))
        assert rep.passed and rep.worst <= 1e-6

    def test_source_scaled_up(self):
        prob = OdiProblem(k0=4.0, k1=10.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        rep = comparison_check(solve(prob))
        assert rep.passed

    def test_random_cases(self):
        rng = np.random.default_rng(6)
        for k in range(20):
            prob = random_problem(rng, force_alpha=-2.0 if k % 5 == 0 else None)
            rep = comparison_check(solve(prob))
            assert rep.passed, (prob, rep.worst, rep.notes)

    def test_equality_limit_matches_comparison_function(self):
        # integrating the comparison ODE itself reproduces the closed form
        nu = select_nu(STANDARD)
        t0 = life_span(STANDARD, nu)

        def rhs(t, y):
            return [nu * (1.0 + t) ** (STANDARD.alpha + 1.0) * y[0] ** (0.5 * (STANDARD.p + 1.0))]

        sol = solve_ivp(rhs, (0.0, 0.8 * t0), [STANDARD.f0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        ts = np.linspace(0.0, 0.8 * t0, 100)
        assert np.max(np.abs(sol.sol(ts)[0] - comparison_function(STANDARD, nu, ts))
                      / comparison_function(STANDARD, nu, ts)) <= 1e-8


# The dominance check's deficit as it stood, over the whole prefix at once, kept
# as the bitwise reference for the chunked maximum: (samples checked, worst).
def reference_deficit(solution):
    blowup_time = solution.blowup_time
    limit = solution.life_span if blowup_time is None else min(blowup_time, solution.life_span)
    mask = solution.t < limit * (1.0 - 1e-12)
    g = solution.comparison_at(solution.t[mask])
    f = solution.f[mask]
    return int(mask.sum()), np.max((g - f) / g)


def hand_built(problem, t, f=None, blowup_time=None, stop=STOP_STEP_CAP):
    """A solution whose trajectory is given: by default G itself, 1e-9 short at every
    third sample, wherever G is defined."""
    nu = select_nu(problem)
    span = life_span(problem, nu)
    if f is None:
        f = np.ones_like(t)
        inside = t < span * (1.0 - 1e-12)
        f[inside] = comparison_function(problem, nu, t[inside])
        f[::3] *= 1.0 - 1e-9
    return OdiSolution(problem=problem, nu=nu, life_span=span, t=t, f=f,
                       blowup_time=blowup_time, stop=stop)


class TestChunkedComparisonCheck:
    SPAN = life_span(STANDARD, select_nu(STANDARD))

    @staticmethod
    def assert_matches_reference(solution):
        rep = comparison_check(solution)
        n_ref, worst_ref = reference_deficit(solution)
        assert rep.n_cases == n_ref
        assert np.float64(rep.worst).tobytes() == np.float64(worst_ref).tobytes()
        return rep

    @pytest.mark.parametrize("samples", [1, 100, CHECK_CHUNK - 1, CHECK_CHUNK, CHECK_CHUNK + 1,
                                         3 * CHECK_CHUNK, 3 * CHECK_CHUNK + 17])
    def test_prefix_of_any_length(self, samples):
        # every sample lies before the life span: the prefix is the whole trajectory
        t = np.linspace(0.0, 0.9 * self.SPAN, samples)
        rep = self.assert_matches_reference(hand_built(STANDARD, t))
        assert rep.n_cases == samples and rep.worst == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("cut", [17, CHECK_CHUNK, 2 * CHECK_CHUNK + 1000])
    def test_blowup_inside_a_chunk(self, cut):
        # the trajectory blows up before the life span, between two samples; the
        # samples past it fall short of G by far more, and must not count
        t = np.linspace(0.0, 0.5 * self.SPAN, 3 * CHECK_CHUNK)
        solution = hand_built(STANDARD, t, blowup_time=0.5 * (t[cut - 1] + t[cut]),
                              stop=STOP_BLOWUP)
        solution.f[cut:] *= 0.5
        rep = self.assert_matches_reference(solution)
        assert rep.n_cases == cut and rep.worst < 1e-6

    def test_life_span_cuts_a_step_cap_trajectory(self):
        # a trajectory carried past the life span without blowing up is checked up to it
        t = np.linspace(0.0, 1.4 * self.SPAN, 3 * CHECK_CHUNK)
        rep = self.assert_matches_reference(hand_built(STANDARD, t))
        assert rep.n_cases == np.count_nonzero(t < self.SPAN * (1.0 - 1e-12)) > 2 * CHECK_CHUNK

    def test_solved_step_cap_trajectory(self):
        sol = solve(OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0),
                    max_steps=2 * CHECK_CHUNK + 5)
        assert sol.stop == STOP_STEP_CAP
        assert self.assert_matches_reference(sol).n_cases == 2 * CHECK_CHUNK + 6

    def test_overflowing_comparison_function_gives_nan(self):
        # at p = 1.01 G = h^-200 overflows to inf well before the life span, and
        # (inf - F)/inf is NaN in the last chunk; numpy warns of both
        problem = OdiProblem(k0=4.0, k1=1.0, alpha=-1.0, p=1.01, f0=1.0, df0=1.0)
        nu = select_nu(problem)
        span = life_span(problem, nu)
        t = np.linspace(0.0, 0.9999 * span, 3 * CHECK_CHUNK)
        solution = hand_built(problem, t, f=np.ones_like(t))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(solution.comparison_at(t[-1]))
            assert np.isfinite(solution.comparison_at(t[-CHECK_CHUNK]))
            assert math.isnan(self.assert_matches_reference(solution).worst)

    def test_nan_in_an_early_chunk_survives_later_chunks(self):
        t = np.linspace(0.0, 0.9 * self.SPAN, 3 * CHECK_CHUNK)
        solution = hand_built(STANDARD, t)
        solution.f[10] = math.nan
        assert math.isnan(self.assert_matches_reference(solution).worst)

    def test_empty_prefix_is_rejected_as_before(self):
        solution = hand_built(STANDARD, np.linspace(0.0, 1.0, 5), blowup_time=0.0,
                              stop=STOP_BLOWUP)
        with pytest.raises(ValueError, match="zero-size array"):
            reference_deficit(solution)
        with pytest.raises(ValueError, match="zero-size array"):
            comparison_check(solution)

    def test_solve_and_check_hold_16_bytes_a_step(self):
        # F and the times, 8 bytes a step each, and the slack of F's last regrowth
        # (16.97 a step measured); the check's slices add a fixed amount.  With the
        # prefix's temporaries formed whole, the peak was 41.5 a step.
        steps = 200_000
        problem = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        # a short untraced run first: without it the traced run took about 18 s, not 2
        solve(problem, max_steps=500)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = solve(problem, max_steps=steps)
            rep = comparison_check(sol)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sol.stop == STOP_STEP_CAP and rep.n_cases == steps + 1
        assert peak <= 17 * steps + 8 * (8 * CHECK_CHUNK)


class TestSolve:
    def test_step_cap_is_reported_as_such(self):
        # a life span of 1.2e145 puts the horizon far past any step cap
        prob = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        sol = solve(prob, max_steps=1000)
        assert sol.blowup_time is None and sol.stop == STOP_STEP_CAP
        assert sol.t.size == 1001 and sol.t[-1] < 10.0 * sol.life_span
        assert comparison_check(sol).notes[-1] == "trajectory blow-up at none (step cap reached)"
        # the horizon is reported as the horizon
        reached = dataclasses.replace(sol, stop=STOP_HORIZON)
        assert comparison_check(reached).notes[-1] == (
            "trajectory blow-up at none (horizon reached)")

    def test_blowup_is_reported_as_such(self):
        sol = solve(STANDARD)
        assert sol.stop == STOP_BLOWUP
        assert comparison_check(sol).notes[-1] == f"trajectory blow-up at {sol.blowup_time:.12g}"

    def test_solution_bundle(self):
        sol = solve(STANDARD)
        assert sol.nu == pytest.approx(select_nu(STANDARD))
        assert sol.blowup_time is not None
        assert sol.blowup_time <= sol.life_span  # dominance forces earlier blow-up
        assert sol.t.size == sol.f.size
        assert sol.comparison_at(0.0) == pytest.approx(STANDARD.f0)


# The RK4 loop as it stood before its coefficients were computed once per
# distinct time, kept as the bitwise reference for integrate_odi; F' is carried
# but, as there, not returned.
def _acceleration(problem: OdiProblem, t: float, f: float, df: float) -> float:
    try:
        source = problem.k1 * (1.0 + t) ** problem.alpha * abs(f) ** problem.p
    except OverflowError:
        # a stage value already left the float range: the step is blowing up
        source = math.inf
    return -problem.k0 / (1.0 + t) * df + source


def reference_integrate_odi(problem, dt, t_max, cutoff=1e12, max_steps=20_000_000):
    ts = [0.0]
    fs = [problem.f0]
    t, f, df = 0.0, problem.f0, problem.df0
    blowup_time = None
    steps = 0
    while t < t_max and steps < max_steps:
        steps += 1
        k1f = df
        k1d = _acceleration(problem, t, f, df)
        k2f = df + 0.5 * dt * k1d
        k2d = _acceleration(problem, t + 0.5 * dt, f + 0.5 * dt * k1f, k2f)
        k3f = df + 0.5 * dt * k2d
        k3d = _acceleration(problem, t + 0.5 * dt, f + 0.5 * dt * k2f, k3f)
        k4f = df + dt * k3d
        k4d = _acceleration(problem, t + dt, f + dt * k3f, k4f)
        f = f + dt / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        df = df + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        t = t + dt
        if not (math.isfinite(f) and math.isfinite(df)) or f > cutoff:
            blowup_time = t
            break
        ts.append(t)
        fs.append(f)
    return np.array(ts), np.array(fs), blowup_time


OVERFLOWING = OdiProblem(k0=1.0, k1=1.0, alpha=0.0, p=4.0, f0=1.0, df0=1.0)


class TestRk4KernelBitwise:
    CASES = {
        "standard": (STANDARD, dict(dt=1e-3)),
        "alpha=-2": (OdiProblem(k0=1.5, k1=2.0, alpha=-2.0, p=2.5, f0=0.5, df0=0.7), dict(dt=1e-2)),
        "alpha=0": (OdiProblem(k0=2.0, k1=0.5, alpha=0.0, p=2.0, f0=0.8, df0=0.4), dict(dt=1e-2)),
        "alpha=-1.3": (OdiProblem(k0=0.7, k1=3.1, alpha=-1.3, p=3.7, f0=0.4, df0=1.9), dict(dt=3e-3)),
        "k1=0": (OdiProblem(k0=4.0, k1=0.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0),
                 dict(dt=1e-2, t_max=20.0)),
        "t_max cut": (STANDARD, dict(dt=7e-3, t_max=2.5)),
        "max_steps cut": (STANDARD, dict(dt=1e-3, max_steps=1234)),
        "overflow exit": (OVERFLOWING, dict(dt=0.01, t_max=10.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_reference_loop_bitwise(self, name):
        problem, kwargs = self.CASES[name]
        if "t_max" not in kwargs:  # solve's horizon, 10 life spans
            kwargs = {**kwargs, "t_max": 10.0 * life_span(problem, select_nu(problem))}
        # each step forms F from the F' before it, so F's bits check every F'
        # but the last, whose finiteness the blow-up time checks
        t, f, blow = integrate_odi(problem, **kwargs)
        t_ref, f_ref, blow_ref = reference_integrate_odi(problem, **kwargs)
        assert t.tobytes() == t_ref.tobytes()
        assert f.tobytes() == f_ref.tobytes()
        assert blow == blow_ref

    def test_cut_offs_stop_where_documented(self):
        t, _, blow = integrate_odi(STANDARD, dt=7e-3, t_max=2.5)
        assert blow is None and t[-2] < 2.5 <= t[-1]
        t, _, blow = integrate_odi(STANDARD, dt=1e-3, t_max=1e3, max_steps=1234)
        assert blow is None and t.size == 1235

    def test_stage_overflow_ends_the_trajectory_one_step_on(self):
        # |F|^p overflows inside the step from t = 1.04; nothing of that step is kept
        t, f, blow = integrate_odi(OVERFLOWING, dt=0.01, t_max=10.0)
        assert t.size == f.size == 105
        assert blow == 1.0500000000000007
        assert blow == t[-1] + 0.01

