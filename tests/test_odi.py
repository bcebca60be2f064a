import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scalewave.odi import (
    CHECK_CHUNK,
    MAX_STEPS,
    STOP_BLOWUP,
    STOP_HORIZON,
    STOP_STEP_CAP,
    OdiProblem,
    _fold,
    _trajectory,
    comparison_check,
    comparison_function,
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


def integrate(problem, dt, t_max, max_steps=MAX_STEPS):
    """The chunks of ``_trajectory`` concatenated, and the blow-up time it returns.

    Every chunk but the last holds CHECK_CHUNK samples, and none is empty.
    """
    chunks = _trajectory(problem, dt, t_max, max_steps)
    ts, fs = [], []
    try:
        while True:
            t, f = next(chunks)
            ts.append(t)
            fs.append(f)
    except StopIteration as done:
        blowup_time = done.value
    assert all(t.size == CHECK_CHUNK for t in ts[:-1]) and 0 < ts[-1].size <= CHECK_CHUNK
    assert [f.size for f in fs] == [t.size for t in ts]
    return np.concatenate(ts), np.concatenate(fs), blowup_time


class TestTrajectory:
    def test_zero_source_linear_oracle(self):
        # k1 = 0: F' = df0 (1+t)^(-k0), so F = f0 + df0 ((1+t)^(1-k0) - 1)/(1-k0)
        prob = OdiProblem(k0=4.0, k1=0.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        t, f, blow = integrate(prob, dt=1e-3, t_max=5.0)
        assert blow is None
        exact = 1.0 + (1.0 - (1.0 + t) ** (-3.0)) / 3.0
        assert np.max(np.abs(f - exact)) <= 1e-6
        assert np.max(f) <= 1.0 + 1.0 / 3.0 + 1e-9  # f0 + df0/(k0-1)

    def test_blowup_earlier_for_larger_slope(self):
        base = dict(k0=4.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0)
        _, _, blow_small = integrate(OdiProblem(df0=0.5, **base), dt=1e-3, t_max=500.0)
        _, _, blow_large = integrate(OdiProblem(df0=5.0, **base), dt=1e-3, t_max=500.0)
        assert blow_small is not None and blow_large is not None
        assert blow_large < blow_small

    def test_chunks_are_float64_arrays(self):
        # F is a view of the chunk's own float64 buffer (a list of float objects
        # would hold 32 bytes a sample), and the times are float64 too
        slow = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        sizes = []
        for t, f in _trajectory(slow, dt=1e-3, t_max=1e3, max_steps=20_000):
            assert t.dtype == f.dtype == np.float64 and f.base is not None
            sizes.append(f.size)
        assert sizes == [CHECK_CHUNK] * 4 + [20_001 - 4 * CHECK_CHUNK]


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


# The dominance check's deficit as it stood, over the whole trajectory at once and
# cut at min(blow-up, life span), kept as the bitwise reference for the folded
# chunks: (samples checked, worst).
def reference_deficit(problem, t, f, blowup_time=None):
    nu = select_nu(problem)
    span = life_span(problem, nu)
    limit = span if blowup_time is None else min(blowup_time, span)
    mask = t < limit * (1.0 - 1e-12)
    g = comparison_function(problem, nu, t[mask])
    return int(mask.sum()), np.max((g - f[mask]) / g)


def fold_chunks(problem, t, f):
    """``_fold`` over CHECK_CHUNK slices of a hand-built trajectory, as ``solve``
    folds its chunks: (samples checked, worst)."""
    nu = select_nu(problem)
    cut = life_span(problem, nu) * (1.0 - 1e-12)
    worst, count = -math.inf, 0
    for start in range(0, t.size, CHECK_CHUNK):
        chunk = slice(start, start + CHECK_CHUNK)
        worst, count = _fold(problem, nu, cut, worst, count, t[chunk], f[chunk])
    return count, worst


def hand_built(problem, t):
    """F of a hand-built trajectory: G itself, 1e-9 short at every third sample,
    wherever G is defined, and 1 past the life span."""
    nu = select_nu(problem)
    span = life_span(problem, nu)
    f = np.ones_like(t)
    inside = t < span * (1.0 - 1e-12)
    f[inside] = comparison_function(problem, nu, t[inside])
    f[::3] *= 1.0 - 1e-9
    return f


class TestChunkedComparisonCheck:
    SPAN = life_span(STANDARD, select_nu(STANDARD))

    @staticmethod
    def assert_matches_reference(problem, t, f):
        count, worst = fold_chunks(problem, t, f)
        n_ref, worst_ref = reference_deficit(problem, t, f)
        assert count == n_ref
        assert np.float64(worst).tobytes() == np.float64(worst_ref).tobytes()
        return count, worst

    @pytest.mark.parametrize("samples", [1, 100, CHECK_CHUNK - 1, CHECK_CHUNK, CHECK_CHUNK + 1,
                                         3 * CHECK_CHUNK, 3 * CHECK_CHUNK + 17])
    def test_prefix_of_any_length(self, samples):
        # every sample lies before the life span: the prefix is the whole trajectory
        t = np.linspace(0.0, 0.9 * self.SPAN, samples)
        count, worst = self.assert_matches_reference(STANDARD, t, hand_built(STANDARD, t))
        assert count == samples and worst == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("cut", [17, CHECK_CHUNK, 2 * CHECK_CHUNK + 1000])
    def test_life_span_inside_a_chunk(self, cut):
        # the life span falls between samples cut - 1 and cut; G is not defined past
        # it, so the samples there must not count, nor their chunks be evaluated
        t = self.SPAN * np.arange(3 * CHECK_CHUNK) / (cut - 0.5)
        count, worst = self.assert_matches_reference(STANDARD, t, hand_built(STANDARD, t))
        assert count == cut and worst < 1e-6

    def test_life_span_cuts_a_step_cap_trajectory(self):
        # a trajectory carried past the life span without blowing up is checked up to it
        t = np.linspace(0.0, 1.4 * self.SPAN, 3 * CHECK_CHUNK)
        count, _ = self.assert_matches_reference(STANDARD, t, hand_built(STANDARD, t))
        assert count == np.count_nonzero(t < self.SPAN * (1.0 - 1e-12)) > 2 * CHECK_CHUNK

    @pytest.mark.parametrize("problem, max_steps", [
        (OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0), 2 * CHECK_CHUNK + 5),
        (STANDARD, MAX_STEPS),
    ], ids=["step cap", "blow-up"])
    def test_solved_trajectory(self, problem, max_steps):
        # solve's folded check against the reference loop's whole trajectory, cut at
        # min(blow-up, life span): the blow-up half of that cut removes no sample
        sol = solve(problem, max_steps=max_steps)
        t, f, blow = reference_integrate_odi(problem, min(1e-3, sol.life_span / 1e5),
                                             10.0 * sol.life_span, max_steps=max_steps)
        assert blow == sol.blowup_time
        n_ref, worst_ref = reference_deficit(problem, t, f, blow)
        assert sol.n_cases == n_ref == t.size
        assert np.float64(sol.worst).tobytes() == np.float64(worst_ref).tobytes()

    def test_overflowing_comparison_function_gives_nan(self):
        # at p = 1.01 G = h^-200 overflows to inf well before the life span, and
        # (inf - F)/inf is NaN in the last chunk; numpy warns of both
        problem = OdiProblem(k0=4.0, k1=1.0, alpha=-1.0, p=1.01, f0=1.0, df0=1.0)
        nu = select_nu(problem)
        span = life_span(problem, nu)
        t = np.linspace(0.0, 0.9999 * span, 3 * CHECK_CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(comparison_function(problem, nu, t[-1]))
            assert np.isfinite(comparison_function(problem, nu, t[-CHECK_CHUNK]))
            assert math.isnan(self.assert_matches_reference(problem, t, np.ones_like(t))[1])

    def test_nan_in_an_early_chunk_survives_later_chunks(self):
        t = np.linspace(0.0, 0.9 * self.SPAN, 3 * CHECK_CHUNK)
        f = hand_built(STANDARD, t)
        f[10] = math.nan
        assert math.isnan(self.assert_matches_reference(STANDARD, t, f)[1])

    def test_empty_prefix_is_rejected_as_before(self):
        t = np.linspace(self.SPAN, 2.0 * self.SPAN, 5)
        with pytest.raises(ValueError, match="zero-size array"):
            reference_deficit(STANDARD, t, np.ones_like(t))
        with pytest.raises(ValueError, match="zero-size array"):
            fold_chunks(STANDARD, t, np.ones_like(t))

    @pytest.mark.parametrize("steps", [20_000, 200_000])
    def test_solve_and_check_run_in_constant_memory(self, steps):
        # a chunk's F and times, and the temporaries of its fold, at any length; a
        # stored trajectory, 16 bytes a step, would take 3.2 MB at 2e5 steps
        problem = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        # a short untraced run first: without it the traced run of 2e5 steps took
        # 5-10 s, not 1.7, when run alone (2e4 steps: 1.1 s, not 0.16)
        solve(problem, max_steps=500)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = comparison_check(solve(problem, max_steps=steps))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rep.n_cases == steps + 1
        assert peak < 16 * 8 * CHECK_CHUNK


class TestSolve:
    def test_step_cap_is_reported_as_such(self):
        # a life span of 1.2e145 puts the horizon far past any step cap
        prob = OdiProblem(k0=4.0, k1=0.01, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
        sol = solve(prob, max_steps=1000)
        assert sol.blowup_time is None and sol.stop == STOP_STEP_CAP
        assert sol.n_cases == 1001
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
        # every sample, one a step of life_span/1e5 up to the blow-up, is checked
        assert sol.n_cases == round(sol.blowup_time / (sol.life_span / 1e5))
        assert comparison_function(STANDARD, sol.nu, 0.0) == pytest.approx(STANDARD.f0)

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.5, math.inf])
    def test_dt_validation(self, dt):
        # None is the automatic step; any given dt must be finite and positive
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            solve(STANDARD, dt=dt)


# The RK4 loop as it stood before its coefficients were computed once per
# distinct time, kept as the bitwise reference for the concatenated chunks of
# _trajectory; F' is carried but, as there, not returned.
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
        # step caps that fill the first chunk, and pass it by one and two samples
        "max_steps chunk-1": (STANDARD, dict(dt=1e-3, max_steps=CHECK_CHUNK - 1)),
        "max_steps chunk": (STANDARD, dict(dt=1e-3, max_steps=CHECK_CHUNK)),
        "max_steps chunk+1": (STANDARD, dict(dt=1e-3, max_steps=CHECK_CHUNK + 1)),
        # a blow-up in the first step of the second chunk, which holds no sample
        "blow-up at a chunk's start": (STANDARD, dict(dt=0.00165894)),
        "overflow exit": (OVERFLOWING, dict(dt=0.01, t_max=10.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_reference_loop_bitwise(self, name):
        problem, kwargs = self.CASES[name]
        if "t_max" not in kwargs:  # solve's horizon, 10 life spans
            kwargs = {**kwargs, "t_max": 10.0 * life_span(problem, select_nu(problem))}
        # each step forms F from the F' before it, so F's bits check every F'
        # but the last, whose finiteness the blow-up time checks
        t, f, blow = integrate(problem, **kwargs)
        t_ref, f_ref, blow_ref = reference_integrate_odi(problem, **kwargs)
        assert t.tobytes() == t_ref.tobytes()
        assert f.tobytes() == f_ref.tobytes()
        assert blow == blow_ref

    def test_cut_offs_stop_where_documented(self):
        t, _, blow = integrate(STANDARD, dt=7e-3, t_max=2.5)
        assert blow is None and t[-2] < 2.5 <= t[-1]
        t, _, blow = integrate(STANDARD, dt=1e-3, t_max=1e3, max_steps=1234)
        assert blow is None and t.size == 1235
        # a horizon reached by the first chunk's last sample ends the trajectory there
        t, _, _ = integrate(STANDARD, dt=1e-3, t_max=1e3, max_steps=CHECK_CHUNK - 1)
        t, _, blow = integrate(STANDARD, dt=1e-3, t_max=t[-1])
        assert blow is None and t.size == CHECK_CHUNK
        # a blow-up in the first step of a chunk leaves that chunk empty, unyielded
        t, _, blow = integrate(STANDARD, dt=0.00165894, t_max=1e3)
        assert t.size == CHECK_CHUNK and blow == t[-1] + 0.00165894

    def test_stage_overflow_ends_the_trajectory_one_step_on(self):
        # |F|^p overflows inside the step from t = 1.04; nothing of that step is kept
        t, f, blow = integrate(OVERFLOWING, dt=0.01, t_max=10.0)
        assert t.size == f.size == 105
        assert blow == 1.0500000000000007
        assert blow == t[-1] + 0.01

