import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from scalewave.cli import CSV_COLUMNS
from scalewave.functionals import (
    EXPONENT_BUDGET,
    _power_source,
    to_comparison_frame,
    weighted_lq,
    weighted_quadrature,
)
from scalewave.grid import RadialGrid, integrate, make_radial_grid
from scalewave.model import ModelParams, coefficients, discriminant, weight_exponent
from scalewave.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    OUTCOME_DIVERGED,
    SAMPLE_KEYS,
    RunConfig,
    SupportViolationWarning,
    _Recorder,
    check_run,
    init_state,
    leapfrog_kernel,
    run,
    run_bytes,
    time_step,
)

from frozen import parent_radial_derivative


def zero(r):
    return np.zeros_like(r)


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def logging(monkeypatch, owner, name: str, log) -> None:
    """Have every call of ``owner.name``, in any process, append the caller's pid to ``log``."""
    plain = getattr(owner, name)

    def logged(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


def bump(r):
    return np.where(r < 3.0, (1.0 - np.clip(r / 3.0, 0.0, 1.0) ** 2) ** 3, 0.0)


def params(n=1, mu1=0.0, mu2sq=0.0, p=2.0):
    return ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=p)


def gaussian(r):
    # the global band's data: far out they underflow into a subnormal tail
    return 0.01 * np.exp(-((r / 0.4) ** 2))


def c_p(p):
    # below this, |u|**p <= 2**-1100 and the source window skips the power
    return 2.0 ** (-1100.0 / p)


@dataclasses.dataclass(frozen=True, eq=False)
class Levels:
    # two consecutive levels as the frozen oracles step them: u_prev at t - dt, u_curr at t;
    # nodes from ``active`` on are 0 in both (None: the whole grid may be nonzero)
    t: float
    dt: float
    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    diverged: bool = False
    active: int | None = None
    sup: float | None = None


def first_levels(grid, u0, u1, config):
    # the levels a run starts from: the data at s and init_state's first level at s + dt
    dt = time_step(grid.step_unit, config)[1]
    u0v, _, first, active, _ = init_state(grid, u0, u1, config, dt)
    return Levels(t=config.s + dt, dt=dt, u_prev=u0v, u_curr=first, step_index=1, active=active)


def kernel_level(levels, grid, config):
    # the live kernel once on the given levels, into a fresh zero level: (u+, width, sup)
    out = np.zeros_like(levels.u_curr)
    active = grid.num_nodes if levels.active is None else levels.active
    with np.errstate(over="ignore", invalid="ignore"):
        width, sup = leapfrog_kernel(grid, config, levels.dt)(
            levels.t, levels.u_prev, levels.u_curr, out, active)
    return out, width, sup


def run_levels(monkeypatch, grid, u0, u1, config):
    # run(), and for each kernel call (t, the level at t it reads, its window); when the
    # run completes, the last entry is the level at t_max
    import scalewave.solver as solver

    calls = []

    def recording_kernel(grid, config, dt):
        advance = leapfrog_kernel(grid, config, dt)

        def recorded(t, u_prev, u_curr, out, active):
            calls.append((t, u_curr.copy(), active))
            return advance(t, u_prev, u_curr, out, active)

        return recorded

    monkeypatch.setattr(solver, "leapfrog_kernel", recording_kernel)
    return run(grid, u0, u1, config), calls


def reference_step(state, grid, config):
    # the windowed step as it was before the source window and the carried sup
    params = config.params
    b, m_sq = coefficients(params, state.t)
    h = 0.5 * b * state.dt
    size = grid.num_nodes
    width = size if state.active is None else min(max(state.active + 1, 2), size)
    u_curr, u_prev = state.u_curr[:width], state.u_prev[:width]
    u_next = np.zeros_like(state.u_curr)
    # overflow here means the run is diverging; it is flagged below, not raised
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = grid.laplacian(u_curr) - m_sq * u_curr
        if config.nonlinear:
            forcing = forcing + np.abs(u_curr) ** params.p
        u_next[:width] = (
            2.0 * u_curr
            - u_prev
            + h * u_prev
            + state.dt**2 * forcing
        ) / (1.0 + h)
    u_next[-1] = 0.0
    diverged = not bool(np.isfinite(u_next[:width]).all())
    return Levels(
        t=state.t + state.dt,
        dt=state.dt,
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        diverged=diverged,
        active=width,
    )


def parent_laplacian_apply(grid, u):
    # grid.laplacian_apply as it was before the per-run step kernel
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or not 2 <= u.size <= grid.num_nodes:
        raise ValueError(f"expected 2 to {grid.num_nodes} nodal values, got shape {u.shape}")
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


def parent_power_source(u, p):
    # solver._power_source as it was before the per-run step kernel
    src = np.abs(u)
    below = src < 2.0 ** (-1100.0 / p)  # NaN compares false, so it counts as inside
    # one past the last node not below c_p (a numpy bool is the byte 0 or 1)
    end = below.tobytes().rfind(b"\x00") + 1
    src[end:] = 0.0
    src[:end] **= p
    return src


def parent_step(state, grid, config):
    # solver.step as it was before the per-run step kernel: the frozen oracle of the run loop
    params = config.params
    b, m_sq = coefficients(params, state.t)
    h = 0.5 * b * state.dt
    size = grid.num_nodes
    width = size if state.active is None else min(max(state.active + 1, 2), size)
    u_curr, u_prev = state.u_curr[:width], state.u_prev[:width]
    u_next = np.zeros_like(state.u_curr)
    # overflow here means the run is diverging; it is flagged below, not raised
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = parent_laplacian_apply(grid, u_curr) - m_sq * u_curr
        if config.nonlinear:
            forcing = forcing + parent_power_source(u_curr, params.p)
        u_next[:width] = (
            2.0 * u_curr
            - u_prev
            + h * u_prev
            + state.dt**2 * forcing
        ) / (1.0 + h)
    u_next[-1] = 0.0
    sup = float(np.abs(u_next[:width]).max())
    return Levels(
        t=state.t + state.dt,
        dt=state.dt,
        u_prev=state.u_curr,
        u_curr=u_next,
        step_index=state.step_index + 1,
        diverged=not math.isfinite(sup),
        active=width,
        sup=sup,
    )


def reference_quadrature(grid, expo, density):
    # weighted_quadrature as it was before the recorder's active window
    density = np.asarray(density, dtype=float)
    if density.shape != grid.r.shape:
        raise ValueError(f"expected {grid.r.size} nodal values, got shape {density.shape}")
    active = density != 0.0
    # boolean indexing copies, so the in-place updates leave expo untouched
    terms = np.asarray(expo, dtype=float)[active]
    terms += np.log(density[active])
    peak = terms.max() if terms.size else -math.inf
    if not peak > EXPONENT_BUDGET:
        return float(grid.quad_weights[active] @ np.exp(terms, out=terms))
    # past the budget: the terms relative to the largest, scaled back; +inf past the range
    if peak == math.inf:
        return math.inf
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * peak)
    terms -= peak
    return float(grid.quad_weights[active] @ np.exp(terms, out=terms)) * float(half) * float(half)


def reference_record(grid, params, t, u, u_t, frame_ok):
    # one sample row as it was recorded before the recorder's active window,
    # with the three-quadrature weighted_norms of that time inlined
    u_r = parent_radial_derivative(grid, u)
    _, m_sq = coefficients(params, t)
    expo = 2.0 * weight_exponent(params, t, grid.r**2)
    u_sq = u * u
    grad_sq = u_r * u_r + u_t * u_t
    return (
        t,
        float(np.max(np.abs(u))),
        math.sqrt(max(integrate(grid, u * u), 0.0)),
        math.sqrt(max(integrate(grid, u_r * u_r), 0.0)),
        math.sqrt(max(integrate(grid, u_t * u_t), 0.0)),
        reference_quadrature(grid, expo, u_sq) ** (1.0 / 2.0),
        math.sqrt(reference_quadrature(grid, expo, grad_sq)),
        0.5 * reference_quadrature(grid, expo, grad_sq + m_sq * u_sq),
        integrate(grid, to_comparison_frame(u, t, params)) if frame_ok else math.nan,
    )


def reference_run(grid, u0, u1, config):
    # (samples, outcome, blowup_time) of the run loop as it was before the
    # recorder's active window, stepping with parent_step
    params = config.params
    state = first_levels(grid, u0, u1, config)
    dt = state.dt
    steps = time_step(grid.step_unit, config)[0]
    frame_ok = discriminant(params) >= 0.0
    u1v = np.asarray(u1(grid.r), dtype=float)
    rows = [reference_record(grid, params, config.s, state.u_prev, u1v, frame_ok)]
    outcome, blowup_time = OUTCOME_COMPLETED, None
    while True:
        final = state.step_index >= steps
        nxt = parent_step(state, grid, config)
        if state.step_index % config.record_every == 0 or final:
            if nxt.diverged:
                u_t = (state.u_curr - state.u_prev) / dt
            else:
                u_t = (nxt.u_curr - state.u_prev) / (2.0 * dt)
            rows.append(reference_record(grid, params, state.t, state.u_curr, u_t, frame_ok))
        if final:
            break
        if nxt.diverged:
            outcome = OUTCOME_DIVERGED
            break
        if nxt.sup > config.blowup_threshold:
            if config.nonlinear:
                outcome, blowup_time = OUTCOME_BLOWUP, nxt.t
            else:
                outcome = OUTCOME_DIVERGED
            break
        state = nxt
    return np.array(rows, dtype=np.float64), outcome, blowup_time


def written_levels(monkeypatch, grid, u0, u1, config):
    # the bytes of every level run() has its kernel write, in order
    import scalewave.solver as solver

    levels = []

    def recording_kernel(grid, config, dt):
        advance = leapfrog_kernel(grid, config, dt)

        def recorded(t, u_prev, u_curr, out, active):
            result = advance(t, u_prev, u_curr, out, active)
            levels.append(out.tobytes())
            return result

        return recorded

    monkeypatch.setattr(solver, "leapfrog_kernel", recording_kernel)
    run(grid, u0, u1, config)
    return levels


def assert_parent_levels(levels, grid, u0, u1, config):
    # the levels are those parent_step writes from the run's first levels on
    st = first_levels(grid, u0, u1, config)
    for level in levels:
        st = parent_step(st, grid, config)
        assert level == st.u_curr.tobytes()


def reference_samples(grid, u0, u1, config):
    return reference_run(grid, u0, u1, config)[0]


def blowup_states():
    """Levels of a bump run past blow-up, by parent_step, until a few steps after it diverged."""
    g = make_radial_grid(1, 30.0, 0.05)
    cfg = RunConfig(params=params(mu1=4.0, p=2.0), t_max=20.0)
    st = first_levels(g, bump, bump, cfg)
    after = 0
    while after < 3:
        st = parent_step(st, g, cfg)
        after += st.diverged
        yield g, cfg, st


class TestTimeStep:
    @pytest.mark.parametrize(
        "step_unit,safety,expected", [(0.05, 0.5, 0.025), (0.1, 1.0, 0.1), (0.01, 0.9, 0.009)]
    )
    def test_cfl_dt(self, step_unit, safety, expected):
        # where cfl_safety * step_unit divides the horizon, it is the step
        cfg = RunConfig(params=params(), t_max=100.0 * expected, cfl_safety=safety)
        steps, dt = time_step(step_unit, cfg)
        assert steps == 100 and dt == pytest.approx(expected, rel=1e-12)

    def test_cfl_domain(self):
        # the run config holds cfl_safety to (0, 1]
        for safety in (0.0, 1.5):
            with pytest.raises(ValueError, match="cfl_safety must lie in"):
                RunConfig(params=params(), cfl_safety=safety)

    def test_cap_that_underflows_rejected(self):
        # cfl_safety * step_unit rounds to 0: no step count, rather than a division by 0
        cfg = RunConfig(params=params(), cfl_safety=5e-324)
        with pytest.raises(ValueError, match="underflows to 0; raise cfl_safety"):
            time_step(0.05, cfg)

    def test_effective_dt_lands_exactly(self):
        g = make_radial_grid(1, 10.0, 0.1)
        cfg = RunConfig(params=params(), s=0.0, t_max=1.0, cfl_safety=0.9)
        steps, dt = time_step(g.step_unit, cfg)
        assert dt <= 0.9 * g.step_unit + 1e-15
        assert steps * dt == pytest.approx(1.0, rel=1e-14)


class TestCheckRun:
    # the coarse massive grid on which the leapfrog was unstable at the default
    # cfl_safety while the run reported ``completed`` (linear) or ``blowup`` (p = 3)
    GRID = make_radial_grid(1, 40.0, 0.5)

    @staticmethod
    def config(cfl_safety=0.9, nonlinear=False):
        return RunConfig(params=params(mu2sq=100.0, p=3.0), t_max=20.0, nonlinear=nonlinear,
                         cfl_safety=cfl_safety, record_every=1)

    @staticmethod
    def data(r):
        return 0.01 * np.exp(-((r / 0.4) ** 2))

    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("cfl_safety", [0.38, 0.45, 0.6, 0.9])
    def test_mass_bound_refuses_before_any_step(self, cfl_safety, nonlinear, monkeypatch):
        # unchecked, the sup grew 1.9, 25 and 24 000-fold at 0.45, 0.6 and 0.9 while the
        # run reported ``completed``, and at 0.9 the p = 3 run reported blow-up at t = 2.67
        import scalewave.solver as solver

        def no_step(*args, **kwargs):
            raise AssertionError("a run past the mass bound was stepped")

        monkeypatch.setattr(solver, "init_state", no_step)
        monkeypatch.setattr(solver, "leapfrog_kernel", no_step)
        cfg = self.config(cfl_safety, nonlinear)
        with pytest.raises(ValueError, match=r"time step past the mass bound: dt = .* > 1"):
            check_run(self.GRID, cfg)
        with pytest.raises(ValueError, match="time step past the mass bound"):
            run(self.GRID, self.data, zero, cfg)

    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("cfl_safety", [0.2, 0.35, 0.37])
    def test_mass_bound_admits_a_stable_step(self, cfl_safety, nonlinear):
        # (dt/step_unit)^2 + dt^2 m^2(s)/4 is 0.976 at 0.37 and 1.032 at 0.38; an
        # admitted run keeps its sup within 1.2 times the data's (1.17 at 0.2)
        cfg = self.config(cfl_safety, nonlinear)
        check_run(self.GRID, cfg)
        rep = run(self.GRID, self.data, zero, cfg)
        sups = rep.series("sup")[1]
        assert rep.outcome == OUTCOME_COMPLETED and np.max(sups) <= 1.2 * sups[0]

    def test_mass_bound_read_at_the_initial_time(self):
        # m^2(s) = mu2sq/(1+s)^2 decays after s: from s = 1 the same step is admitted
        cfg = dataclasses.replace(self.config(0.45), s=1.0, t_max=21.0)
        check_run(self.GRID, cfg)
        with pytest.raises(ValueError, match="mass bound"):
            check_run(self.GRID, self.config(0.45))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_massless_run_never_refused(self, n):
        # at cfl_safety 1, time_step may land dt a hair past the step unit; without
        # mass that is no refusal, and any mass at all is
        g = make_radial_grid(n, 30.0, 0.1)
        cfg = RunConfig(params=params(n=n), t_max=50.0 * g.step_unit * (1.0 + 1e-11),
                        cfl_safety=1.0)
        assert time_step(g.step_unit, cfg)[1] > g.step_unit
        check_run(g, cfg)
        check_run(g, dataclasses.replace(cfg, params=params(n=n, mu2sq=-0.0)))
        with pytest.raises(ValueError, match="mass bound"):
            check_run(g, dataclasses.replace(cfg, params=params(n=n, mu2sq=1e-3)))

    def test_refusals_in_order(self):
        # n >= 6, then the byte budget, then the safe radius, then the mass bound, each
        # read off a grid that has formed no array
        big = RunConfig(params=params(mu2sq=100.0), t_max=1e9, record_every=1, cfl_safety=1e-9)
        for n, cfg, message in (
                (6, big, "n = 6 cannot run stably"),
                (1, big, "run too large"),
                (1, dataclasses.replace(self.config(), t_max=40.0), "no safe radius"),
                (1, self.config(), "time step past the mass bound")):
            grid = make_radial_grid(n, 40.0, 0.5)
            with pytest.raises(ValueError, match=message):
                check_run(grid, cfg)
            assert not {"r", "quad_weights"} & set(vars(grid))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(params=params(), s=-1.0)
        with pytest.raises(ValueError):
            RunConfig(params=params(), s=2.0, t_max=1.0)
        with pytest.raises(ValueError):
            RunConfig(params=params(), cfl_safety=0.0)
        with pytest.raises(ValueError):
            RunConfig(params=params(), blowup_threshold=0.0)
        with pytest.raises(ValueError):
            RunConfig(params=params(), record_every=0)


    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="t_max must be finite"):
            RunConfig(params=params(), t_max=math.inf)


class TestInitState:
    def test_zero_data(self):
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(mu1=2.0), t_max=1.0)
        dt = time_step(g.step_unit, cfg)[1]
        u0v, u1v, first, active, sups = init_state(g, zero, zero, cfg, dt)
        assert not u0v.any() and not u1v.any() and not first.any() and active == 0
        assert sups == (0.0, 0.0)

    def test_taylor_structure_quadratic_in_dt(self):
        # with u1 = 0 the first level differs from the data at O(dt^2)
        g = make_radial_grid(1, 20.0, 0.02)
        p = params(mu1=1.0, mu2sq=0.5)
        diffs = []
        for safety in (0.5, 0.25):
            cfg = RunConfig(params=p, t_max=10.0, cfl_safety=safety)
            u0v, _, first, _, _ = init_state(g, bump, zero, cfg, time_step(g.step_unit, cfg)[1])
            diffs.append(np.max(np.abs(first - u0v)))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.05)

    def test_free_wave_first_level_at_origin(self):
        # u0 = exp(-r^2), u1 = 0, no damping/mass, linear:
        # u(dt, 0) = 1 + (dt^2/2) * Lap u0(0) = 1 - dt^2 for n = 1
        g = make_radial_grid(1, 20.0, 0.02)
        cfg = RunConfig(params=params(), t_max=10.0, nonlinear=False, cfl_safety=0.5)
        dt = time_step(g.step_unit, cfg)[1]
        first = init_state(g, lambda r: np.exp(-(r**2)), zero, cfg, dt)[2]
        assert first[0] == pytest.approx(1.0 - dt**2, abs=5e-4 * dt**2 + 1e-12)

    def test_support_violation_warns(self):
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(), t_max=9.0)  # safe radius 1.0 < support 3.0
        with pytest.warns(SupportViolationWarning):
            init_state(g, bump, zero, cfg, time_step(g.step_unit, cfg)[1])

    def test_support_violation_warns_at_the_caller_of_run(self):
        # the warning names the line that called run, not run's own line in solver.py
        g = make_radial_grid(1, 10.0, 0.05)
        # safe radius 1.0 < support 3.0, and a linear run
        cfg = RunConfig(params=params(), t_max=9.0, nonlinear=False, record_every=100)
        with pytest.warns(SupportViolationWarning) as caught:
            run(g, bump, zero, cfg)
        assert [w.filename for w in caught] == [__file__]

    def test_no_safe_radius_rejected(self, monkeypatch):
        # r_max <= t_max - s: the Dirichlet cut-off reaches every node; refused from the
        # grid's fields alone, before the data are sampled
        import scalewave.solver as solver

        def no_data(*args, **kwargs):
            raise AssertionError("the data were sampled")

        monkeypatch.setattr(solver, "init_state", no_data)
        g = make_radial_grid(1, 10.0, 0.05)
        for s, t_max in ((0.0, 10.0), (0.0, 60.0), (2.0, 12.0)):
            cfg = RunConfig(params=params(), s=s, t_max=t_max)
            with pytest.raises(ValueError, match="no safe radius"):
                check_run(g, cfg)
            with pytest.raises(ValueError, match="no safe radius"):
                run(g, bump, zero, cfg)

    def test_squares_past_the_float_range_rejected(self):
        # 1e160**2 overflows: the error names the datum and its value
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(), t_max=1.0)
        dt = time_step(g.step_unit, cfg)[1]
        huge = lambda r: 1e160 * bump(r)
        for u0, u1, name in ((huge, zero, "u0"), (bump, huge, "u1")):
            with pytest.raises(ValueError, match=rf"max \|{name}\| = 1e\+160 squares past"):
                init_state(g, u0, u1, cfg, dt)
        # just below sqrt(float max) the square is finite (and below a threshold above it)
        cfg = dataclasses.replace(cfg, blowup_threshold=1e155)
        init_state(g, lambda r: 1e154 * bump(r), zero, cfg, dt)

    def test_initial_time_shifts_clock(self, monkeypatch):
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(mu1=2.0), s=3.0, t_max=4.0)
        rep, calls = run_levels(monkeypatch, g, bump, zero, cfg)
        assert rep.samples[0, 0] == 3.0
        assert calls[0][0] == pytest.approx(3.0 + time_step(g.step_unit, cfg)[1])


class TestStep:
    def test_zero_stays_zero(self):
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(mu1=3.0, mu2sq=1.0), t_max=1.0, nonlinear=True)
        out, _, sup = kernel_level(first_levels(g, zero, zero, cfg), g, cfg)
        assert np.all(out == 0.0) and sup == 0.0

    def test_leapfrog_stability_at_cfl_limit(self, monkeypatch):
        # standing-wave growth factor has magnitude 1 for dt <= dr: the
        # sup-norm of a free-wave run stays bounded over many steps
        g = make_radial_grid(1, 40.0, 0.05)
        cfg = RunConfig(params=params(), t_max=30.0, nonlinear=False, cfl_safety=1.0)
        rep, calls = run_levels(monkeypatch, g, bump, zero, cfg)
        sup0 = np.max(np.abs(bump(g.r)))
        assert rep.outcome == OUTCOME_COMPLETED and len(calls) == time_step(g.step_unit, cfg)[0]
        assert np.max(np.abs(calls[-1][1])) <= 2.0 * sup0

    def test_dalembert_oracle(self, monkeypatch):
        # n=1 free wave, u0 = 0: u(t, 0) = int_0^t u1(r) dr for even data
        width = 0.5
        u1 = lambda r: np.exp(-((r / width) ** 2))
        for dr in (0.04, 0.02):
            g = make_radial_grid(1, 20.0, dr)
            cfg = RunConfig(params=params(), t_max=2.0, nonlinear=False, cfl_safety=0.5)
            rep, calls = run_levels(monkeypatch, g, zero, u1, cfg)
            steps = time_step(g.step_unit, cfg)[0]
            assert rep.outcome == OUTCOME_COMPLETED and len(calls) == steps
            exact = 0.5 * math.sqrt(math.pi) * width * math.erf(2.0 / width)
            assert calls[-1][1][0] == pytest.approx(exact, abs=10.0 * dr**2)


class TestActiveWindow:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_windowed_steps_match_full_grid_bitwise(self, n, nonlinear):
        g = make_radial_grid(n, 30.0, 0.05)
        cfg = RunConfig(params=params(n=n, mu1=2.0, mu2sq=0.5, p=2.5), t_max=10.0,
                        nonlinear=nonlinear, cfl_safety=0.5)
        small = lambda r: 0.2 * bump(r)
        st = first_levels(g, small, small, cfg)
        advance = leapfrog_kernel(g, cfg, st.dt)
        t, active = st.t, st.active
        windowed, full = [st.u_prev, st.u_curr], [st.u_prev, st.u_curr]
        for _ in range(200):
            windowed.append(np.zeros(g.num_nodes))
            full.append(np.zeros(g.num_nodes))
            active, sup = advance(t, *windowed[-3:], active)
            advance(t, *full[-3:], g.num_nodes)
            assert active < g.num_nodes
            assert windowed[-1].tobytes() == full[-1].tobytes()
            assert math.isfinite(sup)
            t += st.dt

    def test_active_grows_by_one_per_step_capped(self):
        g = make_radial_grid(1, 2.0, 0.05)
        cfg = RunConfig(params=params(mu1=1.0, p=3.0), t_max=1.0)
        st = first_levels(g, lambda r: bump(6.0 * r), zero, cfg)
        nonzero = np.flatnonzero((st.u_prev != 0.0) | (st.u_curr != 0.0))
        assert st.active == nonzero[-1] + 1 < g.num_nodes
        advance = leapfrog_kernel(g, cfg, st.dt)
        t, active, u_prev, u_curr = st.t, st.active, st.u_prev, st.u_curr
        for _ in range(g.num_nodes):
            u_next = np.zeros(g.num_nodes)
            width, _ = advance(t, u_prev, u_curr, u_next, active)
            assert width == min(active + 1, g.num_nodes)
            assert not u_next[width:].any() and not u_curr[width:].any()
            t, active, u_prev, u_curr = t + st.dt, width, u_curr, u_next
        assert active == g.num_nodes

    def test_zero_data_stay_zero(self):
        g = make_radial_grid(1, 2.0, 0.05)
        cfg = RunConfig(params=params(mu1=3.0, mu2sq=1.0, p=2.5), t_max=1.0)
        st = first_levels(g, zero, zero, cfg)
        assert st.active == 0 and not st.u_curr.any()
        advance = leapfrog_kernel(g, cfg, st.dt)
        t, active, u_prev, u_curr = st.t, st.active, st.u_prev, st.u_curr
        for k in range(g.num_nodes + 5):
            u_next = np.zeros(g.num_nodes)
            active, sup = advance(t, u_prev, u_curr, u_next, active)
            assert active == min(k + 2, g.num_nodes)
            assert not u_next.any() and sup == 0.0
            t, u_prev, u_curr = t + st.dt, u_curr, u_next


class TestSourceWindow:
    @pytest.mark.parametrize("p", [1.0 + 1e-7, 1.01, 1.0242, 1.03, 1.1, 1.5, 2.0, 2.5, 3.0,
                                   3.5, 4.0, 4.5, 5.0, 7.0, 10.0, 50.0])
    def test_power_below_c_p_is_positive_zero(self, p):
        # the platform assumption behind skipping the power: below c_p it is +0.0
        rng = np.random.default_rng(0)
        top = c_p(p)
        x = np.array([0.0, np.nextafter(top, 0.0)])
        if top > 0.0:
            x = np.concatenate([x, 2.0 ** rng.uniform(-1074.0, math.log2(top), 20_000)])
        for powered in (np.power(x, p), x ** p):
            assert not powered.any() and not np.signbit(powered).any()
        # and so the skipping power is the plain one bit for bit, on signed values
        # below, at and above c_p, +-0, +-inf and NaN, in and out of order
        edge = [top, np.nextafter(top, math.inf), 1e-300, 0.5, 1.0, 3.0, 1e10]
        mixed = np.concatenate([x[:500], -x[500:1000], edge, [-0.0, math.inf, -math.inf, math.nan],
                                -(2.0 ** rng.uniform(-1074.0, 20.0, 2000))])
        for values in (mixed, mixed[rng.permutation(mixed.size)], np.sort(np.abs(mixed))[::-1],
                       x, x[::-1]):
            with np.errstate(over="ignore"):
                plain = np.abs(values) ** p
                assert _power_source(np.abs(values), p).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("n, cfl_safety, p", [
        (1, 0.9, 1.01), (1, 0.9, 1.05), (1, 0.9, 1.1), (1, 0.9, 1.5), (1, 0.9, 2.0),
        (1, 0.9, 3.5), (1, 0.9, 4.0), (1, 0.9, 4.5), (1, 0.9, 7.0), (3, 0.5, 4.0), (3, 0.5, 2.0),
    ])
    def test_global_band_steps_match_reference_bitwise(self, n, cfl_safety, p):
        g = make_radial_grid(n, 40.0, 0.05)
        cfg = RunConfig(params=params(n=n, mu1=4.0, p=p), t_max=30.0, cfl_safety=cfl_safety)
        st = first_levels(g, gaussian, zero, cfg)
        skipped = 0
        for _ in range(300):
            st = self.assert_same_step(st, g, cfg)
            window = np.abs(st.u_curr[: st.active])
            skipped += int(((window > 0.0) & (window < c_p(p))).any())
        assert not st.diverged
        # the steps ran with a tail of nonzero values below c_p (none when c_p is 0)
        assert (skipped > 0) == (c_p(p) > 0.0)

    def test_blowup_run_matches_reference_bitwise(self):
        for g, cfg, st in blowup_states():
            self.assert_same_step(st, g, cfg)
        assert st.diverged and np.isnan(st.u_curr).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["front", "tail", "last", "beyond"])
    def test_non_finite_states_match_reference_bitwise(self, bad, where):
        g = make_radial_grid(1, 40.0, 0.05)
        cfg = RunConfig(params=params(mu1=4.0, p=4.0), t_max=30.0)
        st = first_levels(g, gaussian, zero, cfg)
        for _ in range(200):
            st = parent_step(st, g, cfg)
        window = np.abs(st.u_curr[: st.active])
        tail = np.flatnonzero((window > 0.0) & (window < c_p(4.0)))
        index = {"front": 0, "tail": tail[tail.size // 2], "last": st.active - 1,
                 "beyond": st.active}[where]
        u = st.u_curr.copy()
        u[index] = bad
        st = dataclasses.replace(st, u_curr=u)
        for _ in range(3):
            st = self.assert_same_step(st, g, cfg)
            assert st.diverged

    @staticmethod
    def assert_same_step(state, g, cfg):
        # the kernel's level, window and divergence against the reference's, which steps on
        out, width, sup = kernel_level(state, g, cfg)
        ref = reference_step(state, g, cfg)
        assert out.tobytes() == ref.u_curr.tobytes()
        assert (width, not math.isfinite(sup)) == (ref.active, ref.diverged)
        return ref


@dataclasses.dataclass(frozen=True, eq=False)
class _SpacingUnitGrid(RadialGrid):
    @property
    def step_unit(self) -> float:
        return self.dr


def past_the_bound(g):
    """``g`` with its spacing as its step unit, past the leapfrog bound of n >= 2:
    at the default cfl_safety 0.9 an n = 3 run on it is unstable (bound 0.816 dr)."""
    return _SpacingUnitGrid(**{f.name: getattr(g, f.name) for f in dataclasses.fields(g)})


def unit_gaussian(r):
    return np.exp(-((r / 0.4) ** 2))


def wide(r):
    # nonzero out to r_max = 30, so the active window is the whole grid from the start
    return 0.3 * np.exp(-((r / 4.0) ** 2))


class TestRecorder:
    @pytest.mark.parametrize("g, cfg, u0, u1, outcome", [
        pytest.param(make_radial_grid(1, 30.0, 0.05),
                     RunConfig(params=params(mu1=4.0), t_max=10.0, nonlinear=False,
                               record_every=1),
                     unit_gaussian, zero, OUTCOME_COMPLETED, id="n1-massless-linear"),
        pytest.param(make_radial_grid(1, 30.0, 0.05),
                     RunConfig(params=params(mu1=3.0, mu2sq=2.0, p=2.5), t_max=10.0,
                               record_every=3),
                     lambda r: 0.5 * bump(r), lambda r: 0.2 * bump(r), OUTCOME_COMPLETED,
                     id="n1-massive"),
        pytest.param(make_radial_grid(2, 20.0, 0.05),
                     RunConfig(params=params(n=2, mu1=3.0, mu2sq=2.0, p=2.5), t_max=8.0,
                               cfl_safety=0.8, record_every=2),
                     unit_gaussian, zero, OUTCOME_COMPLETED, id="n2-massive"),
        pytest.param(make_radial_grid(3, 30.0, 0.05),
                     RunConfig(params=params(n=3, mu1=5.0), t_max=10.0, cfl_safety=0.5,
                               record_every=2),
                     unit_gaussian, zero, OUTCOME_COMPLETED, id="n3-cfl-half"),
        pytest.param(make_radial_grid(1, 60.0, 0.05),
                     RunConfig(params=params(mu1=4.0, p=2.0), t_max=20.0, record_every=5),
                     bump, bump, OUTCOME_BLOWUP, id="bump-blowup"),
        pytest.param(make_radial_grid(1, 60.0, 0.05),
                     RunConfig(params=params(mu1=4.0, p=10.0), t_max=20.0, record_every=1,
                               blowup_threshold=math.inf),
                     bump, bump, OUTCOME_DIVERGED, id="diverged-non-finite-step"),
        pytest.param(past_the_bound(make_radial_grid(3, 40.0, 0.05)),
                     RunConfig(params=params(n=3, mu1=6.0), t_max=20.0, nonlinear=False,
                               record_every=1),
                     unit_gaussian, zero, OUTCOME_DIVERGED, id="diverged-unstable-linear"),
        pytest.param(make_radial_grid(1, 30.0, 0.05),
                     RunConfig(params=params(mu1=0.5), t_max=5.0, nonlinear=False, record_every=1),
                     unit_gaussian, wide, OUTCOME_COMPLETED, id="full-width-u1"),
    ])
    def test_samples_match_reference_bitwise(self, g, cfg, u0, u1, outcome):
        # a diverging run overflows its squares on the way, in both recorders
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run(g, u0, u1, cfg)
            want = reference_samples(g, u0, u1, cfg)
        assert rep.outcome == outcome
        assert rep.samples.shape == want.shape
        for got_row, want_row in zip(rep.samples, want):
            assert got_row.tobytes() == want_row.tobytes()

    def test_narrower_window_after_a_wider_sample(self):
        # the padding a wide sample filled is cleared for a narrower one
        g = make_radial_grid(2, 10.0, 0.05)
        p = params(n=2, mu1=4.0, mu2sq=0.5)
        record = _Recorder(g, p, True)
        for w in (g.num_nodes, 40, 80, 20):
            inside = np.arange(g.num_nodes) < w - 1
            u = np.where(inside, wide(g.r), 0.0)
            u_t = np.where(inside, g.r * wide(g.r), 0.0)
            want = np.array(reference_record(g, p, 0.5, u, u_t, True))
            sup = float(np.max(np.abs(u[:w])))
            assert np.array(record(0.5, u, u_t, w, sup)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("pattern", ["prefix", "scattered", "empty", "full", "nan"])
    def test_quadrature_kernel_matches_reference_bitwise(self, pattern):
        # a prefix of nonzero nodes is sliced, any other pattern gathered
        g = make_radial_grid(3, 20.0, 0.05)
        rng = np.random.default_rng(7)
        expo = rng.uniform(-50.0, 50.0, g.num_nodes)
        for _ in range(50):
            density = rng.uniform(0.0, 2.0, g.num_nodes) ** 9
            if pattern == "prefix":
                density[rng.integers(0, g.num_nodes):] = 0.0
            elif pattern == "scattered":
                density[rng.random(g.num_nodes) < 0.3] = 0.0
            elif pattern == "empty":
                density[:] = 0.0
            elif pattern == "nan":
                density[rng.integers(0, g.num_nodes)] = math.nan
            got = weighted_quadrature(g, expo, density)
            assert np.float64(got).tobytes() == np.float64(
                reference_quadrature(g, expo, density)).tobytes()

    @pytest.mark.parametrize("bad", ["nan", "nan_in_u_t", "overflow", "overflow_and_nan"])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_hand_built_massless_states_match_reference_bitwise(self, bad, windowed):
        # NaN or |u| > 1.4e154 (u^2 overflows): the energy may not reuse the gradient quadrature
        g = make_radial_grid(1, 10.0, 0.05)
        p = params(mu1=2.0)
        w = 61 if windowed else g.num_nodes
        inside = np.arange(g.num_nodes) < w - 1
        u = np.where(inside, unit_gaussian(g.r), 0.0)
        u_t = np.where(inside, -g.r * unit_gaussian(g.r), 0.0)
        if bad.startswith("overflow"):
            u[3] = 2e154
        if bad.endswith("nan"):
            u[7] = math.nan
        if bad == "nan_in_u_t":
            u_t[7] = math.nan
        sup = float(np.max(np.abs(u[:w])))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array(reference_record(g, p, 1.25, u, u_t, True))
            got = np.array(_Recorder(g, p, True)(1.25, u, u_t, w, sup))
        assert got.tobytes() == want.tobytes()
        if np.isinf(want[5:7]).all():
            # u^2 overflows: the recorder records the overflowing weighted
            # norms as +inf (the energy density inf*0 is NaN) instead of aborting
            assert bad == "overflow"
            assert tuple(got[5:7]) == (math.inf, math.inf) and math.isnan(got[7])
            assert got[1] == 2e154 and got[2] == math.inf and math.isfinite(got[8])
            return
        assert np.isnan(got[6:8]).all()


def negative_bump(r):
    # beyond its support -0.8 * 0.0 is -0.0, where a stepped level holds +0.0
    return -0.8 * bump(r)


class TestRunLoop:
    """run() against the parent's step and sample loop, bit for bit."""

    @pytest.mark.parametrize("g, cfg, u0, u1, outcome", [
        pytest.param(make_radial_grid(1, 10.0, 0.05),
                     RunConfig(params=params(mu1=3.0, mu2sq=1.5), t_max=6.5, nonlinear=False,
                               cfl_safety=0.5, record_every=1),
                     bump, zero, OUTCOME_COMPLETED, id="n1-linear-massive-reaches-last-node"),
        pytest.param(make_radial_grid(1, 30.0, 0.05),
                     RunConfig(params=params(mu1=4.0, p=3.0), s=1.5, t_max=8.0, record_every=7),
                     lambda r: 0.5 * unit_gaussian(r), zero, OUTCOME_COMPLETED,
                     id="n1-nonlinear-s"),
        pytest.param(make_radial_grid(2, 20.0, 0.05),
                     RunConfig(params=params(n=2, mu1=3.0, mu2sq=2.0), t_max=8.0,
                               nonlinear=False, cfl_safety=0.8, record_every=7),
                     unit_gaussian, zero, OUTCOME_COMPLETED, id="n2-linear-massive"),
        pytest.param(make_radial_grid(2, 10.0, 0.05),
                     RunConfig(params=params(n=2, mu1=3.0, mu2sq=2.0, p=2.5), t_max=6.5,
                               cfl_safety=0.8, record_every=1),
                     bump, lambda r: 0.2 * bump(r), OUTCOME_COMPLETED,
                     id="n2-nonlinear-reaches-last-node"),
        pytest.param(make_radial_grid(3, 20.0, 0.05),
                     RunConfig(params=params(n=3, mu1=5.0), s=0.5, t_max=8.0, nonlinear=False,
                               cfl_safety=0.5, record_every=7),
                     unit_gaussian, zero, OUTCOME_COMPLETED, id="n3-linear-s"),
        pytest.param(make_radial_grid(3, 20.0, 0.05),
                     RunConfig(params=params(n=3, mu1=5.0, mu2sq=0.5, p=2.0), t_max=8.0,
                               cfl_safety=0.5, record_every=1),
                     negative_bump, negative_bump, OUTCOME_COMPLETED,
                     id="n3-nonlinear-negative-data"),
        pytest.param(make_radial_grid(1, 60.0, 0.05),
                     RunConfig(params=params(mu1=4.0, p=2.0), t_max=20.0, record_every=7),
                     bump, bump, OUTCOME_BLOWUP, id="blowup"),
        pytest.param(past_the_bound(make_radial_grid(3, 40.0, 0.05)),
                     RunConfig(params=params(n=3, mu1=6.0), t_max=20.0, nonlinear=False,
                               record_every=7),
                     unit_gaussian, zero, OUTCOME_DIVERGED, id="linear-stopped-by-detector"),
        pytest.param(make_radial_grid(1, 60.0, 0.05),
                     RunConfig(params=params(mu1=4.0, p=10.0), t_max=20.0, record_every=1,
                               blowup_threshold=math.inf),
                     bump, bump, OUTCOME_DIVERGED, id="nan-diverged"),
    ])
    def test_run_matches_parent_loop_bitwise(self, g, cfg, u0, u1, outcome):
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run(g, u0, u1, cfg)
            want, want_outcome, want_time = reference_run(g, u0, u1, cfg)
        assert (rep.outcome, want_outcome) == (outcome, outcome)
        assert (rep.blowup_time is None) == (want_time is None) == (outcome != OUTCOME_BLOWUP)
        if want_time is not None:
            assert np.float64(rep.blowup_time).tobytes() == np.float64(want_time).tobytes()
        assert rep.samples.tobytes() == want.tobytes()

    def test_window_reaches_last_node(self, monkeypatch):
        g = make_radial_grid(1, 10.0, 0.05)
        cfg = RunConfig(params=params(mu1=3.0, mu2sq=1.5), t_max=6.5, nonlinear=False,
                        cfl_safety=0.5, record_every=1)
        rep, calls = run_levels(monkeypatch, g, bump, zero, cfg)
        assert rep.outcome == OUTCOME_COMPLETED and len(calls) == time_step(g.step_unit, cfg)[0]
        assert calls[-1][2] == g.num_nodes

    def test_levels_rotate_without_aliasing(self, monkeypatch):
        # every step reads two levels and writes a third: three distinct buffers in turn
        import scalewave.solver as solver

        seen = []
        kernel = solver.leapfrog_kernel

        def checked_kernel(grid, config, dt):
            advance = kernel(grid, config, dt)

            def checked(t, u_prev, u_curr, out, active):
                assert not np.shares_memory(out, u_prev) and not np.shares_memory(out, u_curr)
                assert not np.shares_memory(u_prev, u_curr)
                seen.append((u_prev.ctypes.data, u_curr.ctypes.data, out.ctypes.data))
                return advance(t, u_prev, u_curr, out, active)

            return checked

        monkeypatch.setattr(solver, "leapfrog_kernel", checked_kernel)
        g = make_radial_grid(2, 20.0, 0.05)
        cfg = RunConfig(params=params(n=2, mu1=3.0, p=2.5), t_max=5.0, record_every=1)
        rep = run(g, bump, bump, cfg)
        assert len(seen) == time_step(g.step_unit, cfg)[0]
        assert len({frozenset(ids) for ids in seen}) == 1
        for (prev, curr, out), (prev2, curr2, out2) in zip(seen, seen[1:]):
            assert (prev2, curr2, out2) == (curr, out, prev)
        # the levels a sample reads are those of its own step, not a rotated-away one
        assert rep.samples.tobytes() == reference_samples(g, bump, bump, cfg).tobytes()

    @pytest.mark.parametrize("n, u0, u1", [(3, negative_bump, negative_bump), (1, bump, bump),
                                           (2, zero, zero)])
    def test_levels_match_parent_steps_bitwise(self, n, u0, u1, monkeypatch):
        # every written level, beyond the window too (signs of zeros included), is
        # the level parent_step writes into a fresh array
        g = make_radial_grid(n, 12.0, 0.05)
        cfg = RunConfig(params=params(n=n, mu1=4.0, mu2sq=0.5, p=2.0), t_max=8.0,
                        cfl_safety=0.5, record_every=50)
        levels = written_levels(monkeypatch, g, u0, u1, cfg)
        assert len(levels) > 100  # the bump data blow up before t_max
        assert_parent_levels(levels, g, u0, u1, cfg)

    def test_two_runs_give_identical_bytes(self):
        g = make_radial_grid(3, 20.0, 0.05)
        cfg = RunConfig(params=params(n=3, mu1=5.0, mu2sq=0.5, p=2.0), t_max=8.0,
                        cfl_safety=0.5, record_every=3)
        first, second = run(g, negative_bump, bump, cfg), run(g, negative_bump, bump, cfg)
        assert first.samples.tobytes() == second.samples.tobytes()
        assert (first.outcome, first.blowup_time) == (second.outcome, second.blowup_time)


def negative_gaussian(r):
    # the global band's data negated: a negative subnormal tail, then -0.0 from r = 11 on
    return -gaussian(r)


def coarse_negative_gaussian(r):
    # the same shape for dr = 1.5: a negative subnormal tail, then -0.0 from r = 110 on
    return -0.01 * np.exp(-((r / 4.0) ** 2))


class TestSharedPasses:
    """The step's shared passes: 2u formed once, the zero mass term skipped, |u+| reused.

    Each test compares levels with parent_step, which forms every term afresh.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("mu2sq", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("r_max, dr, mu1, u0, t_max", [
        pytest.param(12.0, 0.05, 4.0, negative_gaussian, 8.0, id="dr-0.05"),
        # dr^2 >= 2: the step keeps the mass pass even without mass; the wider data
        # lie in the weighted space of a smaller mu1
        pytest.param(150.0, 1.5, 0.1, coarse_negative_gaussian, 30.0, id="dr-1.5"),
    ])
    def test_massless_negative_data_match_parent_bitwise(self, r_max, dr, mu1, u0, t_max, mu2sq,
                                                          nonlinear, n, monkeypatch):
        g = make_radial_grid(n, r_max, dr)
        cfg = RunConfig(params=params(n=n, mu1=mu1, mu2sq=mu2sq, p=2.0), t_max=t_max,
                        nonlinear=nonlinear, cfl_safety=0.5, record_every=50)
        levels = written_levels(monkeypatch, g, u0, zero, cfg)
        assert len(levels) == time_step(g.step_unit, cfg)[0]
        # the steps ran over a tail of negative subnormals
        first = np.frombuffer(levels[0])
        assert ((first < 0.0) & (first > -2.0**-1022)).any()
        assert_parent_levels(levels, g, u0, zero, cfg)

    @pytest.mark.parametrize("dr", [1.4, 1.5])
    def test_mass_pass_kept_where_the_laplacian_underflows(self, dr):
        # Linear, massless and undamped with mu1 = -0.0, so h = -0.0.  The kernel writes a
        # level on a narrow window into a buffer holding -0.0 beyond it, then steps on it
        # over the whole grid.  Next to the last written node, -2**-1074, the Laplacian is
        # -2**-1074 over the grid's row divisor: nonzero below 2, and -0.0 from 2 on, where
        # f - 0 * (-0.0) is +0.0, not f, and changes the level.
        tiny = 2.0**-1074
        g = make_radial_grid(1, 42.0, dr)
        cfg = RunConfig(params=params(mu1=-0.0), t_max=10.0, nonlinear=False, cfl_safety=0.5)
        dt = time_step(g.step_unit, cfg)[1]
        u_prev, u_curr = np.zeros(g.num_nodes), np.zeros(g.num_nodes)
        u_curr[5] = -4.0 * tiny
        advance = leapfrog_kernel(g, cfg, dt)
        written, later = np.full(g.num_nodes, -0.0), np.zeros(g.num_nodes)
        width, _ = advance(1.0, u_prev, u_curr, written, 6)
        advance(1.0 + dt, u_curr, written, later, g.num_nodes)
        assert written[width - 1] == -tiny and np.signbit(written[width])
        laplacian = g.laplacian(written)[width]
        assert np.signbit(laplacian) and (laplacian == 0.0) == (g.row_divisor >= 2.0)
        st = Levels(t=1.0 + dt, dt=dt, u_prev=u_curr, u_curr=written, step_index=2)
        assert later.tobytes() == parent_step(st, g, cfg).u_curr.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_steps_on_non_finite_levels_match_parent_bitwise(self, bad, nonlinear):
        # the first step writes a non-finite level; those after it read levels it wrote
        g = make_radial_grid(1, 20.0, 0.05)
        cfg = RunConfig(params=params(mu1=4.0, p=4.0), t_max=10.0, nonlinear=nonlinear)
        st = first_levels(g, negative_gaussian, zero, cfg)
        u = st.u_curr.copy()
        u[st.active // 2] = bad
        st = dataclasses.replace(st, u_curr=u)
        advance = leapfrog_kernel(g, cfg, st.dt)
        u_prev, u_curr = st.u_prev, st.u_curr
        for _ in range(4):
            out = np.zeros(g.num_nodes)
            with np.errstate(over="ignore", invalid="ignore"):
                _, sup = advance(st.t, u_prev, u_curr, out, st.active)
            st = parent_step(st, g, cfg)
            assert out.tobytes() == st.u_curr.tobytes() and st.diverged
            assert np.array_equal(sup, st.sup, equal_nan=True)
            u_prev, u_curr = u_curr, out

    @pytest.mark.parametrize("mu2sq", [0.0, 0.5])
    def test_levels_it_did_not_write_match_parent_bitwise(self, mu2sq):
        # One kernel steps three runs in a seeded random order: a run whose level the
        # kernel wrote at the step before, one it wrote earlier, one whose level is a
        # copy, and after the whole-grid run a narrower one, over nodes the whole-grid
        # run wrote.  Only the first may reuse what the kernel knows of the level.
        g = make_radial_grid(1, 30.0, 0.05)
        cfg = RunConfig(params=params(mu1=4.0, mu2sq=mu2sq, p=2.0), t_max=5.0)
        states = [first_levels(g, negative_gaussian, zero, cfg),
                  first_levels(g, bump, bump, cfg),
                  dataclasses.replace(first_levels(g, wide, zero, cfg), active=None)]
        advance = leapfrog_kernel(g, cfg, states[0].dt)
        rng = np.random.default_rng(3)
        for _ in range(120):
            pick = int(rng.integers(0, 3))
            st = states[pick]
            u_curr = st.u_curr.copy() if rng.random() < 0.2 else st.u_curr
            active = g.num_nodes if st.active is None else st.active
            out = np.zeros(g.num_nodes)
            advance(st.t, st.u_prev, u_curr, out, active)
            nxt = parent_step(st, g, cfg)
            assert out.tobytes() == nxt.u_curr.tobytes()
            states[pick] = dataclasses.replace(nxt, u_curr=out,
                                               active=None if st.active is None else nxt.active)


SPECIAL_VALUES = [0.0, -0.0, 2.0**-1074, -(2.0**-1074), 2.0**-1030, -(2.0**-1022 - 2.0**-1074),
                  math.inf, -math.inf, math.nan, -math.nan]


def special_values(rng, size):
    # random float64s of every binade and sign (some overflow to +-inf), with a fifth
    # of them +-0, subnormals, +-inf and NaNs of both signs
    with np.errstate(over="ignore"):
        x = rng.standard_normal(size) * 2.0 ** rng.uniform(-1074.0, 1024.0, size)
    picks = rng.random(size) < 0.2
    x[picks] = rng.choice(SPECIAL_VALUES, size=int(picks.sum()))
    return x


class TestPerCallCost:
    """The platform assumptions behind the kernel's cheaper calls (solver module notes)."""

    def test_doubling_and_0d_operands_keep_every_bit(self):
        # u + u is 2.0 * u, and a 0-d float64 operand gives the bits of the Python float
        rng = np.random.default_rng(11)
        scalars = [0.0, -0.0, 2.0**-1074, 1.0, 1.0 + 2.0**-52, 0.045**2, 0.5 * 0.8 * 0.045,
                   1.0 + 0.5 * 0.8 * 0.045, 0.5 / 1.3**2, math.inf, -math.inf, math.nan]
        scalars += [c_p(p) for p in (1.01, 1.1, 2.0, 4.0, 50.0)]
        scalars += list(special_values(rng, 20))
        with np.errstate(all="ignore"):
            for _ in range(20):
                x = special_values(rng, 4096)
                assert np.add(x, x).tobytes() == np.multiply(2.0, x).tobytes()
                for s in scalars:
                    zero_d = np.array(s)
                    assert np.multiply(zero_d, x).tobytes() == np.multiply(s, x).tobytes()
                    assert np.divide(x, zero_d).tobytes() == np.divide(x, s).tobytes()
                    assert np.less(x, zero_d).tobytes() == np.less(x, s).tobytes()

    def test_kernels_stepped_in_turn_keep_their_own_constants(self):
        # two kernels with different dt (and so different dt^2, h and 1 + h each step),
        # stepped alternately, each write the levels it writes when stepped alone
        g = make_radial_grid(1, 40.0, 0.05)
        configs = [RunConfig(params=params(mu1=4.0, mu2sq=0.5, p=4.0), t_max=30.0,
                             cfl_safety=safety) for safety in (0.9, 0.5)]

        def stepper(cfg):
            st = first_levels(g, gaussian, zero, cfg)
            advance = leapfrog_kernel(g, cfg, st.dt)
            levels, state = [st.u_prev.copy(), st.u_curr.copy()], [st.t, st.active]

            def step():
                out = np.zeros(g.num_nodes)
                state[1], _ = advance(state[0], levels[-2], levels[-1], out, state[1])
                state[0] += st.dt
                levels.append(out)
                return out.tobytes()

            return step

        alone = [[step() for _ in range(150)] for step in map(stepper, configs)]
        assert alone[0] != alone[1]
        first, second = map(stepper, configs)
        for k in range(150):
            assert first() == alone[0][k]
            assert second() == alone[1][k]


class TestDetectBlowup:
    """The blow-up rule of run(), on the sup the kernel returns for each level."""

    @staticmethod
    def run_with_sup(monkeypatch, sup, nonlinear=True):
        # a short run whose third step returns ``sup``, against the threshold 10;
        # (report, the t of each kernel call, dt)
        import scalewave.solver as solver

        times = []

        def forcing_kernel(grid, config, dt):
            advance = leapfrog_kernel(grid, config, dt)

            def forced(t, u_prev, u_curr, out, active):
                width, actual = advance(t, u_prev, u_curr, out, active)
                times.append(t)
                return width, sup if len(times) == 3 else actual

            return forced

        monkeypatch.setattr(solver, "leapfrog_kernel", forcing_kernel)
        g = make_radial_grid(1, 10.0, 0.1)
        cfg = RunConfig(params=params(mu1=2.0, p=3.0), t_max=2.0, nonlinear=nonlinear,
                        blowup_threshold=10.0, record_every=1)
        return run(g, lambda r: 0.5 * bump(r), zero, cfg), times, time_step(g.step_unit, cfg)[1]

    def test_bounded(self, monkeypatch):
        rep, times, _ = self.run_with_sup(monkeypatch, 2.0)
        assert rep.outcome == OUTCOME_COMPLETED and rep.blowup_time is None
        assert len(times) == 23

    def test_threshold_crossing(self, monkeypatch):
        # the blow-up time is that of the level whose sup crossed
        rep, times, dt = self.run_with_sup(monkeypatch, 20.0)
        assert len(times) == 3 and rep.outcome == OUTCOME_BLOWUP
        assert rep.blowup_time == times[-1] + dt
        # a linear solution cannot blow up: the same crossing is divergence
        rep, times, _ = self.run_with_sup(monkeypatch, 20.0, nonlinear=False)
        assert len(times) == 3 and rep.outcome == OUTCOME_DIVERGED and rep.blowup_time is None

    def test_non_finite(self, monkeypatch):
        rep, times, _ = self.run_with_sup(monkeypatch, math.nan)
        assert len(times) == 3 and rep.outcome == OUTCOME_DIVERGED and rep.blowup_time is None

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite(self, bad, monkeypatch):
        rep, times, _ = self.run_with_sup(monkeypatch, bad)
        assert len(times) == 3 and rep.outcome == OUTCOME_DIVERGED and rep.blowup_time is None

    def test_stepped_state_carries_the_sup(self):
        # the kernel's sup is max |u+| over the whole level, NaN included: the one pass
        # the rule reads, and the sup the frozen oracle carries
        for g, cfg, st in blowup_states():
            out, _, sup = kernel_level(st, g, cfg)
            assert np.array_equal(sup, np.max(np.abs(out)), equal_nan=True)
            assert np.array_equal(sup, parent_step(st, g, cfg).sup, equal_nan=True)


class TestRun:
    def test_zero_data_completed_all_zero(self):
        g = make_radial_grid(1, 10.0, 0.1)
        cfg = RunConfig(params=params(mu1=2.0, p=3.0), t_max=2.0, nonlinear=True)
        rep = run(g, zero, zero, cfg)
        assert rep.outcome == OUTCOME_COMPLETED
        for key in ("sup", "l2", "grad_l2", "ut_l2", "wl2", "wgrad_l2", "wenergy", "F"):
            assert np.all(rep.series(key)[1] == 0.0)

    def test_sample_times_strictly_increasing(self):
        g = make_radial_grid(1, 20.0, 0.05)
        cfg = RunConfig(params=params(mu1=2.0), t_max=5.0, nonlinear=False, record_every=7)
        rep = run(g, bump, zero, cfg)
        t = rep.series("l2")[0]
        assert np.all(np.diff(t) > 0.0)
        assert t[0] == 0.0 and t[-1] == pytest.approx(5.0)

    def test_blowup_run(self):
        g = make_radial_grid(1, 60.0, 0.05)
        p = params(mu1=4.0, p=2.0)
        cfg = RunConfig(params=p, t_max=20.0, nonlinear=True, record_every=5)
        rep = run(g, bump, bump, cfg)
        assert rep.outcome == OUTCOME_BLOWUP
        assert rep.blowup_time is not None and rep.blowup_time < 20.0

    def test_energy_conservation_free_wave(self):
        # mu = 0, linear: discrete energy conserved within 0.1% over 1e4 steps
        g = make_radial_grid(1, 60.0, 0.02)
        cfg = RunConfig(params=params(), t_max=50.0, nonlinear=False,
                        cfl_safety=0.5, record_every=50)
        rep = run(g, bump, zero, cfg)
        assert time_step(g.step_unit, cfg)[0] >= 5000
        t, grad = rep.series("grad_l2")
        _, ut = rep.series("ut_l2")
        energy = 0.5 * (grad**2 + ut**2)
        interior = energy[1:]  # initial sample has the exact u1, not the centered one
        assert (interior.max() - interior.min()) / interior[0] <= 1e-3

    def test_damped_energy_nonincreasing(self):
        g = make_radial_grid(1, 30.0, 0.02)
        p = params(mu1=2.0, mu2sq=1.0)
        cfg = RunConfig(params=p, t_max=20.0, nonlinear=False, cfl_safety=0.5, record_every=1)
        rep = run(g, bump, zero, cfg)
        t, grad = rep.series("grad_l2")
        _, ut = rep.series("ut_l2")
        _, l2 = rep.series("l2")
        m_sq = p.mu2sq / (1.0 + t) ** 2
        energy = 0.5 * (grad**2 + ut**2 + m_sq * l2**2)
        dt = t[2] - t[1]
        rel_increase = np.diff(energy[1:]) / energy[1:-1]
        assert np.max(rel_increase) <= dt**2

    def test_grid_convergence_order(self):
        norms = {}
        p = params(mu1=4.0)
        for dr in (0.1, 0.05, 0.025):
            g = make_radial_grid(1, 40.0, dr)
            cfg = RunConfig(params=p, t_max=20.0, nonlinear=False, cfl_safety=0.9,
                            record_every=10**9)
            rep = run(g, lambda r: np.exp(-((r / 0.4) ** 2)), zero, cfg)
            norms[dr] = rep.series("l2")[1][-1]
        order = math.log2(abs(norms[0.1] - norms[0.05]) / abs(norms[0.05] - norms[0.025]))
        assert order >= 1.9

    def test_finite_propagation_speed(self, monkeypatch):
        # at the dispersion-free step dt = dr the discrete domain of
        # dependence matches the continuum cone exactly in n = 1
        g = make_radial_grid(1, 30.0, 0.02)
        for mu1, mu2sq in ((0.0, 0.0), (2.0, 0.0)):
            cfg = RunConfig(params=params(mu1=mu1, mu2sq=mu2sq), t_max=5.0,
                            nonlinear=False, cfl_safety=1.0, record_every=10**9)
            rep, calls = run_levels(monkeypatch, g, bump, zero, cfg)
            steps = time_step(g.step_unit, cfg)[0]
            assert rep.outcome == OUTCOME_COMPLETED and len(calls) == steps
            beyond = np.abs(calls[-1][1]) > 1e-12
            assert g.r[beyond].max() <= 3.0 + 5.0 + 2.0 * g.dr
        # with mass, dt = dr is past the leapfrog bound: the top mode has
        # dt^2 (rho + m^2) = 4.0002 and grows at t = 0, so the run is refused
        cfg = RunConfig(params=params(mu1=2.0, mu2sq=0.5), t_max=5.0, nonlinear=False,
                        cfl_safety=1.0, record_every=10**9)
        with pytest.raises(ValueError, match="time step past the mass bound"):
            run_levels(monkeypatch, g, bump, zero, cfg)

    def test_initial_time_run_completes(self):
        g = make_radial_grid(1, 30.0, 0.05)
        cfg = RunConfig(params=params(mu1=4.0), s=5.0, t_max=15.0, nonlinear=False)
        rep = run(g, zero, bump, cfg)
        assert rep.outcome == OUTCOME_COMPLETED
        assert rep.series("l2")[0][0] == 5.0

    def test_samples_are_one_float64_array_in_csv_column_order(self):
        g = make_radial_grid(1, 20.0, 0.1)
        cfg = RunConfig(params=params(mu1=2.0, mu2sq=0.2), t_max=3.0, nonlinear=False,
                        record_every=4)
        rep = run(g, bump, zero, cfg)
        assert isinstance(rep.samples, np.ndarray) and rep.samples.dtype == np.float64
        assert rep.samples.shape == (time_step(g.step_unit, cfg)[0] // 4 + 2, len(CSV_COLUMNS))
        for column, key in enumerate(CSV_COLUMNS[1:], start=1):
            t, values = rep.series(key)
            assert np.shares_memory(t, rep.samples) and np.shares_memory(values, rep.samples)
            assert np.array_equal(t, rep.samples[:, 0])
            assert np.array_equal(values, rep.samples[:, column])

    @pytest.mark.parametrize("mu1, nonlinear, threshold, outcome", [
        (4.0, False, 1e6, OUTCOME_COMPLETED),
        (4.0, True, 1e6, OUTCOME_BLOWUP),
        # undamped with the threshold out of reach: the sup overflows to inf
        (0.0, True, 1e300, OUTCOME_DIVERGED),
    ])
    def test_progress_fires_once_per_recorded_row(self, mu1, nonlinear, threshold, outcome):
        g = make_radial_grid(1, 40.0, 0.05)
        cfg = RunConfig(params=params(mu1=mu1, p=2.0), t_max=20.0, nonlinear=nonlinear,
                        blowup_threshold=threshold, record_every=3)
        times = []
        rep = run(g, bump, bump, cfg, times.append)
        assert rep.outcome == outcome
        assert np.array_equal(np.array(times), rep.samples[:, 0])
        # watching a run changes none of its bits
        assert run(g, bump, bump, cfg).samples.tobytes() == rep.samples.tobytes()

    @pytest.mark.parametrize("mu1, data, first", [
        (3.0, bump, "within"),
        # unit-width Gaussian data: the first sample's largest term exponent is about
        # 675, past the budget, so both sum the terms scaled back
        (20.0, lambda r: np.exp(-(r**2)), "past"),
        # and at mu1 = 40 about 1800, past the float range: both are +inf
        (40.0, lambda r: np.exp(-(r**2)), "inf"),
    ])
    def test_recorded_wl2_is_weighted_lq_bitwise(self, monkeypatch, mu1, data, first):
        # massive nonlinear n = 2 run; the clock starts at s = 1 so the weight
        # exponent is not that of t = 0 at any sample
        g = make_radial_grid(2, 15.0, 0.05)
        p = params(n=2, mu1=mu1, mu2sq=2.0, p=2.5)
        cfg = RunConfig(params=p, s=1.0, t_max=2.0, cfl_safety=0.8, record_every=5)
        rep, calls = run_levels(monkeypatch, g, data, data, cfg)
        t, wl2 = rep.series("wl2")
        u0v = init_state(g, data, data, cfg, time_step(g.step_unit, cfg)[1])[0]
        want = weighted_lq(g, u0v, p, 1.0, t[0], 2.0)
        assert wl2[0].tobytes() == np.float64(want).tobytes()
        nonzero = u0v != 0.0
        peak = np.max(2.0 * weight_exponent(p, t[0], g.r[nonzero] ** 2) + np.log(u0v[nonzero] ** 2))
        assert (peak > EXPONENT_BUDGET) == (first != "within")
        assert (want == math.inf) == (first == "inf")
        # the fifth step starts from the level at s + 5 dt, the second sample
        t5, u5, _ = calls[4]
        assert t5 == t[1]
        assert wl2[1].tobytes() == np.float64(weighted_lq(g, u5, p, 1.0, t[1], 2.0)).tobytes()

    @pytest.mark.parametrize("n, nonlinear", [(1, False), (1, True), (3, False), (3, True)])
    def test_peak_memory_within_run_bytes(self, n, nonlinear):
        # 200,001 nodes, so the node arrays dwarf everything of fixed size; the
        # zero u1 leaves the gradient density 0 at the origin, which the first
        # sample's quadrature gathers around
        cfg = RunConfig(params=params(n=n, mu1=4.0, p=3.0), t_max=2e-3, nonlinear=nonlinear,
                        cfl_safety=0.5, record_every=10)
        gaussian = lambda r: np.exp(-((r / 0.4) ** 2))  # noqa: E731
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            # the grid's arrays are formed inside the run, which counts them
            g = make_radial_grid(n, 20.0, 1e-4)
            rep = run(g, gaussian, zero, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert g.num_nodes == 200_001 and rep.outcome == OUTCOME_COMPLETED
        assert peak <= run_bytes(g, cfg)[1]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_size_check_counts_the_rows_run_allocates(self, n):
        # the check before allocation reads the grid's fields, and run allocates on the
        # same grid; from n = 6 on, where no dt is stable, both refuse the run
        cfg = RunConfig(params=params(n=n, mu1=4.0, p=3.0), t_max=1.3, record_every=3)
        g = make_radial_grid(n, 5.0, 0.07)
        if n >= 6:
            refusal = f"n = {n} cannot run stably: the radial Laplacian has a complex spectrum"
            with pytest.raises(ValueError, match=refusal):
                check_run(g, cfg)
            with pytest.raises(ValueError, match=refusal):
                run(g, bump, zero, cfg)
            assert "r" not in vars(g)
            return
        rep = run(g, bump, zero, cfg)
        assert rep.samples.base.shape[0] == run_bytes(g, cfg)[0]

    def test_unstable_linear_run_is_diverged_not_blowup(self):
        # dt = 0.9 dr exceeds the leapfrog bound in n = 3 (0.816 dr); a linear
        # solution cannot blow up, so the exploding sup-norm is divergence
        g = past_the_bound(make_radial_grid(3, 40.0, 0.05))
        cfg = RunConfig(params=params(n=3, mu1=6.0), t_max=20.0, nonlinear=False)
        rep = run(g, lambda r: np.exp(-((r / 0.4) ** 2)), zero, cfg)
        assert rep.outcome == OUTCOME_DIVERGED
        assert rep.blowup_time is None

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_data_outside_the_weighted_space_run(self, nonlinear):
        # e^{2W} u0^2 passes e^600 at t = s: the run goes on, and every sample, the
        # first included, records the weighted norms that overflow as +inf
        g = make_radial_grid(1, 20.0, 0.1)
        cfg = RunConfig(params=params(mu1=40.0, p=4.0), t_max=2.0, nonlinear=nonlinear,
                        record_every=5)
        rep = run(g, lambda r: 0.01 * np.exp(-((r / 3.0) ** 2)), zero, cfg)
        assert rep.outcome == OUTCOME_COMPLETED
        first = dict(zip(SAMPLE_KEYS, rep.samples[0, 1:]))
        assert first["wl2"] == first["wgrad_l2"] == first["wenergy"] == math.inf
        assert all(math.isfinite(first[key]) for key in ("sup", "l2", "grad_l2", "ut_l2", "F"))
        assert np.all(np.isfinite(rep.samples[:, 1:5]))

    def test_data_past_the_blowup_threshold_rejected_before_any_step(self, monkeypatch):
        # the detector would fire on the data themselves, so a linear run would read
        # diverged and a nonlinear one blowup at the first step
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        g = make_radial_grid(1, 10.0, 0.1)
        for nonlinear in (False, True):
            cfg = RunConfig(params=params(mu1=2.0), t_max=2.0, nonlinear=nonlinear,
                            blowup_threshold=1e8)
            with pytest.raises(ValueError, match=r"max \|u0\| = 1e\+09 > blowup_threshold = 1e\+08"):
                run(g, lambda r: 1e9 * bump(r), zero, cfg)
        # u1 alone is not checked: the detector judges the first level, u0 + dt u1 + ...,
        # which these data keep below the threshold
        with pytest.raises(AssertionError, match="a step was taken"):
            run(g, bump, lambda r: 1e9 * bump(r), cfg)

    @pytest.mark.parametrize("u0, u1, p, nonlinear, threshold, outcome", [
        (bump, lambda r: 1e10 * bump(r), 2.0, True, 1e8, OUTCOME_BLOWUP),
        (bump, lambda r: 1e10 * bump(r), 2.0, False, 1e8, OUTCOME_DIVERGED),
        # |u0|^p overflows in the Taylor step, so the first level is not finite
        (lambda r: 1e7 * bump(r), zero, 50.0, True, math.inf, OUTCOME_DIVERGED),
    ])
    def test_first_level_judged_before_any_step(self, u0, u1, p, nonlinear, threshold, outcome):
        # the level at s + dt, which init_state takes, ends the run by the rule every
        # later level follows: the report holds the data's row alone
        g = make_radial_grid(1, 10.0, 0.1)
        cfg = RunConfig(params=params(mu1=2.0, p=p), t_max=2.0, nonlinear=nonlinear,
                        blowup_threshold=threshold, record_every=1)
        dt = time_step(g.step_unit, cfg)[1]
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run(g, u0, u1, cfg)
        assert rep.outcome == outcome
        assert rep.blowup_time == (cfg.s + dt if outcome == OUTCOME_BLOWUP else None)
        assert len(rep.samples) == 1


class TestLanes:
    GRID = make_radial_grid(1, 40.0, 0.1)
    DENSE = RunConfig(params=params(mu1=4.0, p=2.0), t_max=20.0, record_every=1)

    @pytest.mark.parametrize("jobs", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["massless", "massive", "diverging"])
    def test_progress_once_per_row_in_order(self, kind, jobs, forks, forced_lanes,
                                            no_child_left):
        # every row of a dense run lands in the shared row store once, whichever
        # process records it: a massless and a massive run that blow up, and an
        # undamped one whose sup passes the float range under a threshold of 1e300
        cfg = {
            "massless": self.DENSE,
            "massive": dataclasses.replace(self.DENSE, params=params(mu1=4.0, mu2sq=1.0, p=2.0)),
            "diverging": dataclasses.replace(self.DENSE, params=params(mu1=0.0, p=2.0),
                                             blowup_threshold=1e300),
        }[kind]
        serial = run(self.GRID, bump, bump, cfg)
        times = []
        rep = run(self.GRID, bump, bump, cfg, times.append, jobs=jobs)
        assert forks == [jobs - 1]
        assert rep.outcome == (OUTCOME_DIVERGED if kind == "diverging" else OUTCOME_BLOWUP)
        no_child_left()
        assert rep.outcome == serial.outcome and rep.blowup_time == serial.blowup_time
        assert rep.samples.tobytes() == serial.samples.tobytes()
        assert np.array_equal(np.array(times), rep.samples[:, 0])

    def test_lanes_never_outnumber_the_rows_left(self, forks, forced_lanes):
        # lanes fork after the second row, so 3 of the run's 5 rows are left
        cfg = dataclasses.replace(self.DENSE, t_max=0.36)
        steps = time_step(self.GRID.step_unit, cfg)[0]
        assert steps == 4
        rep = run(self.GRID, bump, bump, cfg, jobs=64)
        assert forks == [2]
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, cfg).samples.tobytes()

    @pytest.mark.parametrize("runs_that_fit, lanes_forked", [(1, []), (2, [1]), (3, [2])])
    def test_lanes_fit_the_byte_budget(self, runs_that_fit, lanes_forked, forks, forced_lanes,
                                       monkeypatch):
        import scalewave.solver as solver

        need = run_bytes(self.GRID, self.DENSE)[1]
        monkeypatch.setattr(solver, "RUN_BYTES_BUDGET", runs_that_fit * need)
        rep = run(self.GRID, bump, bump, self.DENSE, jobs=8)
        assert forks == lanes_forked
        monkeypatch.undo()
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, self.DENSE).samples.tobytes()

    @pytest.mark.parametrize("every, lanes_forked", [
        # each row costs 1 s of steps and 3 s of sample: once the run has lasted more
        # than 10 s, after its third row, it forks a lane for each of the 3 rows left
        (1, [2]),
        # each row costs 4 s of steps and 3 s of sample: it never forks
        (4, []),
    ])
    def test_lanes_wait_for_samples_dearer_than_steps_and_the_lane_start_cost(
            self, every, lanes_forked, forks, monkeypatch):
        # a clock that only the steps (1 s each) and the samples (3 s each) move
        import types

        import scalewave.lanes
        import scalewave.solver as solver

        clock = types.SimpleNamespace(now=0.0)
        clock.perf_counter = lambda: clock.now

        def ticking(cost, call):
            def ticked(*args, **kwargs):
                clock.now += cost
                return call(*args, **kwargs)
            return ticked

        def ticking_kernel(grid, config, dt):
            return ticking(1.0, leapfrog_kernel(grid, config, dt))

        monkeypatch.setattr(solver, "time", clock)
        monkeypatch.setattr(solver, "leapfrog_kernel", ticking_kernel)
        monkeypatch.setattr(_Recorder, "__call__", ticking(3.0, _Recorder.__call__))
        monkeypatch.setattr(scalewave.lanes, "LANE_START_S", 10.0)
        cfg = dataclasses.replace(self.DENSE, t_max=5 * every * 0.09, record_every=every)
        assert time_step(self.GRID.step_unit, cfg)[0] == 5 * every
        rep = run(self.GRID, bump, bump, cfg, jobs=64)
        assert forks == lanes_forked
        monkeypatch.undo()
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, cfg).samples.tobytes()

    def test_one_job_or_another_platform_forks_nothing(self, forks, forced_lanes, monkeypatch):
        serial = run(self.GRID, bump, bump, self.DENSE, jobs=1)
        monkeypatch.setattr("sys.platform", "darwin")
        elsewhere = run(self.GRID, bump, bump, self.DENSE, jobs=4)
        assert forks == []
        assert elsewhere.samples.tobytes() == serial.samples.tobytes()

    @pytest.mark.parametrize("jobs, fails_at", [(3, 1), (2, 3)])
    def test_a_lane_that_raises_is_raised_here(self, jobs, fails_at, forks, forced_lanes,
                                               monkeypatch, no_child_left):
        # each lane raises at its first row; or the one lane raises at its third, after
        # it has handed two slots back and while another waits for it (the first four
        # rows after the fork go to the lanes, one for each slot of the ring)
        parent, before = os.getpid(), open_fds()
        plain_record = _Recorder.__call__
        calls = []

        def failing_in_lanes(self, *args, **kwargs):
            if os.getpid() != parent:
                calls.append(None)
                if len(calls) == fails_at:
                    raise ZeroDivisionError("a sample failed in a lane")
            return plain_record(self, *args, **kwargs)

        monkeypatch.setattr(_Recorder, "__call__", failing_in_lanes)
        with pytest.raises(ZeroDivisionError, match="a sample failed in a lane"):
            run(self.GRID, bump, bump, self.DENSE, jobs=jobs)
        assert forks == [jobs - 1]
        no_child_left()
        assert open_fds() == before

    def test_an_interrupted_run_leaves_no_lane(self, forks, forced_lanes, no_child_left):
        def interrupt(t):
            if t > 1.0:
                raise KeyboardInterrupt

        before = open_fds()
        with pytest.raises(KeyboardInterrupt):
            run(self.GRID, bump, bump, self.DENSE, interrupt, jobs=3)
        assert forks == [2]
        no_child_left()
        # the ring's pipes are closed as well
        assert open_fds() == before

    def test_a_lane_gone_with_a_slot_free_leaves_the_rows_here(self, forks, forced_lanes,
                                                             monkeypatch, no_child_left):
        # the lane raises at its second row and is gone before the fourth row is
        # handed out: that row finds a free slot but no reader of the ready pipe
        parent, plain_fork, plain_record = os.getpid(), os.fork, _Recorder.__call__
        pids, recorded, watched = [], [], []

        def keeping_pids():
            pid = plain_fork()
            if pid:
                pids.append(pid)
            return pid

        def failing_at_the_second(self, *args, **kwargs):
            if os.getpid() != parent:
                recorded.append(None)
                if len(recorded) == 2:
                    raise ZeroDivisionError("a sample failed in a lane")
            return plain_record(self, *args, **kwargs)

        def wait_for_the_lane(t):
            # the lanes fork after the second call; the fifth follows the third row handed
            watched.append(t)
            if len(watched) == 5:
                deadline = time.perf_counter() + 30.0
                while open(f"/proc/{pids[0]}/stat").read().rsplit(")", 1)[1].split()[0] != "Z":
                    assert time.perf_counter() < deadline
                    time.sleep(0.001)

        monkeypatch.setattr(os, "fork", keeping_pids)
        monkeypatch.setattr(_Recorder, "__call__", failing_at_the_second)
        with pytest.raises(ZeroDivisionError, match="a sample failed in a lane"):
            run(self.GRID, bump, bump, self.DENSE, wait_for_the_lane, jobs=2)
        assert forks == [1]
        no_child_left()

    def test_a_row_that_never_comes_back_is_refused(self, forks, forced_lanes, monkeypatch,
                                                    no_child_left):
        # the lane takes its first slot and ends cleanly without recording that row:
        # the row is lost, not taken as recorded
        import scalewave.lanes

        parent, plain_take = os.getpid(), scalewave.lanes.IndexPipe.take

        def ending_after_the_first_in_a_lane(self):
            slot = plain_take(self)
            return None if os.getpid() != parent else slot

        monkeypatch.setattr(scalewave.lanes.IndexPipe, "take", ending_after_the_first_in_a_lane)
        with pytest.raises(RuntimeError, match="never came back"):
            run(self.GRID, bump, bump, self.DENSE, jobs=2)
        assert forks == [1]
        no_child_left()

    def test_a_refused_fork_keeps_the_forked_lane(self, tmp_path, forks, forced_lanes,
                                                  monkeypatch, no_child_left):
        # the second of two lanes cannot fork: the first records rows all the same
        plain_fork = os.fork
        calls = []

        def second_refused():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError("no more processes")
            return plain_fork()

        monkeypatch.setattr(os, "fork", second_refused)
        log = tmp_path / "recorders.log"
        logging(monkeypatch, _Recorder, "__call__", log)
        rep = run(self.GRID, bump, bump, self.DENSE, jobs=3)
        assert forks == [1] and len(calls) == 2
        no_child_left()
        assert set(log.read_text().split()) - {str(os.getpid())}
        monkeypatch.undo()
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, self.DENSE).samples.tobytes()

    def test_lanes_record_and_never_step(self, tmp_path, forks, forced_lanes, monkeypatch,
                                         no_child_left):
        import scalewave.solver as solver

        steps, records = tmp_path / "steps.log", tmp_path / "records.log"

        def logging_kernel(grid, config, dt):
            advance = leapfrog_kernel(grid, config, dt)

            def logged(*args):
                with open(steps, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                return advance(*args)

            return logged

        monkeypatch.setattr(solver, "leapfrog_kernel", logging_kernel)
        logging(monkeypatch, _Recorder, "__call__", records)
        rep = run(self.GRID, bump, bump, self.DENSE, jobs=3)
        assert forks == [2]
        no_child_left()
        parent = str(os.getpid())
        stepped = steps.read_text().split()
        # one step before each row after the first (the run records every step)
        assert set(stepped) == {parent} and len(stepped) == len(rep.samples) - 1
        assert set(records.read_text().split()) - {parent}
        monkeypatch.undo()
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, self.DENSE).samples.tobytes()

    def test_lanes_never_outnumber_the_ring_slots(self, forks, forced_lanes, no_child_left):
        # with every slot in a lane's hands, one more lane could only wait for a slot
        import scalewave.solver as solver

        rep = run(self.GRID, bump, bump, self.DENSE, jobs=64)
        assert forks == [solver._RING_SLOTS]
        no_child_left()
        assert rep.samples.tobytes() == run(self.GRID, bump, bump, self.DENSE).samples.tobytes()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_one_slot_reproduces_serial(self, jobs, forks, forced_lanes, monkeypatch):
        import scalewave.solver as solver

        serial = run(self.GRID, bump, bump, self.DENSE)
        monkeypatch.setattr(solver, "_RING_SLOTS", 1)
        rep = run(self.GRID, bump, bump, self.DENSE, jobs=jobs)
        # one slot feeds one lane, whatever the jobs
        assert forks == [1]
        assert rep.samples.tobytes() == serial.samples.tobytes()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_killed_lane_is_an_error_not_a_hang(self, jobs, forks, forced_lanes, monkeypatch,
                                                  no_child_left):
        # the first lane is killed from outside once the run passes t = 1
        plain_fork = os.fork
        pids = []

        def keeping_pids():
            pid = plain_fork()
            if pid:
                pids.append(pid)
            return pid

        def kill_first_lane(t):
            if t > 1.0 and len(pids) == jobs - 1:
                os.kill(pids.pop(0), 9)

        monkeypatch.setattr(os, "fork", keeping_pids)
        before, start = open_fds(), time.perf_counter()
        with pytest.raises(RuntimeError, match="without sending"):
            run(self.GRID, bump, bump, self.DENSE, kill_first_lane, jobs=jobs)
        assert forks == [jobs - 1] and len(pids) == jobs - 2
        no_child_left()
        assert open_fds() == before
        assert time.perf_counter() - start < 30.0

