import numpy as np
import pytest

import scalewave.analysis
import scalewave.solver
from scalewave.analysis import (
    GLOBAL_LOOKING,
    UNDECIDED,
    classify_run,
    fit_decay,
    run_all,
    sweep,
)
from scalewave.grid import make_radial_grid
from scalewave.model import ModelParams, borderline_log_factor
from scalewave.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    OUTCOME_DIVERGED,
    SAMPLE_KEYS,
    RunConfig,
    RunReport,
    run,
    run_bytes,
)


def bump(r):
    return np.where(r < 2.0, (1.0 - np.clip(r / 2.0, 0.0, 1.0) ** 2) ** 3, 0.0)


def make_report(t, values_by_key, outcome=OUTCOME_COMPLETED, blowup_time=None, t_max=10.0):
    config = RunConfig(params=ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0), t_max=t_max)
    samples = np.full((len(t), 1 + len(SAMPLE_KEYS)), np.nan)
    samples[:, 0] = t
    for key, values in values_by_key.items():
        samples[:, 1 + SAMPLE_KEYS.index(key)] = values
    return RunReport(config=config, samples=samples, outcome=outcome, blowup_time=blowup_time)


class TestFitDecay:
    def test_pure_power_law(self):
        t = np.linspace(0.0, 50.0, 200)
        fit = fit_decay(t, (1.0 + t) ** -1.5, (5.0, 50.0))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-9)
        assert fit.stderr < 1e-8

    def test_prefactor_irrelevant(self):
        t = np.linspace(0.0, 50.0, 200)
        fit = fit_decay(t, 3.0 * (1.0 + t) ** -0.5, (5.0, 50.0))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-9)

    def test_log_correction(self):
        params = ModelParams(n=1, mu1=3.0, mu2sq=0.0, p=2.0)  # borderline discriminant
        t = np.linspace(0.0, 100.0, 400)
        values = (1.0 + t) ** -1.0 * (1.0 + np.sqrt(np.log1p(t)))
        fit = fit_decay(t, values, (10.0, 100.0),
                        log_factor=lambda tt: borderline_log_factor(params, tt))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
        assert fit.log_corrected

    def test_errors(self):
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(ValueError):
            fit_decay(t, np.ones_like(t) - 2.0, (1.0, 9.0))  # nonpositive values
        # an inf or a NaN sample in the window, as a diverging run records them
        for bad in (np.inf, np.nan):
            values = (1.0 + t) ** -0.5
            values[50] = bad
            with pytest.raises(ValueError, match="finite positive values"):
                fit_decay(t, values, (1.0, 9.0))
        with pytest.raises(ValueError):
            fit_decay(t, np.ones_like(t), (9.99, 10.0))  # too few samples

    def test_single_distinct_time_rejected(self):
        t = np.full(8, 5.0)
        with pytest.raises(ValueError, match="single distinct time"):
            fit_decay(t, np.linspace(1.0, 0.5, 8), (4.0, 5.5))


class TestClassifyRun:
    def test_blowup_report(self):
        t = np.linspace(0.0, 3.0, 10)
        ones = np.ones_like(t)
        rep = make_report(t, {"l2": ones, "wgrad_l2": ones},
                          outcome=OUTCOME_BLOWUP, blowup_time=3.0)
        assert classify_run(rep)[0] == OUTCOME_BLOWUP

    def test_zero_data_global_looking(self):
        t = np.linspace(0.0, 10.0, 20)
        zeros = np.zeros_like(t)
        rep = make_report(t, {"l2": zeros, "wgrad_l2": zeros})
        assert classify_run(rep)[0] == GLOBAL_LOOKING

    def test_growing_weighted_energy_undecided(self):
        t = np.linspace(0.0, 10.0, 30)
        l2 = (1.0 + t) ** -0.5
        wgrad = 1.0 + 5.0 * t  # factor ~50 growth
        rep = make_report(t, {"l2": l2, "wgrad_l2": wgrad})
        assert classify_run(rep)[0] == UNDECIDED

    def test_decaying_run_global_looking(self):
        t = np.linspace(0.0, 10.0, 50)
        rep = make_report(t, {"l2": (1.0 + t) ** -0.5, "wgrad_l2": np.ones_like(t)})
        assert classify_run(rep)[0] == GLOBAL_LOOKING

    def test_growing_l2_undecided(self):
        t = np.linspace(0.0, 10.0, 50)
        rep = make_report(t, {"l2": 1.0 + t, "wgrad_l2": np.ones_like(t)})
        assert classify_run(rep)[0] == UNDECIDED

    def test_custom_bound(self):
        t = np.linspace(0.0, 10.0, 50)
        rep = make_report(t, {"l2": (1.0 + t) ** -0.5, "wgrad_l2": 1.0 + 0.2 * t})
        assert classify_run(rep)[0] == GLOBAL_LOOKING

    def test_global_looking_carries_its_fit(self):
        t = np.linspace(0.0, 10.0, 50)
        rep = make_report(t, {"l2": (1.0 + t) ** -0.5, "wgrad_l2": np.ones_like(t)})
        label, fit = classify_run(rep)
        assert label == GLOBAL_LOOKING
        assert fit.window == (1.0, 10.0)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-9)
        rep = make_report(t, {"l2": 1.0 + t, "wgrad_l2": np.ones_like(t)})
        assert classify_run(rep) == (UNDECIDED, None)

    def test_diverged_run_keeps_its_outcome(self):
        t = np.linspace(0.0, 3.0, 10)
        ones = np.ones_like(t)
        rep = make_report(t, {"l2": ones, "wgrad_l2": ones}, outcome=OUTCOME_DIVERGED)
        assert classify_run(rep) == (OUTCOME_DIVERGED, None)

    def test_weighted_norm_infinite_from_the_start_undecided(self):
        # data outside the weighted space: inf/inf bounds nothing, though l2 decays
        t = np.linspace(0.0, 10.0, 50)
        rep = make_report(t, {"l2": (1.0 + t) ** -0.5, "wgrad_l2": np.full_like(t, np.inf)})
        assert classify_run(rep) == (UNDECIDED, None)

    def test_single_distinct_time_in_window_undecided(self):
        t = np.array([0.0] + [5.0] * 8)
        rep = make_report(t, {"l2": np.linspace(1.0, 0.5, 9), "wgrad_l2": np.ones_like(t)})
        assert classify_run(rep) == (UNDECIDED, None)


class TestSweep:
    def test_empty_p_list(self):
        grid = make_radial_grid(1, 12.0, 0.1)
        base = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
        cfg = RunConfig(params=base, t_max=4.0, record_every=2)
        assert sweep(grid, [], [1.0], cfg, bump) == []

    def test_outcomes_and_order(self):
        grid = make_radial_grid(1, 24.0, 0.05)
        base = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
        cfg = RunConfig(params=base, t_max=16.0, record_every=5)
        rows = sweep(grid, [1.5, 4.0], [1.0, 0.01], cfg, bump, bump)
        assert [(r.params.p, r.amplitude) for r in rows] == [
            (1.5, 1.0), (1.5, 0.01), (4.0, 1.0), (4.0, 0.01)
        ]
        by_cell = {(r.params.p, r.amplitude): r for r in rows}
        assert by_cell[(1.5, 1.0)].outcome == OUTCOME_BLOWUP
        assert by_cell[(1.5, 1.0)].blowup_time is not None
        assert all(r.regime.p_crit == pytest.approx(3.0) for r in rows)
        assert by_cell[(4.0, 1.0)].regime.global_existence_applicable
        assert by_cell[(1.5, 1.0)].regime.blowup_range_applicable

    def test_parallel_matches_serial(self, forks):
        # two jobs fork one lane before the first cell
        grid = make_radial_grid(1, 12.0, 0.1)
        base = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
        cfg = RunConfig(params=base, t_max=4.0, record_every=4)
        serial = sweep(grid, [1.5, 2.0, 4.0], [0.5], cfg, _unit_bump)
        parallel = sweep(grid, [1.5, 2.0, 4.0], [0.5], cfg, _unit_bump, jobs=2)
        assert forks == [1]
        assert [r.outcome for r in serial] == [r.outcome for r in parallel]
        assert [r.blowup_time for r in serial] == [r.blowup_time for r in parallel]
        assert serial == parallel

    def test_one_decay_fit_per_cell(self, monkeypatch):
        calls = []
        original = scalewave.analysis.fit_decay

        def counting_fit_decay(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(scalewave.analysis, "fit_decay", counting_fit_decay)
        grid = make_radial_grid(1, 12.0, 0.1)
        base = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
        cfg = RunConfig(params=base, t_max=8.0, record_every=2)
        rows = sweep(grid, [3.5, 4.5], [0.01, 0.1], cfg, _unit_bump)
        assert [r.outcome for r in rows] == [GLOBAL_LOOKING] * 4
        assert all(r.l2_exponent < 0.0 for r in rows)
        assert calls == [(0.8, 8.0)] * 4


def _three_tasks():
    # three grids and three configs: n = 1 linear, n = 3 at cfl_safety 0.5, n = 2 massive;
    # the last task holds the most bytes, more than twice either other's
    linear = RunConfig(params=ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0), t_max=4.0,
                       nonlinear=False, record_every=4)
    careful = RunConfig(params=ModelParams(n=3, mu1=4.0, mu2sq=0.0, p=2.0), t_max=4.0,
                        cfl_safety=0.5, record_every=4)
    massive = RunConfig(params=ModelParams(n=2, mu1=4.0, mu2sq=2.0, p=2.0), t_max=6.0,
                        record_every=2)
    return [(make_radial_grid(1, 12.0, 0.1), _unit_bump, _unit_bump, linear),
            (make_radial_grid(3, 12.0, 0.1), _unit_bump, lambda r: 0.0 * r, careful),
            (make_radial_grid(2, 30.0, 0.05), lambda r: 0.5 * _unit_bump(r), _unit_bump, massive)]


def _outcome_and_bits(report):
    return report.outcome, report.samples.tobytes()


class TestRunAll:
    def test_lanes_return_what_one_process_returns(self, forks, no_child_left):
        tasks = _three_tasks()
        serial = run_all(tasks, _outcome_and_bits)
        assert forks == []
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert forks == [2]
        assert [outcome for outcome, _ in serial] == [OUTCOME_COMPLETED] * 3
        no_child_left()

    def test_the_largest_task_caps_the_lanes(self, forks, monkeypatch):
        tasks = _three_tasks()
        serial = run_all(tasks, _outcome_and_bits)
        sizes = [run_bytes(grid, config)[1] for grid, _, _, config in tasks]
        assert max(sizes) == sizes[2] > 2 * max(sizes[:2])
        monkeypatch.setattr(scalewave.solver, "RUN_BYTES_BUDGET", sizes[2])
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert forks == []

    def test_the_lowest_raising_task_raises(self, forks, no_child_left):
        def reduce(report):
            if report.config.params.n != 3:
                raise ValueError(f"task with n = {report.config.params.n}")
            return report.outcome

        with pytest.raises(ValueError, match="task with n = 1"):
            run_all(_three_tasks(), reduce, jobs=2)
        assert forks == [1]
        no_child_left()

    def test_no_task(self, forks):
        assert run_all([], _outcome_and_bits, jobs=3) == []
        assert forks == []


def _unit_bump(r):
    return np.where(r < 2.0, (1.0 - np.clip(r / 2.0, 0.0, 1.0) ** 2) ** 3, 0.0)


@pytest.fixture(scope="module")
def blowup_report():
    grid = make_radial_grid(1, 40.0, 0.05)
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    cfg = RunConfig(params=params, t_max=30.0, nonlinear=True, record_every=5)
    return run(grid, _unit_bump, _unit_bump, cfg)


def test_initial_integral_matches_data_integral(blowup_report):
    # the comparison frame is the identity at t = 0
    from scalewave.grid import integrate

    grid = make_radial_grid(1, 40.0, 0.05)
    expected = integrate(grid, _unit_bump(grid.r))
    t, f = blowup_report.series("F")
    assert f[0] == pytest.approx(expected, rel=1e-12)
