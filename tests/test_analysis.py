import functools
import os
import sys
import time

import numpy as np
import pytest

import scalewave.analysis
import scalewave.lanes
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


def _scaled_bump(k, r):
    # the data of task k of _tasks: (k + 1) / 10 times the unit bump
    return 0.1 * (k + 1) * _unit_bump(r)


def _tasks(count):
    # ``count`` short nonlinear runs on one grid; task k's u0 is a partial whose
    # ``args[0]`` is k, so a run tells which task it is
    grid = make_radial_grid(1, 8.0, 0.1)
    config = RunConfig(params=ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0), t_max=2.0,
                       record_every=4)
    return [(grid, functools.partial(_scaled_bump, k), lambda r: 0.0 * r, config)
            for k in range(count)]


def _outcome_and_bits(report):
    return report.outcome, report.samples.tobytes()


def _patch_run(monkeypatch, before):
    """Have each run, in any process, call ``before(k, in_lane)`` first, k being its task of
    ``_tasks`` and ``in_lane`` whether the process is a forked lane."""
    plain_run, parent = scalewave.analysis.run, os.getpid()

    def patched(grid, u0, u1, config, progress=None):
        before(u0.args[0], os.getpid() != parent)
        return plain_run(grid, u0, u1, config, progress)

    monkeypatch.setattr(scalewave.analysis, "run", patched)


def _logging_run(monkeypatch, log, slow):
    """Have every process append "pid k" to ``log`` as it starts task k, then sleep 0.3 s
    before the run where ``slow(in_lane)`` holds."""
    def before(k, in_lane):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {k}\n")
        if slow(in_lane):
            time.sleep(0.3)

    _patch_run(monkeypatch, before)


def _tasks_by_process(log) -> dict:
    # {pid: the tasks that process started, in the order it started them}
    started = {}
    for line in log.read_text().splitlines():
        pid, k = map(int, line.split())
        started.setdefault(pid, []).append(k)
    return started


class TestRunAll:
    """run_all's rules, on direct calls: the lanes' values are those of one process."""

    def test_lanes_return_what_one_process_returns(self, forks, no_child_left):
        tasks = _three_tasks()
        serial = run_all(tasks, _outcome_and_bits)
        assert forks == []
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert run_all(tasks, _outcome_and_bits, jobs=2) == serial
        assert forks == [2, 1]
        assert [outcome for outcome, _ in serial] == [OUTCOME_COMPLETED] * 3
        no_child_left()

    @pytest.mark.parametrize("count, jobs, lanes", [
        (3, 64, 2), (2, 8, 1), (1, 8, 0), (0, 3, 0), (3, 1, 0)])
    def test_lanes_never_outnumber_the_tasks_but_one(self, count, jobs, lanes, forks):
        # this process runs tasks too, so one task, no task or one job forks nothing
        tasks = _tasks(count)
        assert run_all(tasks, _outcome_and_bits, jobs=jobs) == run_all(tasks, _outcome_and_bits)
        assert forks == ([lanes] if lanes else [])

    def test_the_largest_task_caps_the_lanes(self, forks, monkeypatch):
        tasks = _three_tasks()
        serial = run_all(tasks, _outcome_and_bits)
        sizes = [run_bytes(grid, config)[1] for grid, _, _, config in tasks]
        assert max(sizes) == sizes[2] > 2 * max(sizes[:2])
        monkeypatch.setattr(scalewave.solver, "RUN_BYTES_BUDGET", sizes[2])
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert forks == []

    def test_lanes_fork_before_the_first_task(self, forks, monkeypatch):
        # a task takes milliseconds, far below this lane-start cost, which only a run reads
        monkeypatch.setattr(scalewave.lanes, "LANE_START_S", 10.0)
        seen_here = []

        def seeing(k, in_lane):
            if in_lane:
                time.sleep(0.2)  # so that this process takes a task too
            else:
                seen_here.append(list(forks))

        _patch_run(monkeypatch, seeing)
        run_all(_tasks(3), _outcome_and_bits, jobs=8)
        assert forks == [2] and seen_here and all(seen == [2] for seen in seen_here)

    def test_lanes_take_tasks_in_input_order(self, forks, tmp_path, monkeypatch):
        # one pipe hands out every task, in input order; every process starts its
        # tasks in that order, and each task runs once
        log = tmp_path / "tasks.log"
        # once lanes have forked, this process is slow, so the lanes start tasks too
        _logging_run(monkeypatch, log, lambda in_lane: bool(forks) and not in_lane)
        tasks = _tasks(8)
        serial = run_all(tasks, _outcome_and_bits)
        log.unlink()
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert forks == [2]
        started = _tasks_by_process(log)
        assert len(started) >= 2
        for ks in started.values():
            assert ks == sorted(ks)
        assert sorted(k for ks in started.values() for k in ks) == list(range(8))

    def test_this_process_stays_a_lane(self, forks, tmp_path, monkeypatch):
        # a slow lane starts one task at most, and this process takes every task the
        # lane has not taken
        log = tmp_path / "tasks.log"
        _logging_run(monkeypatch, log, lambda in_lane: in_lane)
        assert len(run_all(_tasks(8), _outcome_and_bits, jobs=2)) == 8
        assert forks == [1]
        started = _tasks_by_process(log)
        here = started.pop(os.getpid())
        assert len(here) >= 7
        assert sorted(here + [k for ks in started.values() for k in ks]) == list(range(8))

    def test_lanes_reduce_under_the_callers_numpy_error_state(self, forks, tmp_path):
        # a run ignores overflow; lanes forked inside one would inherit that state,
        # and a RuntimeWarning in them would go unseen
        caller, parent = np.geterr(), os.getpid()
        reduced = tmp_path / "reduced.log"

        def checking(report):
            if np.geterr() != caller:
                raise ValueError(f"reduced under {np.geterr()}")
            if os.getpid() == parent:
                time.sleep(0.2)  # so that the lane takes the other tasks
            with open(reduced, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return report.outcome

        run_all(_tasks(4), checking, jobs=2)
        assert forks == [1]
        assert {int(pid) for pid in reduced.read_text().split()} - {parent}

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_raising_task_raises_as_serially_and_leaves_no_lane(self, jobs, forks,
                                                                   no_child_left):
        # task 2's data are past the blow-up threshold; the other tasks are fine
        tasks = _tasks(5)
        grid, _, u1, config = tasks[2]
        tasks[2] = (grid, lambda r: 1e140 * _unit_bump(r), u1, config)
        with pytest.raises(ValueError, match="past the blow-up threshold") as serial:
            run_all(tasks, _outcome_and_bits)
        with pytest.raises(ValueError) as fanned:
            run_all(tasks, _outcome_and_bits, jobs=jobs)
        assert (type(fanned.value), str(fanned.value)) == (type(serial.value), str(serial.value))
        assert forks == [jobs - 1]
        no_child_left()

    def test_the_lowest_raising_task_raises(self, forks, monkeypatch, no_child_left):
        # task 2 raises late, in a lane, and task 3 at once: a serial loop raises task
        # 2's error, and so do the lanes
        def raising(k, in_lane):
            if k == 1:
                time.sleep(0.2)  # the first lane holds this task while the next take theirs
            if k == 2:
                time.sleep(0.3)
                raise ValueError("task 2")
            if k == 3:
                raise ValueError("task 3")

        _patch_run(monkeypatch, raising)
        for jobs in (1, 3):
            with pytest.raises(ValueError, match="^task 2$"):
                run_all(_tasks(5), _outcome_and_bits, jobs=jobs)
        assert forks == [2]
        no_child_left()

    def test_an_interrupt_leaves_no_lane(self, forks, monkeypatch, no_child_left):
        # this process is interrupted in a later task while a lane sleeps in its own
        def interrupted(k, in_lane):
            if in_lane:
                time.sleep(30.0)
            elif k:
                raise KeyboardInterrupt

        _patch_run(monkeypatch, interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_all(_tasks(5), _outcome_and_bits, jobs=2)
        assert forks == [1]
        no_child_left()
        assert time.perf_counter() - start < 10.0

    def test_a_refused_fork_runs_the_tasks_here(self, forks, monkeypatch, no_child_left):
        def refused():
            raise BlockingIOError("no more processes")

        tasks = _tasks(3)
        serial = run_all(tasks, _outcome_and_bits)
        monkeypatch.setattr(os, "fork", refused)
        assert run_all(tasks, _outcome_and_bits, jobs=3) == serial
        assert forks == [0]
        no_child_left()

    def test_no_lanes_off_linux(self, forks, monkeypatch):
        tasks = _tasks(3)
        serial = run_all(tasks, _outcome_and_bits)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert run_all(tasks, _outcome_and_bits, jobs=4) == serial
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
