import ast
import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import scalewave.analysis
import scalewave.cli
import scalewave.lanes
import scalewave.verify
from scalewave.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    format_float,
    parse_and_dispatch,
    read_series_csv,
    write_run_csv,
)
from scalewave.checks import CheckReport
from scalewave.grid import RadialGrid, make_radial_grid
from scalewave.model import ModelParams
from scalewave.solver import RunConfig, RunReport, run
from scalewave.verify import SUITES, inequality_suite_bytes


@pytest.fixture
def spacing_step_unit(monkeypatch):
    """Every grid's step unit is its spacing, past the leapfrog bound of n >= 2: at
    the default cfl_safety 0.9 an n = 3 run is then unstable (bound 0.816 dr)."""
    monkeypatch.setattr(RadialGrid, "step_unit", property(lambda grid: grid.dr))


@pytest.fixture
def no_grid_array(monkeypatch):
    """Forming any grid's radii or weights fails: a command refused before any work
    allocates no grid array (building a grid allocates none)."""
    def no_allocation(grid):
        raise AssertionError("a grid array was allocated")

    for name in ("r", "quad_weights"):
        monkeypatch.setattr(RadialGrid, name, property(no_allocation))


@pytest.fixture(scope="module")
def schema():
    text = resources.files("scalewave").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate(path, schema):
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, schema)
    return payload


def test_schema_names_every_suite_and_report_kind(schema):
    # a suite added to verify.SUITES alone is offered and run, but its report fails
    # the shipped schema until the suite enum names it too
    verify_kind = next(branch["then"] for branch in schema["allOf"]
                       if branch["if"]["properties"]["kind"]["const"] == "verify")
    assert verify_kind["properties"]["suite"]["enum"] == list(SUITES)
    # every JSON report starts from cli._report_header(kind)
    tree = ast.parse(Path(scalewave.cli.__file__).read_text())
    kinds = [node.args[0].value for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_report_header"]
    assert sorted(schema["properties"]["kind"]["enum"]) == sorted(kinds)


class TestInfo:
    def test_prints_regime_facts(self, capsys, tmp_path):
        out = tmp_path / "info.json"
        code = parse_and_dispatch(
            ["info", "--set", "n=1", "--set", "mu1=4", "--set", "mu2sq=0",
             "--set", "p=2", "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "delta = 9" in captured
        assert "p_crit = 3" in captured
        assert "blowup_range_applicable = true" in captured

    def test_json_schema(self, tmp_path, schema):
        out = tmp_path / "info.json"
        parse_and_dispatch(["info", "--set", "mu1=4", "--out", str(out)])
        payload = validate(out, schema)
        assert payload["kind"] == "info"
        assert payload["delta"] == 9.0


class TestSimulate:
    def test_zero_data_all_zero_columns(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = parse_and_dispatch(
            ["simulate", "--set", "u0_kind=zero", "--set", "u1_kind=zero",
             "--set", "t_max=2.0", "--set", "r_max=10", "--set", "dr=0.1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "t,sup,l2,grad_l2,ut_l2,wl2,wgrad_l2,wenergy,F"
        for column in ("sup", "l2", "wenergy", "F"):
            _, vals = read_series_csv(out, column)
            assert np.all(vals == 0.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--set", "u0_kind=bump", "--set", "u0_width=2.0",
                "--set", "t_max=3.0", "--set", "r_max=12", "--set", "dr=0.1",
                "--set", "mu1=2.0", "--set", "nonlinear=false"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert parse_and_dispatch(args + ["--out", str(out1)]) == EXIT_OK
        assert parse_and_dispatch(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_diverged_exit_code(self, tmp_path):
        out = tmp_path / "div.csv"
        code = parse_and_dispatch(
            ["simulate", "--set", "u0_kind=bump", "--set", "u0_amplitude=10",
             "--set", "u0_width=2.0", "--set", "p=5.0", "--set", "t_max=5.0",
             "--set", "r_max=10", "--set", "dr=0.1",
             "--set", "blowup_threshold=1e300", "--out", str(out)]
        )
        assert code == EXIT_DIVERGED

    def test_weighted_columns_finite_beyond_weight_budget(self, tmp_path):
        # the weight exponent mu1*r^2 alone exceeds the overflow budget on the
        # default grid, but e^{2W} u0^2 ~ e^{-6.5 r^2} is a finite integrand
        out = tmp_path / "mu6.csv"
        assert parse_and_dispatch(["simulate", "--set", "mu1=6", "--out", str(out)]) == EXIT_OK
        for column in ("wl2", "wgrad_l2", "wenergy"):
            _, vals = read_series_csv(out, column)
            assert vals.size > 1 and np.all(np.isfinite(vals))

    def test_unstable_linear_run_exits_diverged(self, tmp_path, capsys, spacing_step_unit):
        # dt = 0.9 dr is above the n = 3 leapfrog bound (0.816 dr)
        out = tmp_path / "n3.csv"
        code = parse_and_dispatch(
            ["simulate", "--set", "n=3", "--set", "mu1=6", "--set", "nonlinear=false",
             "--set", "t_max=20", "--set", "r_max=40", "--out", str(out)]
        )
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().out == "outcome: diverged\n"

    @pytest.mark.parametrize("dr", ["0.1", "0.05", "0.025"])
    @pytest.mark.parametrize("model", [["n=3", "mu1=6", "p=2.5"], ["n=4", "mu1=6", "p=4"],
                                       ["n=5", "mu1=6", "p=4"]])
    def test_global_range_runs_complete_at_the_default_cfl(self, model, dr, tmp_path, capsys):
        # p in the global range (p_crit 2 in n = 3, 1.5 in n = 4 and 5): at each
        # dimension's step rule these small-data runs complete, where dt = 0.9 dr
        # labelled them blowup (at t = 1.12 for n = 3, dr = 0.05)
        argv = ["simulate", *(arg for key in model for arg in ("--set", key)), "--set", "t_max=20",
                "--set", "r_max=40", "--set", f"dr={dr}", "--jobs", "1",
                "--out", str(tmp_path / "run.csv")]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert capsys.readouterr().out == "outcome: completed\n"

    def test_csv_round_trips_every_series_bitwise(self, tmp_path):
        g = make_radial_grid(2, 12.0, 0.1)
        cfg = RunConfig(params=ModelParams(n=2, mu1=3.0, mu2sq=0.5, p=2.5), t_max=2.0,
                        cfl_safety=0.8, record_every=3)
        report = run(g, lambda r: np.exp(-((r / 0.6) ** 2)), lambda r: 0.0 * r, cfg)
        out = tmp_path / "run.csv"
        write_run_csv(report, out)
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
        for key in CSV_COLUMNS[1:]:
            t, values = report.series(key)
            t_csv, values_csv = read_series_csv(out, key)
            assert np.array_equal(t_csv, t)
            assert np.array_equal(values_csv, values)

    def test_csv_rows_match_format_float_on_special_values(self, tmp_path):
        # the one-template row format writes what joining format_float wrote
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1.0 / 3.0]
        rng = np.random.default_rng(5)
        random_bits = rng.integers(0, 2**63, size=200, dtype=np.uint64).view(np.float64)
        values = np.concatenate([special, random_bits, -random_bits])
        width = len(CSV_COLUMNS)
        values = np.resize(values, (-(-values.size // width), width))
        cfg = RunConfig(params=ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0), t_max=1.0)
        out = tmp_path / "run.csv"
        write_run_csv(RunReport(config=cfg, samples=values, outcome="completed"), out)
        want = [",".join(CSV_COLUMNS)]
        want += [",".join(format_float(x) for x in row) for row in values.tolist()]
        assert out.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"t_max": 2.0, "r_max": 10.0, "dr": 0.1,
                                   "u0_kind": "zero", "u1_kind": "zero"}))
        out = tmp_path / "run.csv"
        code = parse_and_dispatch(["simulate", "--config", str(cfg),
                                   "--set", "t_max=1.0", "--out", str(out)])
        assert code == EXIT_OK
        t, _ = read_series_csv(out, "l2")
        assert t[-1] == pytest.approx(1.0)


class TestSimulateJobs:
    SHAPE = ["--set", "r_max=40", "--set", "t_max=20", "--set", "dr=0.1",
             "--set", "record_every=1"]
    BUMP = ["--set", "u0_kind=bump", "--set", "u0_width=3", "--set", "u1_kind=bump",
            "--set", "u1_amplitude=1", "--set", "u1_width=3"]
    CASES = {
        "linear": ["--set", "nonlinear=false", "--set", "mu1=4"],
        "nonlinear": ["--set", "p=4", "--set", "u0_amplitude=0.01"],
        "blowup": ["--set", "mu1=0", "--set", "p=2"] + BUMP,
        "diverged": ["--set", "mu1=0", "--set", "p=2", "--set", "blowup_threshold=1e300"] + BUMP,
        "massive": ["--set", "mu1=5", "--set", "mu2sq=2", "--set", "u1_kind=gaussian",
                    "--set", "u1_amplitude=0.5"],
    }
    # n = 1 outcomes
    OUTCOMES = {"linear": "completed", "nonlinear": "completed", "blowup": "blowup",
                "diverged": "diverged", "massive": "completed"}

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_is_byte_identical_for_every_jobs(self, n, case, forks, forced_lanes, tmp_path,
                                                  capsys, no_child_left):
        argv = ["simulate", "--set", f"n={n}"] + self.SHAPE + self.CASES[case]
        results = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"run-{jobs}.csv"
            code = parse_and_dispatch(argv + ["--jobs", jobs, "--out", str(out)])
            results.append((code, capsys.readouterr().out, out.read_bytes()))
        assert results[1] == results[0] and results[2] == results[0]
        # one fork-out for each of --jobs 2 and 3, each with all its lanes
        assert forks == [1, 2]
        no_child_left()
        if n == 1:
            assert results[0][1].startswith(f"outcome: {self.OUTCOMES[case]}")
            assert results[0][0] == (EXIT_DIVERGED if case == "diverged" else EXIT_OK)

    def test_jobs_below_one_is_a_usage_error(self, forks):
        assert parse_and_dispatch(["simulate", "--jobs", "0"]) == EXIT_USAGE
        assert forks == []

    def test_jobs_default_is_the_usable_cpu_count(self, monkeypatch, tmp_path):
        seen = []
        plain_run = scalewave.cli.run

        def recording_run(grid, u0, u1, config, jobs):
            seen.append(jobs)
            return plain_run(grid, u0, u1, config)

        monkeypatch.setattr(scalewave.cli, "run", recording_run)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
        argv = ["simulate", "--set", "t_max=1", "--set", "r_max=5",
                "--out", str(tmp_path / "run.csv")]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert seen == [2]


class TestSweep:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = parse_and_dispatch(
            ["sweep", "--set", "p_values=[1.5,2.0]", "--set", "amplitudes=[1.0]",
             "--set", "u0_kind=bump", "--set", "u0_width=2.0",
             "--set", "u1_kind=bump", "--set", "u1_width=2.0",
             "--set", "t_max=12.0", "--set", "r_max=20", "--set", "dr=0.1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("p,amplitude,outcome,blowup_time")
        assert "blowup" in lines[1]

    def test_parallel_jobs_reproduce_serial_csv(self, tmp_path, forks):
        # two jobs are this process and one lane, forked before the first cell
        args = ["sweep", "--set", "p_values=[1.5,2.0,2.5]", "--set", "amplitudes=[1.0]",
                "--set", "u0_kind=bump", "--set", "u0_width=2.0",
                "--set", "u1_kind=bump", "--set", "u1_width=2.0",
                "--set", "t_max=6.0", "--set", "r_max=12", "--set", "dr=0.1"]
        serial = tmp_path / "serial.csv"
        fanout = tmp_path / "fanout.csv"
        assert parse_and_dispatch(args + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        assert forks == []
        assert parse_and_dispatch(args + ["--jobs", "2", "--out", str(fanout)]) == EXIT_OK
        assert forks == [1]
        assert serial.read_bytes() == fanout.read_bytes()

    def test_diverged_cell_labelled_and_exits_diverged(self, tmp_path, spacing_step_unit):
        # dt = 0.9 dr is above the n = 3 leapfrog bound (0.816 dr)
        out = tmp_path / "n3.csv"
        code = parse_and_dispatch(
            ["sweep", "--set", "n=3", "--set", "mu1=6", "--set", "nonlinear=false",
             "--set", "t_max=20", "--set", "r_max=40", "--set", "p_values=[2]",
             "--set", "amplitudes=[1]", "--out", str(out)]
        )
        assert code == EXIT_DIVERGED
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2:5] == ["diverged", "", ""]


class TestVerifyCli:
    def test_bihari_suite_json(self, tmp_path, schema):
        out = tmp_path / "bihari.json"
        code = parse_and_dispatch(["verify", "bihari", "--out", str(out), "--seed", "7"])
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert payload["suite"] == "bihari"
        assert payload["seed"] == 7
        assert all(check["passed"] for check in payload["checks"])

    def test_identities_suite_json(self, tmp_path, schema):
        out = tmp_path / "ident.json"
        code = parse_and_dispatch(
            ["verify", "identities", "--set", "mu1=2.0", "--set", "mu2sq=1.0",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert {c["check_id"] for c in payload["checks"]} >= {
            "weight-exponent-identities", "energy-rate-identity"
        }

    def test_identities_without_damping_skip_the_energy_identity(self, tmp_path, schema,
                                                                  capsys):
        # mu1 = 0: W vanishes, so the weight-exponent and sign checks hold trivially and
        # the energy identity, which divides by W_t, is skipped with a note
        out = tmp_path / "ident.json"
        argv = ["verify", "identities", "--set", "mu1=0", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        checks = validate(out, schema)["checks"]
        assert [(c["check_id"], c["passed"], c["skipped"]) for c in checks] == [
            ("weight-exponent-identities", True, False), ("dissipativity-signs", True, False),
            ("energy-rate-identity", True, True)]
        assert checks[-1]["notes"] == ["skipped: W_t vanishes identically for mu1 = 0"]
        out_text, err = capsys.readouterr()
        assert err == ""
        assert [line.split()[0] for line in out_text.splitlines()] == ["PASS", "PASS", "SKIP"]

    def test_a_suite_is_one_entry_of_the_registry(self, tmp_path, monkeypatch, capsys):
        # an entry added to verify.SUITES is offered, parsed against its own defaults and
        # reported; the report schema's suite enum must name it too, which
        # test_schema_names_every_suite_and_report_kind checks for the shipping suites
        calls = []

        def toy(cfg, seed):
            calls.append((cfg, seed))
            return [CheckReport("toy-bound", 3, 0.5, 1.0),
                    CheckReport("toy-skip", 0, math.nan, 1.0, ["skipped: toy"], skipped=True)]

        monkeypatch.setitem(SUITES, "toy", ({"width": 2.0}, toy))
        out = tmp_path / "toy.json"
        argv = ["verify", "toy", "--set", "width=3", "--seed", "5", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert calls == [({"width": 3.0}, 5)]
        payload = json.loads(out.read_text())
        assert (payload["kind"], payload["suite"], payload["seed"]) == ("verify", "toy", 5)
        assert payload["checks"] == [c.to_dict() for c in toy({"width": 3.0}, 5)]
        assert capsys.readouterr() == ("PASS toy-bound: worst=0.5 tol=1\n"
                                       "SKIP toy-skip: worst=nan tol=1\n", "")
        assert parse_and_dispatch(["verify", "toy", "--set", "sigma=0.5"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "error: unknown config key 'sigma'\n")
        monkeypatch.delitem(SUITES, "toy")
        assert parse_and_dispatch(["verify", "toy"]) == EXIT_USAGE
        assert "invalid choice: 'toy'" in capsys.readouterr().err

    def test_inequalities_suite_json(self, tmp_path, schema):
        out = tmp_path / "ineq.json"
        code = parse_and_dispatch(["verify", "inequalities", "--out", str(out)])
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert all(c["passed"] or c["skipped"] for c in payload["checks"])

    def test_inequalities_in_the_global_regime_of_n3(self, tmp_path, schema, capsys):
        # the global theorem needs delta >= (n + 1)^2, so mu1 >= 5 in n = 3 without mass;
        # there some quadrature terms pass e^600 and are summed scaled, not refused
        out = tmp_path / "ineq.json"
        argv = ["verify", "inequalities", "--set", "n=3", "--set", "mu1=5", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        checks = validate(out, schema)["checks"]
        assert all(c["passed"] and not c["skipped"] and c["n_cases"] > 0 for c in checks)
        assert not any("weight overflow" in note for c in checks for note in c["notes"])
        out_text, err = capsys.readouterr()
        assert err == "" and out_text.count("PASS ") == len(checks) == 6

    @pytest.mark.parametrize("setting", [
        # every member's integrals on the wide grid pass the float range at every time
        "mu1=40",
        # and every case of every check
        "mu1=1e300",
    ])
    def test_inequalities_with_nothing_to_compare_skip(self, setting, tmp_path, schema, capsys):
        # a check left with nothing to compare is skipped with a note: no traceback, and
        # no PASS over zero cases
        out = tmp_path / "ineq.json"
        argv = ["verify", "inequalities", "--set", setting, "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        checks = validate(out, schema)["checks"]
        gn = checks[-1]
        assert gn["check_id"] == "gn-ratio-supremum" and gn["skipped"] and gn["worst"] is None
        assert [note for note in gn["notes"] if note.startswith("skipped: no positive")] == [
            f"skipped: no positive ratio at t={t}" for t in ("0.0", "1.0", "4.0", "9.0")]
        assert all(c["n_cases"] > 0 or c["skipped"] for c in checks)
        for c in checks:
            if c["skipped"] and c["check_id"] != "gn-ratio-supremum":
                assert c["notes"][-1] == "skipped: no case left to compare"
        assert "SKIP gn-ratio-supremum: worst=nan tol=0.05\n" in capsys.readouterr().out


class TestOdiCli:
    def test_standard_report(self, tmp_path, schema):
        out = tmp_path / "odi.json"
        code = parse_and_dispatch(["odi", "--out", str(out)])
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert payload["nu"] == pytest.approx(0.25270, abs=1e-4)
        assert payload["checks"][0]["passed"]


class TestDecayFit:
    def test_recovers_planted_exponent(self, tmp_path, schema):
        csv = tmp_path / "series.csv"
        t = np.linspace(0.0, 50.0, 120)
        lines = ["t,l2"]
        lines += [f"{format_float(ti)},{format_float((1.0 + ti) ** -1.5)}" for ti in t]
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        code = parse_and_dispatch(
            ["decay-fit", str(csv), "--set", "column=l2", "--set", "t_min=5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert payload["fit"]["exponent"] == pytest.approx(-1.5, abs=1e-9)

    def test_single_distinct_time_in_window_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("t,l2\n" + "5,1\n" * 8)
        code = parse_and_dispatch(
            ["decay-fit", str(csv), "--set", "t_min=4", "--set", "t_max=5.5"]
        )
        assert code == EXIT_CONFIG
        assert "single distinct time" in capsys.readouterr().err


class TestErrors:
    def test_usage_error(self):
        assert parse_and_dispatch(["not-a-command"]) == EXIT_USAGE
        assert parse_and_dispatch([]) == EXIT_USAGE
        # only simulate and sweep fork lanes, so only they take --jobs
        assert parse_and_dispatch(["info", "--jobs", "2"]) == EXIT_USAGE

    def test_seed_only_on_verify(self, tmp_path, schema):
        # only the verify suites draw random test points
        assert parse_and_dispatch(["simulate", "--seed", "1"]) == EXIT_USAGE
        for command in (["sweep"], ["odi"], ["info"], ["decay-fit", "x.csv"]):
            assert parse_and_dispatch(command + ["--seed", "1"]) == EXIT_USAGE
        out = tmp_path / "odi.json"
        assert parse_and_dispatch(["odi", "--out", str(out)]) == EXIT_OK
        assert validate(out, schema)["seed"] == 0

    def test_unknown_key_rejected(self):
        assert parse_and_dispatch(["info", "--set", "nope=3"]) == EXIT_CONFIG

    def test_bad_value_rejected(self):
        assert parse_and_dispatch(["info", "--set", "mu1=abc"]) == EXIT_CONFIG

    def test_invalid_params_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        code = parse_and_dispatch(["simulate", "--set", "p=0.5", "--out", str(out)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("entry", [{"n": 2.5}, {"record_every": 2.9}, {"mu1": True},
                                       {"n": True}, {"p_values": [2.0, False]}])
    def test_config_file_lossy_value_rejected(self, tmp_path, entry):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(entry))
        command = "sweep" if "p_values" in entry else "simulate"
        out = tmp_path / "never.csv"
        code = parse_and_dispatch([command, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_config_file_integral_float_accepted_for_int_key(self, tmp_path):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({"n": 1.0, "mu1": 4}))
        assert parse_and_dispatch(["info", "--config", str(cfg)]) == EXIT_OK

    def test_missing_config_file(self):
        assert parse_and_dispatch(["info", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "t_max=2", "--set", "r_max=10"],
        ["sweep", "--set", "p_values=[2.0]", "--set", "t_max=2", "--set", "r_max=10"],
        ["verify", "bihari"],
    ])
    def test_unwritable_out_is_a_config_error(self, argv, tmp_path, capsys):
        # the output cannot be written: one line, as for an unreadable --config, and
        # nothing on stdout
        out = tmp_path / "missing" / "out.txt"
        assert parse_and_dispatch(argv + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, work", [
        (["simulate", "--set", "t_max=2", "--set", "r_max=10"], "run"),
        (["sweep", "--set", "p_values=[2.0]", "--set", "t_max=2", "--set", "r_max=10"], "sweep"),
        (["verify", "inequalities"], "inequalities"),
        (["verify", "bihari"], "bihari"),
    ], ids=["simulate", "sweep", "verify-inequalities", "verify-bihari"])
    @pytest.mark.parametrize("where, reason", [
        ("missing/out.txt", "[Errno 2] No such file or directory"),
        ("a-directory", "[Errno 21] Is a directory"),
        ("a-file/out.txt", "[Errno 20] Not a directory"),
    ], ids=["missing-parent", "directory", "file-parent"])
    def test_unwritable_out_refused_before_any_work(self, argv, work, where, reason,
                                                    tmp_path, monkeypatch, capsys):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")

        def refused(*args, **kwargs):
            raise AssertionError(f"{work} called for an unwritable --out")

        if argv[0] == "verify":
            # the suite's runner, as the registry holds it
            monkeypatch.setitem(SUITES, work, (SUITES[work][0], refused))
        else:
            monkeypatch.setattr(scalewave.cli, work, refused)
        out = tmp_path / where
        assert parse_and_dispatch(argv + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: {reason}: '{out}'\n"
        assert sorted(os.listdir(tmp_path)) == ["a-directory", "a-file"]

    def test_default_out_that_is_a_directory_refused_before_any_work(self, tmp_path,
                                                                     monkeypatch, capsys):
        # simulate writes run.csv without --out: a directory of that name is refused first
        (tmp_path / "run.csv").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(scalewave.cli, "run", None)
        assert parse_and_dispatch(["simulate", "--set", "t_max=2", "--set", "r_max=10"]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cannot write run.csv: [Errno 21] Is a directory: 'run.csv'\n")


def test_log_env_var_accepted(monkeypatch, capsys):
    monkeypatch.setenv("SCALEWAVE_LOG", "debug")
    assert parse_and_dispatch(["info", "--set", "mu1=2"]) == EXIT_OK
    monkeypatch.setenv("SCALEWAVE_LOG", "not-a-level")  # falls back to error level
    assert parse_and_dispatch(["info", "--set", "mu1=2"]) == EXIT_OK
    capsys.readouterr()


# The config schema as it stood when each command declared a separate key ->
# type table, minus the p that verify and decay-fit never read.  Types now
# come from each command's defaults, so this copy catches a default whose
# literal changes a key's type (say "dr": 1 for "dr": 0.05).
_MODEL = {"n": int, "mu1": float, "mu2sq": float, "p": float}
_RUN = {"s": float, "t_max": float, "nonlinear": bool, "cfl_safety": float,
        "blowup_threshold": float, "record_every": int}
_GRID = {"r_max": float, "dr": float}
_DATA = {"u0_kind": str, "u0_amplitude": float, "u0_width": float,
         "u1_kind": str, "u1_amplitude": float, "u1_width": float}
_VERIFY_MODEL = {"n": int, "mu1": float, "mu2sq": float}
# by command, and by suite for verify
SCHEMA = {
    "simulate": {**_MODEL, **_RUN, **_GRID, **_DATA},
    # each cell runs one of p_values: there is no p of its own
    "sweep": {**_VERIFY_MODEL, **_RUN, **_GRID, **_DATA, "p_values": list, "amplitudes": list},
    "verify identities": _VERIFY_MODEL,
    "verify inequalities": {**_VERIFY_MODEL, "sigma": float, "q": float, "r_max": float,
                            "dr": float},
    "verify bihari": {},
    "odi": {"k0": float, "k1": float, "alpha": float, "p": float, "f0": float,
            "df0": float, "dt": float},
    "decay-fit": {"column": str, "t_min": float, "t_max": float, "log_corrected": bool,
                  "n": int, "mu1": float, "mu2sq": float},
    "info": _MODEL,
}
ALL_KEYS = set().union(*SCHEMA.values()) | {"nope"}


class TestConfigSchema:
    @pytest.fixture
    def command_argv(self, tmp_path):
        csv = tmp_path / "series.csv"
        csv.write_text("t,l2\n0,1\n1,0.5\n")
        out = str(tmp_path / "never")
        return lambda command: {
            "decay-fit": ["decay-fit", str(csv)],
        }.get(command, command.split()) + ["--out", out]

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_each_key_parses_as_its_type(self, command, command_argv, capsys):
        expected = {int: "cannot parse 'abc' as int", float: "cannot parse 'abc' as float",
                    bool: "cannot parse 'abc' as a boolean", list: "expected a list, got 3"}
        for key, key_type in SCHEMA[command].items():
            value = "3" if key_type is list else "abc"
            code = parse_and_dispatch(command_argv(command) + ["--set", f"{key}={value}"])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG, key
            if key_type is str:
                # any text is a string; the rejection comes later, not from parsing
                assert f"key {key!r}" not in err, key
            else:
                assert f"error: key {key!r}: {expected[key_type]}" in err, key

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_every_other_key_is_unknown(self, command, command_argv, capsys):
        for key in sorted(ALL_KEYS - set(SCHEMA[command])):
            code = parse_and_dispatch(command_argv(command) + ["--set", f"{key}=2"])
            assert code == EXIT_CONFIG, key
            assert f"error: unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep"], ["verify", "identities"],
                                      ["decay-fit", "x.csv"]])
    def test_p_is_not_a_key_where_nothing_reads_it(self, argv, capsys):
        assert parse_and_dispatch(argv + ["--set", "p=7"]) == EXIT_CONFIG
        assert "unknown config key 'p'" in capsys.readouterr().err

    # a cheap config that runs each command to completion
    CHEAP = {
        "simulate": ["--set", "t_max=1", "--set", "r_max=5", "--set", "dr=0.1"],
        "sweep": ["--set", "t_max=1", "--set", "r_max=5", "--set", "dr=0.1", "--jobs", "1"],
        "verify inequalities": ["--set", "r_max=10", "--set", "dr=0.05"],
        "decay-fit": ["--set", "log_corrected=true", "--set", "mu1=4"],
    }

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_every_key_is_read(self, command, tmp_path, monkeypatch):
        # a key that nothing reads is a dead setting: the defaults the command loads,
        # which are its schema, hold only what its handler reads
        schema, read = set(), set()

        class Recorded(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        def recorded_load(defaults, *args):
            schema.update(defaults)
            return Recorded(plain_load(defaults, *args))

        plain_load = scalewave.cli.load_config
        monkeypatch.setattr(scalewave.cli, "load_config", recorded_load)
        csv = tmp_path / "series.csv"
        csv.write_text("t,l2\n" + "".join(f"{t},{t ** -0.5!r}\n" for t in range(1, 9)))
        argv = ["decay-fit", str(csv)] if command == "decay-fit" else command.split()
        argv += self.CHEAP.get(command, []) + ["--out", str(tmp_path / "out")]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert schema == set(SCHEMA[command]) and schema <= read


class TestNonFiniteSettings:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "t_max=inf"],
        ["simulate", "--set", "r_max=inf"],
        ["simulate", "--set", "mu1=nan", "--set", "t_max=2"],
        ["simulate", "--set", "mu2sq=inf"],
        ["info", "--set", "mu1=nan"],
        ["info", "--set", "p=inf"],
        ["sweep", "--set", "p_values=[2.0, NaN]"],
        ["sweep", "--set", "p_values=[Infinity]"],
        ["verify", "inequalities", "--set", "r_max=inf"],
    ])
    def test_rejected_as_config_error(self, argv, tmp_path, monkeypatch):
        # no --out: info then prints to stdout, and the others would write here
        monkeypatch.chdir(tmp_path)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_nan_in_config_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"mu1": NaN}')
        assert parse_and_dispatch(["info", "--config", str(cfg)]) == EXIT_CONFIG
        assert "key 'mu1': nan is not a number" in capsys.readouterr().err

    def test_decay_fit_accepts_its_infinite_default(self, tmp_path):
        csv = tmp_path / "series.csv"
        t = np.linspace(0.0, 20.0, 40)
        csv.write_text("t,l2\n" + "".join(
            f"{format_float(ti)},{format_float((1.0 + ti) ** -2.0)}\n" for ti in t))
        out = tmp_path / "fit.json"
        argv = ["decay-fit", str(csv), "--set", "t_max=inf", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert json.loads(out.read_text())["fit"]["exponent"] == pytest.approx(-2.0)


class TestBadInputsExitConfig:
    @pytest.mark.parametrize("sigma", ["0", "-0.5"])
    def test_verify_sigma_outside_unit_interval(self, sigma, capsys):
        argv = ["verify", "inequalities", "--set", f"sigma={sigma}"]
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        assert "sigma must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, error", [
        ("sigma=0", "error: sigma must lie in (0, 1], got 0.0\n"),
        ("q=0", "error: q must be positive, got 0.0\n"),
        ("q=1", "error: q=1.0 gives interpolation exponent -0.5 outside [0, 1]\n"),
    ])
    def test_verify_sigma_or_q_refused_before_any_check(self, setting, error, monkeypatch,
                                                        capsys, no_grid_array):
        # refused before the family is drawn or a grid array formed, so before the
        # gradient check that reads neither sigma nor q
        def no_family(seed=0):
            raise AssertionError("the test family was drawn")

        monkeypatch.setattr(scalewave.verify, "standard_family", no_family)
        argv = ["verify", "inequalities", "--set", setting]
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", error)

    def test_decay_fit_short_row(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("t,l2\n1,0.5\n2\n")
        assert parse_and_dispatch(["decay-fit", str(csv)]) == EXIT_CONFIG
        assert "length differs from its header" in capsys.readouterr().err

    @pytest.mark.parametrize("column, text", [("t", "t,l2\n1,0.5\nabc,0.4\n"),
                                              ("l2", "t,l2\n1,0.5\n2,abc\n")], ids=["t", "l2"])
    def test_decay_fit_names_a_cell_that_is_not_a_number(self, column, text, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        assert parse_and_dispatch(["decay-fit", str(csv)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"error: CSV {csv}, column {column!r}, line 3: 'abc' is not a number\n")

    def test_decay_fit_of_a_header_alone(self, tmp_path, capsys):
        csv, out = tmp_path / "header.csv", tmp_path / "fit.json"
        csv.write_text("t,l2\n")
        assert parse_and_dispatch(["decay-fit", str(csv), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: CSV {csv} has no rows\n")
        assert not out.exists()

    def test_decay_fit_of_a_diverged_run(self, tmp_path, capsys):
        # the last row of a diverging run is inf/nan: the fit refuses it cleanly,
        # with no numpy warning and no NaN in a report
        csv, out = tmp_path / "div.csv", tmp_path / "fit.json"
        argv = ["simulate", "--set", "mu1=0", "--set", "p=2", "--set", "blowup_threshold=1e300",
                "--set", "t_max=20", "--set", "r_max=40", "--set", "record_every=1",
                "--out", str(csv)]
        assert parse_and_dispatch(argv) == EXIT_DIVERGED
        capsys.readouterr()
        argv = ["decay-fit", str(csv), "--set", "column=l2", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "error: decay fit needs finite positive values inside the window\n")
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["k0=inf", "k1=inf", "alpha=inf", "p=inf", "f0=inf",
                                         "df0=inf", "dt=inf"])
    def test_odi_non_finite_input(self, setting, tmp_path, capsys):
        out = tmp_path / "odi.json"
        assert parse_and_dispatch(["odi", "--set", setting, "--out", str(out)]) == EXIT_CONFIG
        name = setting.partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # b*b overflows, or the slope bound underflows, so no margin holds
        (["odi", "--set", "k0=1e308"], "no margin parameter: nu = 0.9 fails"),
        (["odi", "--set", "alpha=1e308"], "no margin parameter: nu = nan fails"),
        (["odi", "--set", "p=1e308"], "no margin parameter: nu = 0.9 fails"),
        (["odi", "--set", "df0=5e-324"], "no margin parameter: nu = 4.94066e-324 fails"),
        (["verify", "inequalities", "--set", "q=0"], "q must be positive, got 0.0"),
        (["verify", "inequalities", "--set", "q=-0.0"], "q must be positive, got -0.0"),
        (["verify", "inequalities", "--set", "q=-1e308"], "q must be positive, got -1e+308"),
        (["simulate", "--set", "cfl_safety=5e-324"], "time step cap cfl_safety·step_unit"),
        (["sweep", "--set", "cfl_safety=5e-324"], "time step cap cfl_safety·step_unit"),
        (["verify", "identities", "--set", "mu1=5e-324"], "identity terms need W_t != 0"),
        (["verify", "identities", "--set", "mu2sq=1e308"],
         "energy identity terms leave the float range"),
    ])
    def test_extreme_settings_refused_with_one_error_line(self, argv, message, tmp_path,
                                                          monkeypatch, capsys):
        # each of these ended in a traceback or printed numpy warnings
        monkeypatch.chdir(tmp_path)
        assert parse_and_dispatch(argv + ["--out", "out"]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting, skipped", [
        # sigma*mu1 underflows to 0: no L1 constant, as for mu1 = 0
        ("mu1=5e-324", ["weighted-embeddings"] * 4),
        # |v|^q passes the float range for every member with |v| > 1 at some node
        ("q=1e20", ["gn-ratio-supremum"]),
    ])
    def test_extreme_inequality_settings_skip_with_a_note(self, setting, skipped, tmp_path,
                                                          capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "inequalities", "--set", setting, "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert [c["check_id"] for c in checks if c["skipped"]] == skipped
        notes = [note for c in checks if c["skipped"] for note in c["notes"]]
        cause = ("sigma*mu1 = 0.5*4.94066e-324, which underflows to 0" if setting.startswith("mu1")
                 else "|v|^q overflow")
        assert any(cause in note for note in notes)

    def test_decay_fit_missing_csv(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert parse_and_dispatch(["decay-fit", str(missing)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot read CSV {missing}")

    @pytest.mark.parametrize("argv", [
        ["verify", "identities", "--set", "mu1=150"],
        ["odi", "--set", "p=1.0000001"],
        ["odi", "--set", "f0=1e-300"],
        ["info", "--set", "mu1=1e308"],
    ])
    def test_overflow_is_a_config_error(self, argv, tmp_path, monkeypatch, capsys):
        # finite settings whose closed forms or checks overflow a float
        monkeypatch.chdir(tmp_path)
        assert parse_and_dispatch(argv + ["--out", "out.json"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: a value overflowed")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "u0_amplitude=inf"],
        ["simulate", "--set", "u0_amplitude=-inf"],
        ["simulate", "--set", "u0_width=0"],
        ["simulate", "--set", "u0_width=inf"],
        ["simulate", "--set", "u1_kind=gaussian", "--set", "u1_width=-1"],
        ["sweep", "--set", "amplitudes=[Infinity]"],
        ["sweep", "--set", "amplitudes=[1.0, -Infinity]"],
    ])
    def test_bad_data_rejected_before_any_run(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        import scalewave.analysis

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(scalewave.analysis, "run", no_run)
        monkeypatch.setattr("scalewave.cli.run", no_run)
        assert parse_and_dispatch(argv + ["--set", "t_max=2"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "n=3", "--set", "mu1=5", "--set", "t_max=60"],
        ["sweep", "--set", "n=3", "--set", "mu1=5", "--set", "cfl_safety=0.5",
         "--set", "p_values=[1.5,2.5]", "--set", "amplitudes=[0.5,2]", "--set", "t_max=60"],
    ])
    def test_no_safe_radius_rejected_before_any_step(self, argv, tmp_path, monkeypatch, capsys):
        # the default r_max 30 is below t_max: the outer cut-off reaches every node
        monkeypatch.chdir(tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: no safe radius: r_max 30 <= t_max - s = 60")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "n=6", "--set", "mu1=6", "--set", "t_max=20", "--set", "r_max=40"],
        ["sweep", "--set", "n=6", "--set", "mu1=6", "--set", "t_max=20", "--set", "r_max=40",
         "--set", "p_values=[1.2,2]", "--set", "amplitudes=[1]", "--jobs", "2"],
    ])
    def test_dimension_without_a_stable_step_rejected_before_any_step(self, argv, tmp_path,
                                                                      monkeypatch, capsys):
        # from n = 6 on the operator's spectrum is complex and no dt is stable
        monkeypatch.chdir(tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: n = 6 cannot run stably: the radial Laplacian has a "
                              "complex spectrum for n >= 6") and err.count("\n") == 1
        assert "ROADMAP.md item 1" in err
        assert list(tmp_path.iterdir()) == []

    MASS_FOUND = ["--set", "mu1=0", "--set", "mu2sq=100", "--set", "dr=0.5", "--set", "r_max=40",
                  "--set", "t_max=20", "--set", "u0_amplitude=0.01"]

    @pytest.mark.parametrize("argv", [
        # linear, it reported ``completed`` while its sup grew 24 000-fold
        ["simulate", "--set", "nonlinear=false", *MASS_FOUND],
        # with p = 3, the same instability was labelled blow-up at t = 2.67
        ["simulate", "--set", "p=3", *MASS_FOUND],
        ["sweep", "--set", "p_values=[3]", "--set", "amplitudes=[1]", "--jobs", "2", *MASS_FOUND],
    ])
    def test_step_past_the_mass_bound_rejected_before_any_step(self, argv, tmp_path,
                                                                monkeypatch, capsys):
        # at the default cfl_safety, (dt/step_unit)^2 + dt^2 m^2(s)/4 = 5.73 > 1
        monkeypatch.chdir(tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: time step past the mass bound: dt = 0.444444 gives "
                              "(dt/step_unit)² + dt²·m²(s)/4 = 5.7284 > 1") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "dr=1e-12", "--set", "t_max=1"],
        ["simulate", "--set", "t_max=1e9", "--set", "r_max=2e9", "--set", "dr=1e8",
         "--set", "record_every=1", "--set", "cfl_safety=1e-9"],
        ["sweep", "--set", "dr=1e-12", "--set", "t_max=1", "--set", "p_values=[2,3]",
         "--set", "amplitudes=[0.5,1]", "--jobs", "2"],
    ])
    def test_oversized_run_rejected_before_any_allocation(self, argv, tmp_path, monkeypatch,
                                                          capsys, no_grid_array):
        # each asks for far more than 128 TiB: were the check gone, numpy would
        # raise MemoryError at once instead of touching that memory
        monkeypatch.chdir(tmp_path)
        import scalewave.analysis

        def no_allocation(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(scalewave.analysis, "run", no_allocation)
        monkeypatch.setattr("scalewave.cli.run", no_allocation)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: run too large: ") and "Traceback" not in err
        assert " nodes and " in err and " sample rows would preallocate " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting", ["dr=1e-9", "r_max=1e12"])
    def test_oversized_inequality_suite_rejected_before_any_allocation(self, setting, tmp_path,
                                                                       monkeypatch, capsys,
                                                                       no_grid_array):
        # without the check, numpy raises MemoryError at the first grid array ("Unable
        # to allocate 298. GiB" for dr=1e-9) and the command dies with a traceback
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "inequalities", "--set", setting, "--out", "ineq.json"]
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: verify inequalities too large: ") and err.count("\n") == 1
        assert " GiB budget; coarsen dr or shorten r_max" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("setting, reason", [
        # the wide grid's spacing 2 dr passes the family's narrowest width 0.35, and the
        # suite would read a grid too coarse for its members as a false inequality
        # (dr = 10 gave three FAILs)
        ("dr=0.18", "dr = 0.18 too coarse for verify inequalities: "),
        ("dr=10", "dr = 10.0 too coarse for verify inequalities: "),
        # the weight exponent overflows a float (numpy warned, and every check skipped)
        ("mu1=1e304", "weight exponent max(2, q·sigma)·mu1·(4·r_max)²/2 of verify "
                      "inequalities overflows at mu1 = 1e+304, q·sigma = 2"),
        ("mu1=1e308", "weight exponent max(2, q·sigma)·mu1·(4·r_max)²/2 of verify "
                      "inequalities overflows at mu1 = 1e+308, q·sigma = 2"),
        ("q=1e308", "weight exponent max(2, q·sigma)·mu1·(4·r_max)²/2 of verify "
                    "inequalities overflows at mu1 = 1.0, q·sigma = 5e+307"),
    ])
    def test_inequality_setting_no_check_can_use_rejected_before_any_grid(
            self, setting, reason, tmp_path, monkeypatch, capsys, no_grid_array):
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "inequalities", "--set", setting, "--out", "ineq.json"]
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("setting", ["dr=0.175", "mu1=1e303"])
    def test_inequality_settings_at_the_edge_run_clean(self, setting, tmp_path, capsys):
        # the coarsest dr and the largest mu1 the suite takes: no warning, and no FAIL
        out = tmp_path / "ineq.json"
        argv = ["verify", "inequalities", "--set", setting, "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n", [1, 3])
    def test_inequality_suite_bytes_bound_the_suites_peak(self, n):
        # the estimate that gates the suite holds what it allocates, and not much more
        defaults, suite = SUITES["inequalities"]
        cfg = dict(defaults, n=n, dr=0.01)
        nodes = make_radial_grid(n, cfg["r_max"], cfg["dr"]).num_nodes
        wide_nodes = make_radial_grid(n, 4.0 * cfg["r_max"], 2.0 * cfg["dr"]).num_nodes
        estimate = inequality_suite_bytes(nodes, wide_nodes)
        # the first generator imports numpy.random's lazy modules (secrets, hashlib, ...),
        # about 690 KB that are no part of the suite: import them before tracing starts
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            suite(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 1.2 * peak

    @pytest.mark.parametrize("argv", [
        # width-3 Gaussian data at mu1 = 40: e^{2W} u^2 passes e^600 at t = s
        ["simulate", "--set", "mu1=40", "--set", "u0_width=3"],
        # large as well as wide, and linear
        ["simulate", "--set", "mu1=40", "--set", "u0_width=3", "--set", "u0_amplitude=1e7",
         "--set", "nonlinear=false"],
        # width-4 data at the default mu1 = 4: a term's exponent reaches 1.4e4
        ["simulate", "--set", "u0_width=4", "--set", "r_max=60", "--set", "t_max=10",
         "--set", "nonlinear=false"],
    ])
    def test_data_outside_the_weighted_space_run_and_record_inf(self, argv, tmp_path,
                                                                 monkeypatch, capsys):
        # the weight cannot represent these data, but the PDE is well-posed for them:
        # the run goes on, and its weighted columns read +inf from the first row on
        monkeypatch.chdir(tmp_path)
        assert parse_and_dispatch(argv) == EXIT_OK
        assert capsys.readouterr() == ("outcome: completed\n", "")
        first = dict(zip(CSV_COLUMNS, np.loadtxt("run.csv", delimiter=",", skiprows=1,
                                                 max_rows=1)))
        assert first["wl2"] == first["wgrad_l2"] == first["wenergy"] == math.inf
        assert all(math.isfinite(first[key]) for key in ("t", "sup", "l2", "grad_l2", "ut_l2", "F"))

    @pytest.mark.parametrize("argv", [
        # no weight at all (mu1 = 0), where u^2 alone put a term's exponent at 644.7
        ["simulate", "--set", "mu1=0", "--set", "u0_amplitude=1e140", "--set", "t_max=2"],
        ["simulate", "--set", "u0_amplitude=1e140", "--set", "t_max=2"],
        # large as well as outside the weighted space
        ["simulate", "--set", "mu1=40", "--set", "u0_width=3", "--set", "u0_amplitude=1e140"],
        # a linear run, which would read diverged
        ["simulate", "--set", "nonlinear=false", "--set", "u0_amplitude=1e140", "--set", "t_max=2"],
        ["sweep", "--set", "amplitudes=[1e140]", "--set", "t_max=2"],
    ])
    def test_data_past_the_blowup_threshold_rejected_before_any_step(self, argv, tmp_path,
                                                                     monkeypatch, capsys):
        # the detector would fire on the data themselves: a linear run would read
        # diverged, a nonlinear one blowup at the first step
        monkeypatch.chdir(tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: initial data past the blow-up threshold: max |u0| = 1e+140 > "
                       "blowup_threshold = 1e+08; scale the data down or raise blowup_threshold\n")
        assert list(tmp_path.iterdir()) == []

    def test_data_too_large_for_the_quadrature_run(self, tmp_path, monkeypatch, capsys):
        # u1^2 = 1e300 is finite and puts a term's exponent at 690.8, past the budget;
        # the first row is summed scaled back, and the first level, at t = dt, passes the
        # threshold
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--set", "u1_kind=gaussian", "--set", "u1_amplitude=1e150",
                "--set", "t_max=2"]
        assert parse_and_dispatch(argv) == EXIT_OK
        assert capsys.readouterr().out == "outcome: blowup (blow-up at t=0.044444444444444446)\n"
        first = dict(zip(CSV_COLUMNS, np.loadtxt("run.csv", delimiter=",", skiprows=1,
                                                 max_rows=1)))
        assert all(math.isfinite(first[key]) for key in ("wl2", "wgrad_l2", "wenergy"))
        assert first["ut_l2"] <= first["wgrad_l2"] and first["wenergy"] > 1e299

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--set", "u0_amplitude=1e160", "--out", "run.csv"], "u0"),
        (["simulate", "--set", "u1_kind=gaussian", "--set", "u1_amplitude=1e160",
          "--out", "run.csv"], "u1"),
        (["sweep", "--set", "amplitudes=[1e160]", "--out", "sweep.csv"], "u0"),
    ])
    def test_data_whose_squares_overflow_rejected_before_any_step(self, argv, name, tmp_path,
                                                                  monkeypatch, capsys):
        # the data decay fine, but u^2 is past the float range: the error names the
        # value, not the weight; numpy's overflow warnings are not printed
        monkeypatch.chdir(tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("scalewave.solver.leapfrog_kernel", no_step)
        assert parse_and_dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: initial data out of range: max |{name}| = 1e+160 squares past "
                       "the float range; scale the data down\n")
        assert list(tmp_path.iterdir()) == []


class TestRecorderCannotAbort:
    BUMP_RUN = ["simulate", "--set", "u0_kind=bump", "--set", "u0_width=3",
                "--set", "u1_kind=bump", "--set", "u1_width=3", "--set", "u1_amplitude=1",
                "--set", "t_max=20", "--set", "r_max=60", "--set", "blowup_threshold=1e300",
                "--set", "record_every=1"]

    @pytest.mark.parametrize("setting", [["--set", "p=3"], ["--set", "mu1=0", "--set", "p=2"]])
    def test_weighted_overflow_records_inf_and_the_run_ends_diverged(self, setting, tmp_path,
                                                                      capsys):
        # past e^600 a weighted term no longer aborts the run: the weighted norms are
        # recorded up to the float range, then as +inf, and the run ends on its own terms
        out = tmp_path / "run.csv"
        assert parse_and_dispatch(self.BUMP_RUN + setting + ["--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().out == "outcome: diverged\n"
        _, wenergy = read_series_csv(out, "wenergy")
        _, wl2 = read_series_csv(out, "wl2")
        assert wenergy[np.isfinite(wenergy)].max() > 1e200 and wl2.max() > 1e100


class TestSweepJobs:
    ARGS = ["sweep", "--set", "p_values=[1.5,2.0,2.5]", "--set", "amplitudes=[1.0]",
            "--set", "t_max=2", "--set", "r_max=8", "--set", "dr=0.1"]

    def test_lanes_never_outnumber_the_cells_left(self, forks, tmp_path):
        # this process takes a cell too, so there is at most one lane for each cell
        # but one, however many jobs are allowed
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "64", "--out", str(out)]) == EXIT_OK
        assert forks == [2]
        assert len(out.read_text().splitlines()) == 4

    def test_lanes_fork_before_the_first_cell(self, forks, tmp_path, monkeypatch):
        # each cell takes milliseconds, far below this lane-start cost, which only a
        # run reads: the sweep forks its lanes before any cell runs
        monkeypatch.setattr(scalewave.lanes, "LANE_START_S", 10.0)
        serial, fanout = tmp_path / "serial.csv", tmp_path / "fanout.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        assert forks == []
        assert parse_and_dispatch(self.ARGS + ["--jobs", "8", "--out", str(fanout)]) == EXIT_OK
        assert forks == [2]
        assert serial.read_bytes() == fanout.read_bytes()

    def test_single_cell_forks_nothing(self, forks, tmp_path):
        argv = self.ARGS[:2] + ["p_values=[2.0]"] + self.ARGS[3:]
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(argv + ["--jobs", "8", "--out", str(out)]) == EXIT_OK
        assert forks == []

    def test_one_cell_after_a_slow_first_goes_to_one_lane(self, forks, tmp_path):
        # two cells fork one lane, which runs one cell while this process runs the other
        argv = self.ARGS[:2] + ["p_values=[2.0,2.5]"] + self.ARGS[3:]
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(argv + ["--jobs", "8", "--out", str(out)]) == EXIT_OK
        assert forks == [1]
        assert len(out.read_text().splitlines()) == 3

    @staticmethod
    def logging_run(monkeypatch, log, slow):
        """Have every process append "pid p amplitude" to ``log`` as it starts a cell.

        A process then sleeps 0.3 s before the cell runs where ``slow(in_lanes)``
        holds, ``in_lanes`` being whether this is a forked lane.
        """
        plain_run = scalewave.analysis.run
        parent = os.getpid()

        def logged(grid, u0, u1, config, progress=None):
            # unit Gaussian data, so u0(0) is the cell's amplitude
            line = f"{os.getpid()} {config.params.p} {float(u0(np.zeros(1))[0])}\n"
            with open(log, "a") as handle:
                handle.write(line)
            if slow(os.getpid() != parent):
                time.sleep(0.3)
            return plain_run(grid, u0, u1, config, progress)

        monkeypatch.setattr(scalewave.analysis, "run", logged)

    @staticmethod
    def cells_by_process(log) -> dict:
        started = {}
        for line in log.read_text().splitlines():
            pid, p, amplitude = line.split()
            started.setdefault(int(pid), []).append((float(p), float(amplitude)))
        return started

    EIGHT_CELLS = (ARGS[:2] + ["p_values=[1.5,2.0,2.5,3.0]", "--set", "amplitudes=[0.5,1.0]"]
                   + ARGS[5:])
    CELLS = [(p, a) for p in (1.5, 2.0, 2.5, 3.0) for a in (0.5, 1.0)]

    def test_lanes_take_cells_in_input_order(self, forks, tmp_path, monkeypatch):
        # one pipe hands out every cell, in input order; every process starts its
        # cells in that order, and each cell runs once
        log = tmp_path / "cells.log"
        # once lanes have forked, this process is slow, so the lanes start cells too
        self.logging_run(monkeypatch, log, lambda in_lanes: bool(forks) and not in_lanes)
        serial, fanout = tmp_path / "serial.csv", tmp_path / "fanout.csv"
        assert parse_and_dispatch(self.EIGHT_CELLS + ["--jobs", "1", "--out", str(serial)]) == 0
        log.unlink()
        assert parse_and_dispatch(self.EIGHT_CELLS + ["--jobs", "3", "--out", str(fanout)]) == 0
        assert forks == [2]
        started = self.cells_by_process(log)
        assert len(started) >= 2
        for cells in started.values():
            assert cells == sorted(cells, key=self.CELLS.index)
        assert sorted(cell for cells in started.values() for cell in cells) == self.CELLS
        assert serial.read_bytes() == fanout.read_bytes()

    def test_this_process_stays_a_lane(self, forks, tmp_path, monkeypatch):
        # a slow lane: it starts one cell at most, and this process takes every cell
        # the lane has not taken
        log = tmp_path / "cells.log"
        self.logging_run(monkeypatch, log, lambda in_lanes: in_lanes)
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(self.EIGHT_CELLS + ["--jobs", "2", "--out", str(out)]) == 0
        assert forks == [1]
        started = self.cells_by_process(log)
        here = started.pop(os.getpid())
        assert len(here) >= 7
        assert sorted(here + [cell for cells in started.values() for cell in cells]) == self.CELLS
        assert len(out.read_text().splitlines()) == 9

    def test_lanes_classify_under_the_callers_numpy_error_state(self, forks, tmp_path,
                                                                monkeypatch):
        # a run ignores overflow; lanes forked inside one would inherit that state,
        # and a RuntimeWarning in them would go unseen
        plain_classify = scalewave.analysis.classify_run
        caller, parent = np.geterr(), os.getpid()
        classified = tmp_path / "classified.log"

        def checking_classify(report):
            if np.geterr() != caller:
                raise ValueError(f"classified under {np.geterr()}")
            if os.getpid() == parent and report.config.params.p == 1.5:
                time.sleep(0.2)  # so that the lanes take the other cells
            with open(classified, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return plain_classify(report)

        monkeypatch.setattr(scalewave.analysis, "classify_run", checking_classify)
        argv = self.ARGS[:2] + ["p_values=[1.5,2.0,2.5,3.0]"] + self.ARGS[3:]
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(argv + ["--jobs", "2", "--out", str(out)]) == EXIT_OK
        assert forks == [1]
        assert {int(pid) for pid in classified.read_text().split()} - {parent}

    RAISING = ["sweep", "--set", "mu1=0", "--set", "p_values=[2.0]",
               "--set", "amplitudes=[1.0,0.5,1e140,0.25,0.125]", "--set", "t_max=2",
               "--set", "r_max=8", "--set", "dr=0.1"]

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_raising_cell_exits_as_serially_and_leaves_no_lane(self, jobs, forks, tmp_path,
                                                               capsys, no_child_left):
        # the third cell's data are past the blow-up threshold; the other cells are fine
        argv = self.RAISING + ["--out", str(tmp_path / "sweep.csv")]
        assert parse_and_dispatch(argv + ["--jobs", "1"]) == EXIT_CONFIG
        serial = capsys.readouterr()
        assert serial.err.startswith("error: initial data past the blow-up threshold")
        assert parse_and_dispatch(argv + ["--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr() == serial
        assert forks == [int(jobs) - 1]
        no_child_left()
        assert not (tmp_path / "sweep.csv").exists()

    def test_lowest_raising_cell_wins(self, forks, tmp_path, monkeypatch, capsys,
                                      no_child_left):
        # the third cell raises late, in a lane, and the fourth at once: a serial
        # sweep raises the third cell's error, and so do the lanes
        plain_run = scalewave.analysis.run

        def raising(grid, u0, u1, config, progress=None):
            amplitude = float(u0(np.zeros(1))[0])
            if amplitude == 0.5:
                time.sleep(0.2)  # the first lane holds this cell while the next take theirs
            if amplitude == 1e-3:
                time.sleep(0.3)
                raise ValueError("the third cell")
            if amplitude == 0.25:
                raise ValueError("the fourth cell")
            return plain_run(grid, u0, u1, config, progress)

        monkeypatch.setattr(scalewave.analysis, "run", raising)
        argv = [arg.replace("1e140", "1e-3") for arg in self.RAISING]
        assert parse_and_dispatch(argv + ["--jobs", "1"]) == EXIT_CONFIG
        serial = capsys.readouterr()
        assert serial.err == "error: the third cell\n"
        assert parse_and_dispatch(argv + ["--jobs", "3"]) == EXIT_CONFIG
        assert capsys.readouterr() == serial
        assert forks == [2]
        no_child_left()

    def test_interrupt_leaves_no_lane(self, forks, tmp_path, monkeypatch, no_child_left):
        # this process is interrupted in a later cell while a lane sleeps in its own
        plain_run = scalewave.analysis.run
        parent = os.getpid()

        def interrupted(grid, u0, u1, config, progress=None):
            if os.getpid() != parent:
                time.sleep(30.0)
            elif float(u0(np.zeros(1))[0]) != 1.0:
                raise KeyboardInterrupt
            return plain_run(grid, u0, u1, config, progress)

        monkeypatch.setattr(scalewave.analysis, "run", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parse_and_dispatch(self.RAISING + ["--jobs", "2", "--out", str(tmp_path / "s.csv")])
        assert forks == [1]
        no_child_left()
        assert time.perf_counter() - start < 10.0

    def test_a_refused_fork_runs_the_cells_here(self, forks, tmp_path, monkeypatch,
                                                no_child_left):
        def refused():
            raise BlockingIOError("no more processes")

        serial, fanout = tmp_path / "serial.csv", tmp_path / "fanout.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        monkeypatch.setattr(os, "fork", refused)
        assert parse_and_dispatch(self.ARGS + ["--jobs", "3", "--out", str(fanout)]) == EXIT_OK
        assert forks == [0]
        no_child_left()
        assert serial.read_bytes() == fanout.read_bytes()

    def test_one_job_runs_serially(self, forks, tmp_path):
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "1", "--out", str(out)]) == EXIT_OK
        assert forks == []

    def test_no_lanes_off_linux(self, forks, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        serial, fanout = tmp_path / "serial.csv", tmp_path / "fanout.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        assert parse_and_dispatch(self.ARGS + ["--jobs", "4", "--out", str(fanout)]) == EXIT_OK
        assert forks == []
        assert serial.read_bytes() == fanout.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, forks):
        assert parse_and_dispatch(self.ARGS + ["--jobs", jobs]) == EXIT_USAGE
        assert forks == []

    @pytest.fixture
    def jobs_passed(self, monkeypatch):
        """Replace the sweep by a stand-in that records the jobs it is given."""
        seen = []

        def recording_sweep(*args, jobs):
            seen.append(jobs)
            return []

        monkeypatch.setattr("scalewave.cli.sweep", recording_sweep)
        return seen

    def test_jobs_default_is_the_affinity_set_size(self, jobs_passed, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert parse_and_dispatch(self.ARGS + ["--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert jobs_passed == [3]

    def test_jobs_default_falls_back_to_the_cpu_count(self, jobs_passed, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parse_and_dispatch(self.ARGS + ["--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert jobs_passed == [5]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="lanes fork on Linux only")
    def test_commands_with_jobs_load_no_scipy_and_no_pool(self, tmp_path):
        # scipy is a test extra, so the runtime may not import it; lanes are bare forks,
        # and concurrent.futures and multiprocessing cost the pool-based fan-out 2.3 MB
        # of record-dense peak RSS.  A child interpreter holds only what the CLI loads.
        # The README sweep forks before its first cell, the dense simulate once its
        # samples have cost more than its steps.
        code = """if True:
            import json, os, sys
            from scalewave.cli import parse_and_dispatch

            forks = []
            plain_fork = os.fork
            def counting_fork():
                forks.append(None)
                return plain_fork()
            os.fork = counting_fork

            def loaded():
                return sorted(name for name in sys.modules
                              for banned in ("scipy", "concurrent.futures", "multiprocessing")
                              if name == banned or name.startswith(banned + "."))

            seen = [["import", loaded()]]
            for argv in json.loads(sys.argv[1]):
                forks.clear()
                status = parse_and_dispatch(argv)
                seen.append([argv[0], status, bool(forks), loaded()])
            print(json.dumps(seen))
        """
        readme_sweep = ["sweep", "--set", "p_values=[1.5,2,2.5]", "--set", "amplitudes=[1.0]",
                        "--set", "u0_kind=bump", "--set", "u1_kind=bump", "--set", "u0_width=3",
                        "--set", "u1_width=3", "--set", "r_max=230", "--set", "t_max=200"]
        dense = ["simulate", "--set", "mu1=4", "--set", "r_max=230", "--set", "dr=0.05",
                 "--set", "t_max=100", "--set", "u0_width=0.4", "--set", "nonlinear=false",
                 "--set", "record_every=1"]
        argvs = [argv + ["--jobs", "2", "--out", str(tmp_path / name)]
                 for argv, name in ((readme_sweep, "sweep.csv"), (dense, "dense.csv"))]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        # [command, exit code, whether it forked a lane, the banned modules loaded]
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            ["import", []], ["sweep", EXIT_OK, True, []], ["simulate", EXIT_OK, True, []]]


def _child_env() -> dict:
    """The environment of a child interpreter that imports the scalewave these tests import."""
    src = str(Path(scalewave.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def test_import_leaves_every_traced_layer_loaded():
    """``import scalewave.cli`` loads all eight layer modules, none of them deferred.

    ``perfbench/tracing.py`` wraps exactly these layers and reads each from
    ``sys.modules`` when a traced benchmark run starts, so a lazy import of any
    of them breaks traced runs: a change that defers one must land together
    with a change to the benchmark.
    """
    layers = ("model", "grid", "solver", "functionals", "verify", "odi", "analysis", "cli")
    code = ("import sys, scalewave.cli; "
            f"print(' '.join(name for name in {layers!r} if 'scalewave.' + name not in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


class TestProcessEntry:
    """``main()``, the entry of ``python -m scalewave.cli`` and of the console script.

    It freezes what the imports made (``gc.freeze``) before it dispatches, so
    the interpreter's exit does not walk those objects again;
    ``parse_and_dispatch``, which callers in this process use, never freezes.
    """

    DIVERGING = ["simulate", "--set", "mu1=0", "--set", "p=2", "--set", "blowup_threshold=1e300",
                 "--set", "t_max=20", "--set", "r_max=40", "--set", "record_every=1"]

    @staticmethod
    def command(argv, cwd):
        return subprocess.run([sys.executable, "-m", "scalewave.cli", *argv], cwd=cwd,
                              capture_output=True, text=True, timeout=120, env=_child_env())

    def test_main_freezes_before_dispatch(self):
        code = ("import gc, sys, scalewave.cli as cli\n"
                "def stub(argv):\n"
                "    print(gc.get_freeze_count())\n"
                "    return 0\n"
                "cli.parse_and_dispatch = stub\n"
                "sys.argv = ['scalewave', 'info']\n"
                "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    def test_parse_and_dispatch_does_not_freeze(self, capsys):
        assert gc.get_freeze_count() == 0
        assert parse_and_dispatch(["info"]) == EXIT_OK
        assert gc.get_freeze_count() == 0

    def test_info_prints_every_line(self, tmp_path, capsys):
        assert parse_and_dispatch(["info"]) == EXIT_OK
        in_process = capsys.readouterr().out
        proc = self.command(["info"], tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == in_process and proc.stdout.count("\n") == 9

    def test_diverging_simulate_writes_every_row(self, tmp_path, capsys):
        assert parse_and_dispatch(self.DIVERGING + ["--out", str(tmp_path / "in.csv")]) \
            == EXIT_DIVERGED
        in_process = capsys.readouterr().out
        proc = self.command(self.DIVERGING + ["--out", "run.csv"], tmp_path)
        assert proc.returncode == EXIT_DIVERGED, proc.stderr
        assert proc.stdout == in_process == "outcome: diverged\n"
        written = (tmp_path / "run.csv").read_bytes()
        assert written == (tmp_path / "in.csv").read_bytes()
        last = written.decode().splitlines()[-1].split(",")
        assert "inf" in last and "nan" in last

    def test_unknown_key_exits_config(self, tmp_path):
        proc = self.command(["info", "--set", "nope=1"], tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == "" and proc.stderr == "error: unknown config key 'nope'\n"

    def test_bad_jobs_exits_usage(self, tmp_path):
        proc = self.command(["simulate", "--jobs", "0"], tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert "--jobs: must be at least 1, got 0" in proc.stderr
        assert list(tmp_path.iterdir()) == []
