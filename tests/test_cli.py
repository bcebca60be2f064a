import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

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
from scalewave.grid import make_radial_grid
from scalewave.model import ModelParams
from scalewave.solver import RunConfig, run


@pytest.fixture(scope="module")
def schema():
    text = resources.files("scalewave").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate(path, schema):
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, schema)
    return payload


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

    def test_unstable_linear_run_exits_diverged(self, tmp_path, capsys):
        # default cfl_safety 0.9 is above the n = 3 leapfrog bound
        out = tmp_path / "n3.csv"
        code = parse_and_dispatch(
            ["simulate", "--set", "n=3", "--set", "mu1=6", "--set", "nonlinear=false",
             "--set", "t_max=20", "--set", "r_max=40", "--out", str(out)]
        )
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().out == "outcome: diverged\n"

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

    def test_parallel_jobs_reproduce_serial_csv(self, tmp_path):
        args = ["sweep", "--set", "p_values=[1.5,2.0]", "--set", "amplitudes=[1.0]",
                "--set", "u0_kind=bump", "--set", "u0_width=2.0",
                "--set", "u1_kind=bump", "--set", "u1_width=2.0",
                "--set", "t_max=6.0", "--set", "r_max=12", "--set", "dr=0.1"]
        serial = tmp_path / "serial.csv"
        fanout = tmp_path / "fanout.csv"
        assert parse_and_dispatch(args + ["--out", str(serial)]) == EXIT_OK
        assert parse_and_dispatch(args + ["--jobs", "2", "--out", str(fanout)]) == EXIT_OK
        assert serial.read_bytes() == fanout.read_bytes()

    def test_diverged_cell_labelled_and_exits_diverged(self, tmp_path):
        # default cfl_safety 0.9 is above the n = 3 leapfrog bound
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

    def test_inequalities_suite_json(self, tmp_path, schema):
        out = tmp_path / "ineq.json"
        code = parse_and_dispatch(["verify", "inequalities", "--out", str(out)])
        assert code == EXIT_OK
        payload = validate(out, schema)
        assert all(c["passed"] or c["skipped"] for c in payload["checks"])


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
        # only sweep fans out, so only sweep takes --jobs
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


def test_log_env_var_accepted(monkeypatch, capsys):
    monkeypatch.setenv("SCALEWAVE_LOG", "debug")
    assert parse_and_dispatch(["info", "--set", "mu1=2"]) == EXIT_OK
    monkeypatch.setenv("SCALEWAVE_LOG", "not-a-level")  # falls back to error level
    assert parse_and_dispatch(["info", "--set", "mu1=2"]) == EXIT_OK
    capsys.readouterr()
