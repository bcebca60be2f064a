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
SCHEMA = {
    "simulate": {**_MODEL, **_RUN, **_GRID, **_DATA},
    "sweep": {**_MODEL, **_RUN, **_GRID, **_DATA, "p_values": list, "amplitudes": list},
    "verify": {"n": int, "mu1": float, "mu2sq": float, "sigma": float, "q": float,
               "r_max": float, "dr": float},
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
            "verify": ["verify", "identities"],
            "decay-fit": ["decay-fit", str(csv)],
        }.get(command, [command]) + ["--out", out]

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

    @pytest.mark.parametrize("argv", [["verify", "identities"], ["decay-fit", "x.csv"]])
    def test_p_is_not_a_key_where_nothing_reads_it(self, argv, capsys):
        assert parse_and_dispatch(argv + ["--set", "p=7"]) == EXIT_CONFIG
        assert "unknown config key 'p'" in capsys.readouterr().err


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

    def test_decay_fit_short_row(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("t,l2\n1,0.5\n2\n")
        assert parse_and_dispatch(["decay-fit", str(csv)]) == EXIT_CONFIG
        assert "length differs from its header" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["k0=inf", "k1=inf", "alpha=inf", "p=inf", "f0=inf",
                                         "df0=inf", "dt=inf"])
    def test_odi_non_finite_input(self, setting, tmp_path, capsys):
        out = tmp_path / "odi.json"
        assert parse_and_dispatch(["odi", "--set", setting, "--out", str(out)]) == EXIT_CONFIG
        name = setting.partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
        assert not out.exists()

    def test_decay_fit_missing_csv(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert parse_and_dispatch(["decay-fit", str(missing)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot read CSV {missing}")

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


class TestSweepJobs:
    ARGS = ["sweep", "--set", "p_values=[1.5,2.0,2.5]", "--set", "amplitudes=[1.0]",
            "--set", "t_max=2", "--set", "r_max=8", "--set", "dr=0.1"]

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool by a serial stand-in that records its size."""
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_never_larger_than_the_cell_count(self, pools, tmp_path):
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(self.ARGS + ["--jobs", "64", "--out", str(out)]) == EXIT_OK
        assert pools == [3]
        assert len(out.read_text().splitlines()) == 4

    def test_single_cell_runs_without_a_pool(self, pools, tmp_path):
        argv = self.ARGS[:2] + ["p_values=[2.0]"] + self.ARGS[3:]
        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch(argv + ["--jobs", "8", "--out", str(out)]) == EXIT_OK
        assert pools == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, pools):
        assert parse_and_dispatch(self.ARGS + ["--jobs", jobs]) == EXIT_USAGE
        assert pools == []
