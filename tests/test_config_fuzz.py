"""Every command's config ends in an exit code, never in a traceback (ROADMAP item 9).

Each command's defaults dict is its config schema, so a config is drawn
from it: one of its keys at an extreme of its default's type (+-0, the
smallest subnormal, 1e308, the infinities, integers past 64 bits, empty
lists, list text that is not JSON, words no key takes), and up to two more
keys at any value of their types.  The command runs in-process through
``parse_and_dispatch``, and the draws are derandomized.  Every command must
exit 0, 2 or 3, no exception and no RuntimeWarning may escape (the
``error::RuntimeWarning`` filter of pyproject.toml makes a warning raise),
no other warning but a ``SupportViolationWarning`` may be given, and a JSON
report written on exit 0 must validate against ``report.schema.json``.

Only the cost is bounded: ``--jobs`` is 1 or 2, a list holds at most 3
items, a ``simulate`` or ``sweep`` config that would be admitted is kept
only when its steps times nodes over all cells stay small, and ``odi``
integrates at most ``ODI_STEPS`` RK4 steps (``odi.solve``'s own step cap,
lowered).
"""

import contextlib
import functools
import io
import json
import math
import warnings
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import scalewave.cli as cli
from scalewave import odi
from scalewave.cli import (
    CSV_COLUMNS, FIT_DEFAULTS, MODEL_DEFAULTS, ODI_DEFAULTS, SIMULATE_DEFAULTS, SWEEP_DEFAULTS,
    parse_and_dispatch,
)
from scalewave.solver import SupportViolationWarning, time_step
from scalewave.verify import SUITES

EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf)
HUGE_INTS = (10**30, -(10**30))
# steps times nodes, over every cell, of the simulate and sweep runs that are kept
RUN_COST = 400_000
ODI_STEPS = 4000
_SCHEMA = json.loads(resources.files("scalewave").joinpath("schemas/report.schema.json").read_text())
# the validator of report.schema.json, built once
REPORT = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


def fuzz(examples: int) -> settings:
    """Derandomized settings for ``examples`` draws."""
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def extreme_like(key: str, default):
    """The extremes of the type of ``default``, as ``load_config`` coerces them."""
    if isinstance(default, bool):
        return st.sampled_from(["yes", "off", "2", ""])
    if isinstance(default, int):
        return st.sampled_from(HUGE_INTS + (0, -1, 2.5, math.inf))
    if isinstance(default, float):
        return st.sampled_from(EXTREME_FLOATS + HUGE_INTS)
    if isinstance(default, list):
        # or text that is not JSON
        return st.one_of(st.lists(extreme_like(key, default[0]), max_size=3),
                         st.sampled_from(["[1,", "[0.5", "1]"]))
    return st.sampled_from(["", "cone"])


def value_like(key: str, default):
    """Extremes or moderate values of the type of ``default``."""
    if isinstance(default, bool):
        return st.one_of(st.booleans(), extreme_like(key, default))
    if isinstance(default, int):
        return st.one_of(st.integers(-1, 12), extreme_like(key, default))
    if isinstance(default, float):
        size = abs(default) or 1.0
        return st.one_of(extreme_like(key, default), st.floats(0.25 * size, 4.0 * size),
                         st.floats(-4.0 * size, 4.0 * size, allow_nan=False))
    if isinstance(default, list):
        return st.lists(value_like(key, default[0]), max_size=3)
    choices = CSV_COLUMNS if key == "column" else ("zero", "gaussian", "bump")
    return st.one_of(st.sampled_from(choices), extreme_like(key, default))


def text(value) -> str:
    """A drawn value as ``--set`` reads it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return json.dumps(value)
    return value if isinstance(value, str) else repr(value)


@st.composite
def overrides(draw, defaults: dict):
    """``--set`` arguments: one key of ``defaults`` at an extreme, and up to two more keys."""
    if not defaults:
        return []
    keys = sorted(defaults)
    extreme = draw(st.sampled_from(keys))
    others = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    values = {key: draw(value_like(key, defaults[key])) for key in others if key != extreme}
    values[extreme] = draw(extreme_like(extreme, defaults[extreme]))
    return [arg for key, value in values.items() for arg in ("--set", f"{key}={text(value)}")]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory for the outputs, holding a series CSV for ``decay-fit`` to read."""
    path = tmp_path_factory.mktemp("fuzz")
    assert parse_and_dispatch(["simulate", "--set", "t_max=4", "--set", "r_max=10",
                               "--jobs", "1", "--out", str(path / "series.csv")]) == 0
    return path


def dispatch(argv, out=None) -> None:
    """Run one command in-process; check its exit code and, on exit 0, its JSON report.

    The one warning a command may give is a ``SupportViolationWarning``, for data
    reaching past the safe radius; a RuntimeWarning still raises.
    """
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()),
          warnings.catch_warnings(record=True) as caught):
        code = parse_and_dispatch(argv)
    assert code in (0, 2, 3), argv
    assert all(issubclass(w.category, SupportViolationWarning) for w in caught), (
        argv, [str(w.message) for w in caught])
    if code == 0 and out is not None:
        REPORT.validate(json.loads(out.read_text()))


def run_cost(defaults: dict, sets: list, cells) -> float:
    """Steps times nodes over every cell, or 0 for a config refused before a step.

    A config that raises here is kept: the command stops at the same place,
    and the test reports it if that is not a clean refusal.
    """
    try:
        cfg = cli.load_config(defaults, None, sets[1::2])
        grid, config, _, _ = cli._build_run(cfg)
        steps = time_step(grid.step_unit, config)[0]
    except Exception:
        return 0.0
    return float(steps) * grid.num_nodes * cells(cfg)


@fuzz(40)
@given(sets=overrides(MODEL_DEFAULTS))
def test_info(sets, work):
    out = work / "info.json"
    dispatch(["info", *sets, "--out", str(out)], out)


@fuzz(100)
@given(sets=overrides(SIMULATE_DEFAULTS), jobs=st.sampled_from(["1", "2"]))
def test_simulate(sets, jobs, work):
    assume(run_cost(SIMULATE_DEFAULTS, sets, lambda cfg: 1) <= RUN_COST)
    dispatch(["simulate", *sets, "--jobs", jobs, "--out", str(work / "run.csv")])


@fuzz(60)
@given(sets=overrides(SWEEP_DEFAULTS), jobs=st.sampled_from(["1", "2"]))
def test_sweep(sets, jobs, work):
    cells = lambda cfg: len(cfg["p_values"]) * len(cfg["amplitudes"])
    assume(run_cost(SWEEP_DEFAULTS, sets, cells) <= RUN_COST)
    dispatch(["sweep", *sets, "--jobs", jobs, "--out", str(work / "sweep.csv")])


def verify(suite, sets, seed, work):
    out = work / "verify.json"
    dispatch(["verify", suite, *sets, "--seed", str(seed), "--out", str(out)], out)


SEEDS = st.one_of(st.integers(-1, 3), st.sampled_from(HUGE_INTS))


@fuzz(60)
@given(sets=overrides(SUITES["identities"][0]), seed=SEEDS)
def test_verify_identities(sets, seed, work):
    verify("identities", sets, seed, work)


@fuzz(50)
@given(sets=overrides(SUITES["inequalities"][0]), seed=SEEDS)
def test_verify_inequalities(sets, seed, work):
    verify("inequalities", sets, seed, work)


@fuzz(5)
@given(seed=SEEDS)
def test_verify_bihari(seed, work):
    verify("bihari", [], seed, work)


@fuzz(80)
@given(sets=overrides(ODI_DEFAULTS))
def test_odi(sets, work):
    out = work / "odi.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "solve", functools.partial(odi.solve, max_steps=ODI_STEPS))
        dispatch(["odi", *sets, "--out", str(out)], out)


@fuzz(40)
@given(sets=overrides(FIT_DEFAULTS))
def test_decay_fit(sets, work):
    out = work / "fit.json"
    dispatch(["decay-fit", str(work / "series.csv"), *sets, "--out", str(out)], out)
