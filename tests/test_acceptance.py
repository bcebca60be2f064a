"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

The heavy solver runs are shared through module-scoped fixtures; the whole
suite is sized for a desk-scale machine (about a minute single-threaded).
Criterion 11 is a soft consistency check by design: its rate agreement is
asserted, and the amplitude-ratio factor is asserted at the stated loose
factor because the underlying statement is only an order bound.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scalewave.analysis import GLOBAL_LOOKING, classify_run, fit_decay, sweep
from scalewave.grid import integrate, make_radial_grid
from scalewave.model import (
    ModelParams,
    borderline_log_factor,
    critical_exponent,
    decay_exponents,
    fujita_exponent,
)
from scalewave.odi import (
    OdiProblem,
    comparison_check,
    comparison_function,
    life_span,
    select_nu,
    solve,
)
from scalewave.solver import OUTCOME_BLOWUP, OUTCOME_COMPLETED, RunConfig, run
from scalewave.verify import (
    bihari_check,
    check_embeddings,
    check_energy_identity,
    check_weighted_gradient_bound,
    check_psi_identities,
    default_manufactured_solution,
    gn_ratio_check,
    standard_family,
)

GAUSS_WIDTH = 0.4  # in the weighted space for mu1 <= 4 and below the weight budget


def gauss(r):
    return np.exp(-((r / GAUSS_WIDTH) ** 2))


def small_gauss(r):
    return 0.01 * np.exp(-((r / GAUSS_WIDTH) ** 2))


def bump3(r):
    return np.where(r < 3.0, (1.0 - np.clip(r / 3.0, 0.0, 1.0) ** 2) ** 3, 0.0)


def zero(r):
    return np.zeros_like(r)


def pair_norm(report):
    t, grad = report.series("grad_l2")
    _, ut = report.series("ut_l2")
    return t, np.sqrt(grad**2 + ut**2)


def verdict(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def grid230():
    return make_radial_grid(1, 230.0, 0.05)


@pytest.fixture(scope="module")
def linear_decay_report(grid230):
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    cfg = RunConfig(params=params, s=0.0, t_max=200.0, nonlinear=False,
                    cfl_safety=0.9, record_every=25)
    start = time.perf_counter()
    report = run(grid230, gauss, zero, cfg)
    report.elapsed = time.perf_counter() - start
    return report


def test_criterion_01_linear_decay_rates(linear_decay_report):
    """Linear small-data decay: L2 at -0.5 +- 0.15, gradient pair at -1.5 +- 0.2."""
    report = linear_decay_report
    assert report.outcome == OUTCOME_COMPLETED
    t, l2 = report.series("l2")
    fit_l2 = fit_decay(t, l2, (20.0, 200.0))
    assert fit_l2.exponent == pytest.approx(-0.5, abs=0.15)
    tg, pair = pair_norm(report)
    fit_pair = fit_decay(tg, pair, (20.0, 200.0))
    assert fit_pair.exponent == pytest.approx(-1.5, abs=0.2)
    assert report.elapsed < 120.0
    verdict("1 linear decay rates",
            f"l2 fit {fit_l2.exponent:.3f}, gradient fit {fit_pair.exponent:.3f}, "
            f"{report.elapsed:.1f}s")


def test_criterion_02_logarithmic_borderline(grid230):
    """Borderline discriminant: corrected gradient fit hits the table rate.

    The criterion states the rate through the closed formula
    -(n/2 + mu1/2 + 1/2 - sqrt(delta)/2); at n=1, mu1=3, delta=4 this
    evaluates to -1.5 (the table's gradient exponent).
    """
    params = ModelParams(n=1, mu1=3.0, mu2sq=0.0, p=2.0)
    table = decay_exponents(params)
    formula = -(0.5 * params.n + 0.5 * params.mu1 + 0.5 - 0.5 * math.sqrt(params.delta))
    assert table.grad_exponent == pytest.approx(formula)
    assert table.log_correction

    cfg = RunConfig(params=params, s=0.0, t_max=200.0, nonlinear=False,
                    cfl_safety=0.9, record_every=25)
    report = run(grid230, gauss, zero, cfg)
    t, pair = pair_norm(report)
    corrected = fit_decay(t, pair, (20.0, 200.0),
                          log_factor=partial(borderline_log_factor, params))
    plain = fit_decay(t, pair, (20.0, 200.0))
    assert corrected.exponent == pytest.approx(formula, abs=0.2)
    assert plain.exponent > corrected.exponent
    verdict("2 logarithmic borderline",
            f"corrected {corrected.exponent:.3f} vs table {formula}, "
            f"uncorrected {plain.exponent:.3f} above")


@pytest.fixture(scope="module")
def blowup_report(grid230):
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    cfg = RunConfig(params=params, s=0.0, t_max=200.0, nonlinear=True,
                    cfl_safety=0.9, record_every=5)
    start = time.perf_counter()
    report = run(grid230, bump3, bump3, cfg)
    report.elapsed = time.perf_counter() - start
    return report


def test_criterion_03_blowup_below_critical(grid230, blowup_report):
    """p = 2 <= p_crit = 3 with sign-favorable compact data blows up in finite time."""
    params = blowup_report.config.params
    assert critical_exponent(params) == pytest.approx(3.0)
    # sign conditions: both data integrals positive (the frame shift vanishes
    # for the massless case, so the second condition is the plain integral)
    data_integral = integrate(grid230, bump3(grid230.r))
    assert data_integral > 0.0
    assert blowup_report.outcome == OUTCOME_BLOWUP
    assert blowup_report.blowup_time < 200.0
    t, f_series = blowup_report.series("F")
    increases = np.diff(f_series) > 0.0
    onset = 0
    for i in range(increases.size - 1, -1, -1):
        if not increases[i]:
            onset = i + 1
            break
    assert onset <= increases.size - 3, "monotone growth must set in before blow-up"
    assert np.all(f_series[onset:] > 0.0)
    assert blowup_report.elapsed < 60.0
    verdict("3 blow-up below critical",
            f"blow-up at t={blowup_report.blowup_time:.2f}, F>0 increasing from "
            f"t={t[onset]:.2f}, {blowup_report.elapsed:.1f}s")


def test_criterion_04_global_looking_above_critical(grid230):
    """p = 4 > p_crit with small data: completed, bounded weighted energy, decay."""
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=4.0)
    cfg = RunConfig(params=params, s=0.0, t_max=200.0, nonlinear=True,
                    cfl_safety=0.9, record_every=25)
    report = run(grid230, small_gauss, zero, cfg)
    assert report.outcome == OUTCOME_COMPLETED
    _, wgrad = report.series("wgrad_l2")
    ratio = float(np.max(wgrad) / wgrad[0])
    assert ratio <= 10.0
    t, l2 = report.series("l2")
    fit = fit_decay(t, l2, (20.0, 200.0))
    assert fit.exponent == pytest.approx(-0.5, abs=0.2)
    assert classify_run(report)[0] == GLOBAL_LOOKING
    verdict("4 global-looking above critical",
            f"weighted gradient ratio {ratio:.3f}, l2 fit {fit.exponent:.3f}")


def test_criterion_05_massless_critical_exponent_invariance():
    """Without mass the critical power equals the flat Fujita value exactly."""
    for mu1 in (2.0, 4.0, 6.0):
        params = ModelParams(n=1, mu1=mu1, mu2sq=0.0, p=2.0)
        assert critical_exponent(params) == fujita_exponent(1.0)
    verdict("5 massless invariance", "p_crit == 3 exactly for mu1 in {2, 4, 6}")


def test_criterion_06_identity_suite():
    """Weight-exponent identities at 1e3 points; energy-rate identity at 1e-10."""
    rng = np.random.default_rng(2024)
    worst_weight = 0.0
    worst_energy = 0.0
    ms = default_manufactured_solution()
    for n in (1, 2, 3):
        for mu1 in (1.0, 2.0, 4.0):
            for mu2sq in (0.0, 1.0):
                params = ModelParams(n=n, mu1=mu1, mu2sq=mu2sq, p=2.0)
                rep = check_psi_identities(
                    params, rng.uniform(0.0, 5.0, 1000), rng.uniform(0.0, 3.0, 1000)
                )
                assert rep.passed and rep.worst <= 1e-12
                worst_weight = max(worst_weight, rep.worst)
                pts = list(zip(rng.uniform(0.0, 5.0, 100), rng.uniform(0.1, 3.0, 100)))
                energy = check_energy_identity(ms, params, pts)
                assert energy.passed and energy.worst <= 1e-10
                worst_energy = max(worst_energy, energy.worst)
    verdict("6 identity suite",
            f"weight identities worst {worst_weight:.2e}, "
            f"energy identity worst {worst_energy:.2e}")


def test_criterion_07_inequality_suite():
    """Weighted gradient bound + embeddings with explicit constant on the 50-member
    family, margin 1.01; interpolation-ratio supremum stable within 5%."""
    family = standard_family(seed=42)
    assert len(family) == 50
    sigmas = (0.25, 0.5, 1.0)
    times = (0.0, 1.0, 4.0, 9.0)
    worst_ratio = -math.inf
    for n in (1, 2, 3):
        params = ModelParams(n=n, mu1=1.0, mu2sq=0.0, p=2.0)
        grid = make_radial_grid(n, 40.0, 0.02)
        bound_rep = check_weighted_gradient_bound(family, params, sigmas, times, grid)
        assert bound_rep.passed and bound_rep.worst <= 1.01
        worst_ratio = max(worst_ratio, bound_rep.worst)
        for sigma in sigmas:
            embeds = check_embeddings(family, params, sigma, times, grid)
            assert len(embeds) == len(times)
            for embed in embeds:
                assert embed.passed and embed.worst <= 1.01
    worst_spread = 0.0
    for n, q in ((1, 4.0), (2, 4.0), (3, 3.0)):
        params = ModelParams(n=n, mu1=1.0, mu2sq=0.0, p=2.0)
        wide = make_radial_grid(n, 160.0, 0.04)
        for sigma in (0.25, 0.5):
            ratio = gn_ratio_check(family, params, sigma, q, times, wide)
            assert ratio.passed and ratio.worst <= 0.05
            worst_spread = max(worst_spread, ratio.worst)
    verdict("7 inequality suite",
            f"worst gradient-bound ratio {worst_ratio:.6f}, worst interpolation spread "
            f"{worst_spread:.2e}")


def test_criterion_08_odi_oracle():
    """Closed comparison function vs adaptive integration at 1e-8; life-span
    continuity at the log branch; dominance on the standard and random cases;
    pinned margin parameter for the standard case."""
    standard = OdiProblem(k0=4.0, k1=1.0, alpha=-2.0, p=3.0, f0=1.0, df0=1.0)
    nu = select_nu(standard)
    assert nu == pytest.approx(0.9 * (-3.0 + math.sqrt(17.0)) / 4.0, rel=1e-12)
    assert nu == pytest.approx(0.25270, abs=1e-4)

    rng = np.random.default_rng(88)

    def random_problem(k):
        return OdiProblem(k0=rng.uniform(0.5, 6.0), k1=rng.uniform(0.3, 5.0),
                          alpha=-2.0 if k % 5 == 0 else rng.uniform(-2.0, 0.0),
                          p=rng.uniform(1.5, 4.0), f0=rng.uniform(0.3, 2.0),
                          df0=rng.uniform(0.3, 2.0))

    worst_oracle = 0.0
    for k in range(20):
        prob = random_problem(k)
        nu_k = select_nu(prob)
        t_end = 0.9 * life_span(prob, nu_k)
        sol = solve_ivp(
            lambda t, y: [nu_k * (1.0 + t) ** (prob.alpha + 1.0)
                          * y[0] ** (0.5 * (prob.p + 1.0))],
            (0.0, t_end), [prob.f0], rtol=1e-12, atol=1e-14, dense_output=True,
        )
        ts = np.linspace(0.0, t_end, 40)
        rel = np.max(np.abs(comparison_function(prob, nu_k, ts) - sol.sol(ts)[0])
                     / np.abs(sol.sol(ts)[0]))
        assert rel <= 1e-8
        worst_oracle = max(worst_oracle, rel)

    shifted = OdiProblem(k0=4.0, k1=1.0, alpha=-2.0 + 1e-6, p=3.0, f0=1.0, df0=1.0)
    t_log = life_span(standard, nu)
    assert abs(life_span(shifted, nu) - t_log) / t_log <= 1e-4

    assert comparison_check(solve(standard)).passed
    worst_deficit = -math.inf
    for k in range(20):
        rep = comparison_check(solve(random_problem(100 + k)))
        assert rep.passed, rep.notes
        worst_deficit = max(worst_deficit, rep.worst)
    verdict("8 odi oracle",
            f"nu={nu:.6f}, oracle agreement {worst_oracle:.2e}, "
            f"worst dominance deficit {worst_deficit:.2e}")


def test_criterion_09_bihari_checker():
    """Square-root comparison: equality trajectories within 1e-8, k = 0 exact."""
    g = lambda u: math.sqrt(2.0 * max(u, 0.0))
    antideriv = lambda u: math.sqrt(2.0 * max(u, 0.0))

    times = np.linspace(0.0, 5.0, 2001)
    k_const = np.full_like(times, 0.3)
    y_eq = 0.5 * (math.sqrt(2.0) + 0.3 * times) ** 2
    rep_eq = bihari_check(times, y_eq, k_const, g, 1.0, antideriv, tolerance=1e-8)
    assert rep_eq.passed and abs(rep_eq.worst) <= 1e-8

    dense = np.linspace(0.0, 5.0, 40001)
    sol = solve_ivp(lambda t, y: [math.sqrt(2.0 * y[0]) / (1.0 + t)], (0.0, 5.0), [1.0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    rep_ode = bihari_check(dense, sol.sol(dense)[0], 1.0 / (1.0 + dense), g, 1.0,
                           antideriv, tolerance=1e-8)
    assert rep_ode.passed and abs(rep_ode.worst) <= 1e-8

    zeros = np.zeros_like(times)
    rep_zero = bihari_check(times, np.ones_like(times), zeros, g, 1.0, antideriv,
                            tolerance=0.0)
    assert rep_zero.passed
    verdict("9 bihari checker",
            f"equality residuals {rep_eq.worst:.2e} / {rep_ode.worst:.2e}, "
            "degenerate case exact")


def test_criterion_10_convergence_order(linear_decay_report):
    """Halving dr (and dt via the CFL tie) contracts the final L2 norm
    increments by a factor approaching 4."""
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    norms = {0.05: linear_decay_report.series("l2")[1][-1]}
    for dr in (0.1, 0.025):
        g = make_radial_grid(1, 230.0, dr)
        cfg = RunConfig(params=params, s=0.0, t_max=200.0, nonlinear=False,
                        cfl_safety=0.9, record_every=10**9)
        norms[dr] = run(g, gauss, zero, cfg).series("l2")[1][-1]
    order = math.log2(abs(norms[0.1] - norms[0.05]) / abs(norms[0.05] - norms[0.025]))
    assert order >= 1.9
    verdict("10 convergence order", f"observed spatial order {order:.3f}")


def test_criterion_11_initial_time_dependence():
    """Soft check: delayed-start runs keep the decay rate and scale like the
    predicted power of (1 + s).  Failure here calls for investigation rather
    than automatic rejection; the factor-3 window encodes that softness."""
    params = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    grid = make_radial_grid(1, 130.0, 0.05)
    fits = {}
    final_l2 = {}
    for s in (0.0, 5.0):
        cfg = RunConfig(params=params, s=s, t_max=100.0, nonlinear=False,
                        cfl_safety=0.9, record_every=20)
        report = run(grid, zero, gauss, cfg)
        assert report.outcome == OUTCOME_COMPLETED
        t, l2 = report.series("l2")
        fits[s] = fit_decay(t, l2, (30.0, 100.0)).exponent
        final_l2[s] = l2[-1]
    assert abs(fits[5.0] - fits[0.0]) <= 0.2

    u1_values = gauss(grid.r)
    l1 = integrate(grid, np.abs(u1_values))
    l2n = math.sqrt(integrate(grid, u1_values**2))
    # prefactor (||u1||_L1 + (1+s)^(n/2) ||u1||_L2) * (1+s)^((1+mu1)/2 - sqrt(delta)/2)
    prefactor = lambda s: (l1 + (1.0 + s) ** 0.5 * l2n) * (1.0 + s)
    predicted = prefactor(5.0) / prefactor(0.0)
    actual = final_l2[5.0] / final_l2[0.0]
    assert predicted / 3.0 <= actual <= predicted * 3.0
    verdict("11 initial-time dependence (soft)",
            f"rates {fits[0.0]:.3f} vs {fits[5.0]:.3f}, amplitude ratio "
            f"{actual:.2f} vs predicted {predicted:.2f}")


def test_sweep_dichotomy_monotone(grid230):
    """Companion to criteria 3/4: the sweep reproduces the dichotomy with no
    global-looking row below a blow-up row's power."""
    base = ModelParams(n=1, mu1=4.0, mu2sq=0.0, p=2.0)
    cfg = RunConfig(params=base, s=0.0, t_max=200.0, nonlinear=True,
                    cfl_safety=0.9, record_every=25)
    blow_rows = sweep(grid230, [1.5, 2.0, 2.5], [1.0], cfg, bump3, bump3)
    assert all(row.outcome == OUTCOME_BLOWUP for row in blow_rows)
    global_rows = sweep(grid230, [3.5, 4.0], [0.01], cfg, gauss)
    assert all(row.outcome == GLOBAL_LOOKING for row in global_rows)
    ordered = sorted(blow_rows + global_rows, key=lambda row: row.params.p)
    seen_global = False
    for row in ordered:
        if row.outcome == GLOBAL_LOOKING:
            seen_global = True
        if seen_global:
            assert row.outcome != OUTCOME_BLOWUP
    verdict("sweep dichotomy", f"{len(blow_rows)} blow-up rows below "
            f"{len(global_rows)} global-looking rows")
