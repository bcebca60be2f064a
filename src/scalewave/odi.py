"""Blow-up comparison toolkit for second-order differential inequalities.

The inequality

    F'' + k0/(1+t) F' >= k1 (1+t)^alpha |F|^p,   k0, k1 > 0, alpha >= -2, p > 1,

with F(0) > 0 and F'(0) > 0 forces finite-time blow-up.  The driver is an
explicit comparison function G solving

    G' = nu (1+t)^(alpha+1) G^((p+1)/2),   G(0) = F(0),

for a margin parameter nu chosen small enough that (i) G's own differential
expression stays strictly below the inequality's right-hand side and (ii)
G'(0) < F'(0).  Separation of variables yields G in closed form together
with its life span; F dominates G on the common domain, so the life span is
an explicit upper bound mechanism for F's own blow-up time.

The equality version of the inequality is the extremal comparison case and
is integrated here by a classical fixed-step fourth-order method; any
genuine solution of the inequality dominates it, so checks against the
integrated trajectory are conservative.

A step has two new times, t + dt/2 (stages 2 and 3) and t + dt (stage 4,
and stage 1 of the next step).  The coefficients -k0/(1+tau) and
k1 (1+tau)^alpha are computed once per such time, with the operations and
the order of a per-stage evaluation, so the trajectory is the same bit for
bit.  A stage whose |F|^p overflows ends the trajectory at t + dt with
nothing of that step recorded.

Two rewrites in the step keep every bit.  A stage value x is powered as
``(x if x > 0.0 else abs(x)) ** p``: for x > 0 the operand is x itself, which
is abs(x), and every other x (-0.0, negatives, NaN) takes abs(x) as before.
A step ends unless ``(f - f) + (df - df) == 0.0 and f <= cutoff``: x - x is
0.0 for finite x and NaN for an infinity or NaN, so the sum is 0.0 exactly
when both are finite, and for a finite f, ``f <= cutoff`` fails exactly when
``f > cutoff`` holds.

Memory is 16 bytes a step: 8 for F and 8 for the times, which are rebuilt
in place in their own buffer, so about 320 MB at the MAX_STEPS cap.
``comparison_check`` streams over the trajectory in slices of CHECK_CHUNK
samples, so its temporaries do not grow with it.  The chunking keeps every
bit: each sample's deficit (G - F)/G takes the same operations on the same
operands, a chunk's maximum is one of its deficits, and np.maximum combines
the chunk maxima to the largest deficit, or to NaN if any deficit is NaN, as
np.max over the whole prefix does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import CheckReport

BLOWUP_CUTOFF = 1e12
COMPARISON_SLACK = 1e-6
# samples per slice of comparison_check's streamed maximum
CHECK_CHUNK = 4096
MAX_STEPS = 20_000_000
# why an integrated trajectory ends
STOP_BLOWUP = "blow-up"
STOP_HORIZON = "horizon"
STOP_STEP_CAP = "step cap"


@dataclass(frozen=True)
class OdiProblem:
    """Coefficients and initial data of the comparison inequality.

    ``k1 == 0`` is tolerated so the degenerate linear equation can be
    integrated; the comparison construction itself (``select_nu`` and
    friends) requires k1 > 0.
    """

    k0: float
    k1: float
    alpha: float
    p: float
    f0: float
    df0: float

    def __post_init__(self) -> None:
        if not self.k0 > 0.0:
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.k1 < 0.0:
            raise ValueError(f"k1 must be nonnegative, got {self.k1}")
        if self.alpha < -2.0:
            raise ValueError(f"alpha must be >= -2, got {self.alpha}")
        if not self.p > 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if not self.f0 > 0.0:
            raise ValueError(f"f0 must be positive, got {self.f0}")
        if not self.df0 > 0.0:
            raise ValueError(f"df0 must be positive, got {self.df0}")
        for name in ("k0", "k1", "alpha", "p", "f0", "df0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def select_nu(problem: OdiProblem) -> float:
    """0.9 times the largest margin parameter that makes G a genuine subsolution.

    G must satisfy G'' + k0/(1+t) G' <= k1 (1+t)^alpha G^p on [0, life span).
    Dividing through, the requirement is

        nu*(alpha+1+k0)*G(t)^(-(p-1)/2) + nu^2*(p+1)/2*(1+t)^(alpha+2) <= k1,

    and eliminating (1+t)^(alpha+2) through the closed form of G makes the
    left side linear in G^(-(p-1)/2) in (0, f0^(-(p-1)/2)], so it is largest at
    an endpoint.  Both endpoints give a quadratic constraint in nu with the
    same leading coefficient (p+1)/2 and linear coefficient

        max(alpha+1+k0, (p+1)*(alpha+2)/(p-1)) * f0^(-(p-1)/2);

    at alpha = -2 the second argument vanishes and this reduces to the
    plain damping-side constraint.  nu is 0.9 times the smaller of the
    positive quadratic root (one always exists for k1 > 0) and the slope
    bound df0*f0^(-(p+1)/2) enforcing G'(0) < F'(0); the 0.9 margin trades
    a slightly weaker life-span bound for strictness.  Where b*b overflows or
    the slope bound underflows a float, that nu breaks (i) or (ii), and
    ValueError is raised.
    """
    if problem.k1 <= 0.0:
        raise ValueError("margin selection needs a positive source coefficient k1")
    inv_beta_f0 = problem.f0 ** (-0.5 * (problem.p - 1.0))
    a = 0.5 * (problem.p + 1.0)
    b_damping = (problem.alpha + 1.0 + problem.k0) * inv_beta_f0
    b_growth = (problem.p + 1.0) * (problem.alpha + 2.0) / (problem.p - 1.0) * inv_beta_f0
    b = max(b_damping, b_growth)
    nu_quadratic = (-b + math.sqrt(b * b + 4.0 * a * problem.k1)) / (2.0 * a)
    nu_slope = problem.df0 * problem.f0 ** (-0.5 * (problem.p + 1.0))
    nu = 0.9 * min(nu_quadratic, nu_slope)
    if not (nu * (a * nu + b_damping) < problem.k1
            and nu * problem.f0 ** (0.5 * (problem.p + 1.0)) < problem.df0):
        raise ValueError(f"no margin parameter: nu = {nu:.6g} fails (i) or (ii), as b*b "
                         "overflows or the slope bound underflows a float; bring the "
                         "coefficients nearer 1")
    return nu


def life_span(problem: OdiProblem, nu: float) -> float:
    """Blow-up time of the comparison function for the given margin parameter.

    From d/dt G^(-(p-1)/2) = -nu*(p-1)/2 * (1+t)^(alpha+1): the inverse
    power reaches zero at

        T0 = (2*(alpha+2)/((p-1)*nu) * f0^(-(p-1)/2) + 1)^(1/(alpha+2)) - 1

    for alpha > -2, and exp(2/((p-1)*nu) * f0^(-(p-1)/2)) - 1 at alpha = -2;
    the two branches are continuous at alpha = -2.
    """
    if not nu > 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    g0 = problem.f0 ** (-0.5 * (problem.p - 1.0))
    if problem.alpha == -2.0:
        return math.exp(2.0 / ((problem.p - 1.0) * nu) * g0) - 1.0
    shift = problem.alpha + 2.0
    return (2.0 * shift / ((problem.p - 1.0) * nu) * g0 + 1.0) ** (1.0 / shift) - 1.0


def comparison_function(problem: OdiProblem, nu: float, t):
    """Closed-form comparison function on [0, life_span); increasing, unbounded.

    Separation of variables gives, with beta = (p-1)/2,

        G(t)^(-beta) = f0^(-beta) - nu*beta/(alpha+2) * ((1+t)^(alpha+2) - 1)

    for alpha > -2 and the log(1+t) limit at alpha = -2.  Raises
    ValueError("life span exceeded") at or beyond the life span.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("comparison function is defined for t >= 0")
    beta = 0.5 * (problem.p - 1.0)
    g0 = problem.f0 ** (-beta)
    if problem.alpha == -2.0:
        h = g0 - nu * beta * np.log1p(t_arr)
    else:
        shift = problem.alpha + 2.0
        h = g0 - nu * beta / shift * ((1.0 + t_arr) ** shift - 1.0)
    if np.any(h <= 0.0):
        raise ValueError("life span exceeded: comparison function has blown up")
    out = h ** (-1.0 / beta)
    return float(out) if np.ndim(t) == 0 else out


def integrate_odi(problem: OdiProblem, dt: float, t_max: float | None = None,
                  max_steps: int = MAX_STEPS):
    """Integrate the equality version F'' = -k0/(1+t) F' + k1 (1+t)^alpha |F|^p.

    Classical fixed-step RK4 from (f0, df0); stops once F exceeds
    BLOWUP_CUTOFF (numerical blow-up), t passes t_max (default 10x the life
    span for the selected margin parameter), or max_steps is hit.
    Returns (t, f, blowup_time) with blowup_time None if the cutoff
    was never reached; then the trajectory reached the horizon if
    t[-1] >= t_max, and stopped at the step cap otherwise.  F' is carried
    from step to step but not kept: no caller reads it.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if t_max is None:
        t_max = 10.0 * life_span(problem, select_nu(problem))
    k1, alpha, p = problem.k1, problem.alpha, problem.p
    neg_k0 = -problem.k0
    cutoff = BLOWUP_CUTOFF  # a local: the loop reads it every step
    half = 0.5 * dt
    sixth = dt / 6.0
    # imported here: the module maps about 0.14 MB that only a trajectory needs
    from array import array

    # the float64 buffer F is returned a view of, 8 bytes a step
    fs = array("d", [problem.f0])
    append_f = fs.append
    t, f, df = 0.0, problem.f0, problem.df0
    # acceleration coefficients at the step's start: -k0/(1+t) and k1 (1+t)^alpha
    damp, gain = neg_k0 / (1.0 + t), k1 * (1.0 + t) ** alpha
    blowup_time = None
    for _ in range(max_steps):
        if not t < t_max:
            break
        t_next = t + dt
        # each stage value x is powered as |x|^p, spelled so that x > 0 skips abs()
        try:
            k1d = damp * df + gain * (f if f > 0.0 else abs(f)) ** p
            mid = 1.0 + (t + half)
            damp_mid, gain_mid = neg_k0 / mid, k1 * mid ** alpha
            k2f = df + half * k1d
            x = f + half * df
            k2d = damp_mid * k2f + gain_mid * (x if x > 0.0 else abs(x)) ** p
            k3f = df + half * k2d
            x = f + half * k2f
            k3d = damp_mid * k3f + gain_mid * (x if x > 0.0 else abs(x)) ** p
            k4f = df + dt * k3d
            end = 1.0 + t_next
            damp, gain = neg_k0 / end, k1 * end ** alpha
            x = f + dt * k3f
            k4d = damp * k4f + gain * (x if x > 0.0 else abs(x)) ** p
        except OverflowError:
            # a stage value left the float range: the step is blowing up
            blowup_time = t_next
            break
        f = f + sixth * (df + 2.0 * k2f + 2.0 * k3f + k4f)
        df = df + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        t = t_next
        # x - x is 0.0 only for a finite x: NaN and the infinities fail the sum
        if not ((f - f) + (df - df) == 0.0 and f <= cutoff):
            blowup_time = t
            break
        append_f(f)
    # the times t = t + dt from 0, rebuilt in place: accumulate adds in sequence,
    # so bit for bit, and needs no second buffer
    times = np.full(len(fs), dt)
    times[0] = 0.0
    return np.add.accumulate(times, out=times), np.frombuffer(fs), blowup_time


@dataclass
class OdiSolution:
    """Selected margin parameter, life span, and the integrated trajectory."""

    problem: OdiProblem
    nu: float
    life_span: float
    t: np.ndarray
    f: np.ndarray
    blowup_time: float | None
    stop: str  # STOP_BLOWUP, STOP_HORIZON or STOP_STEP_CAP

    def comparison_at(self, t):
        return comparison_function(self.problem, self.nu, t)


def solve(problem: OdiProblem, dt: float | None = None,
          max_steps: int = MAX_STEPS) -> OdiSolution:
    """Select the margin parameter, build the comparison data, integrate the trajectory.

    The default step resolves both the damping layer near t = 0 (absolute
    cap 1e-3) and the approach to the life span.  The trajectory runs to
    10 life spans, and the solution says why it stopped: blow-up, that
    horizon, or ``max_steps``.
    """
    nu = select_nu(problem)
    t0 = life_span(problem, nu)
    if dt is None:
        dt = min(1e-3, t0 / 1e5)
    horizon = 10.0 * t0
    t, f, blowup_time = integrate_odi(problem, dt, t_max=horizon, max_steps=max_steps)
    if blowup_time is not None:
        stop = STOP_BLOWUP
    else:
        stop = STOP_HORIZON if t[-1] >= horizon else STOP_STEP_CAP
    return OdiSolution(problem=problem, nu=nu, life_span=t0, t=t, f=f,
                       blowup_time=blowup_time, stop=stop)


def _max_deficit(solution: OdiSolution, start: int, count: int):
    """Largest (G - F)/G over CHECK_CHUNK samples from start, none past count; NaN if any is."""
    chunk = slice(start, min(start + CHECK_CHUNK, count))
    g = solution.comparison_at(solution.t[chunk])
    return np.max((g - solution.f[chunk]) / g)


def comparison_check(solution: OdiSolution) -> CheckReport:
    """Assert F(t) >= G(t)*(1 - COMPARISON_SLACK) at all samples before min(blow-up, life span).

    Checks the trajectory of an already solved problem (see ``solve``); G is
    positive, so the deficit is relative to G.  The times never decrease, so
    the samples checked are a prefix; its deficits are formed CHECK_CHUNK at a
    time, and a NaN deficit makes the worst NaN, as np.max over it would.
    """
    blowup_time = solution.blowup_time
    limit = solution.life_span if blowup_time is None else min(blowup_time, solution.life_span)
    count = int(np.searchsorted(solution.t, limit * (1.0 - 1e-12)))
    # the first slice alone is taken by np.max, which rejects an empty prefix
    deficit = _max_deficit(solution, 0, count)
    for start in range(CHECK_CHUNK, count, CHECK_CHUNK):
        deficit = np.maximum(deficit, _max_deficit(solution, start, count))
    notes = [
        f"nu={solution.nu:.12g}",
        f"life_span={solution.life_span:.12g}",
        "trajectory blow-up at "
        + (f"{blowup_time:.12g}" if blowup_time is not None
           else f"none ({solution.stop} reached)"),
    ]
    return CheckReport(
        check_id="odi-comparison-dominance",
        n_cases=count,
        worst=float(deficit),
        tolerance=COMPARISON_SLACK,
        notes=notes,
    )
