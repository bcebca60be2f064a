"""Leapfrog time integration of the damped/massive semilinear wave equation.

Scheme: three-level leapfrog in time, the discrete radial Laplacian in
space, and a semi-implicit average for the damping term,

    (u+ - 2u + u-)/dt^2 + b(t)(u+ - u-)/(2 dt) + m^2(t) u
        = Lap_h u + [nonlinear] |u|^p,

solved explicitly for u+ through the scalar division by (1 + b dt/2).  The
damping and mass coefficients are evaluated at the middle level of the
stencil, which keeps the scheme second-order consistent, and the implicit
averaging of the damping keeps it stable even where b(t) = mu1/(1+t) is
large near the initial time.  The nonlinearity is the pure power |u|^p
evaluated pointwise at the current level; no inner iteration is needed.

Runs start at an arbitrary initial time s >= 0 (the clock simply starts at
t = s) and stop at T_max, on divergence, or when the sup-norm blow-up
detector fires.  Only a nonlinear run can blow up: a linear run on which
the detector fires is reported as diverged.  The steps of one run are
strictly sequential, while its samples may be recorded in lanes (below);
distinct runs share no mutable state and may execute in parallel.

Mass bound: the leapfrog takes the mass term m^2(t) u explicitly, so the
frozen-coefficient bound of a step is dt^2 (rho + m^2) <= 4 for the
spectral radius rho of the discrete Laplacian.  The grid's step unit is at
most 2/sqrt(rho), so (dt/step_unit)^2 + dt^2 m^2(s)/4 <= 1 implies that
bound at s, and later, as m^2 only decays; ``check_run`` refuses a massive
run past it.  The rule is invariant under the equation's scaling.

Active window: the stencil has three points and 0**p == 0, so a node can
turn nonzero only next to a nonzero node, and the front of nonzero values
moves at most one node per step.  ``active`` is the length of the prefix
outside which both levels are exactly 0; a step advances only the first
``active + 1`` nodes, with the same arithmetic in the same order as on the
whole grid, so results are bit for bit those of full-grid stepping while
the cost follows the region the data have reached.

One kernel per run: ``leapfrog_kernel`` forms what is constant for a run
once (dt^2, c_p below and the scratch arrays; the operator is the grid's)
and returns the step, which writes every intermediate in place with the
operations, operands and order of the plain expressions, so it keeps their
bits.  ``run``, its only driver, drives it over three level buffers (u-,
u, u+) that rotate, with t, the window and the step index as plain values:
no fresh level per step.  The window never shrinks, and a buffer only ever
holds values written at a width no larger than the current one, so every
level is exactly 0 beyond the window as a fresh level would be.  The step
forms 2u once, as u + u, in u+'s buffer: the Laplacian's centre term reads
it there, and u+ is then formed on it.

Source window: the same idea applied to the source term.  Ahead of the
light cone the leapfrog precursor leaves a tail of tiny values (down to
subnormals), whose powers are exactly +0.0 and cost tens of times more
per element than a normal one.  The step and the first level take |u|**p
through ``functionals._power_source``, which powers only the prefix that
ends at the last node where |u| >= c_p = 2**(-1100/p) and writes +0.0
beyond it, under the package's exact-zero rule (see the functionals
module notes); the forcing still adds the whole array, so every bit, the
signs of zeros included, is that of the plain power.

One sup pass: the step forms |u+| over the window once, into the source
buffer, and reduces it to sup |u+| (np.maximum propagates NaN); ``run``
reads that for divergence, then for the blow-up rule, and then as the
recorded sup of that level's sample, so no level is scanned again.
``init_state`` scans the data and the first level once and returns their
sups for the same uses.

Shared passes: the step remembers the level it wrote last, whether its
sup was finite, and that the source buffer holds its |u+|.  When the next
step's u is that very array, it saves two passes:

- The source powers the buffer in place instead of taking |u| again, if
  no wider window was written into the buffer since, so that it is +0.0
  beyond the level's window, as |u| is.
- Without mass (mu2sq is +0.0) and for a grid ``row_divisor`` D < 2, it
  leaves out f - m^2 u on that level when its sup was finite.  For finite
  u, 0 u is +-0, and f - (+-0) is f bit for bit except when f = -0 and
  0 u = -0, that is, u < 0 or u = -0.  That case never occurs.  Every row
  of the Laplacian ends in a division by at most D; a nonzero numerator is
  at least 2^-1074 in size, so its quotient exceeds half the smallest
  subnormal and is not 0.  A sum is -0 only when both terms are, and a
  difference x - y only when x = -0 and y = +0.  So f = -0 needs a
  numerator of -0, and with it u_1 - u_0 = -0 in row 0,
  u_{i+1} - 2u_i = -0 in an interior row and -2u_i = -0 in the last row
  (for n > 1 those two rows add a first-order term, which must then be
  -0 as well).  Each of these gives u_i = +0, where 0 u = +0.

Any other level takes |u| and the mass pass afresh, as does the run's
first step, whose levels ``init_state`` made.  For D >= 2 a tiny
numerator can round to -0; on a level that is not finite, 0 u is NaN; for
mu2sq = -0.0, 0 u is -0 at u = +0: the mass pass stays in all three cases.

Per-call cost: on the blow-up and late bands' small windows most of a
step's time, and on a 2300-node window about 40% of it, is the fixed cost
of its calls, not work per node.  The kernel keeps that cost down while
every operation, operand and order stays, so the levels keep every bit:

- 2u is formed as u + u.  Doubling is exact, so u + u is 2.0 * u in
  every bit, +-0, inf and NaN included.
- Scalar operands are 0-d float64 arrays: dt^2 and c_p formed once per
  kernel, and m^2, h and 1 + h written at each step into 0-d arrays the
  kernel owns.  Against a float64 array a Python float operand is taken
  as float64 anyway, so the loop and its bits are the same; a 0-d
  operand only skips the conversion, about 0.2 us a call (numpy 2.4 on
  a 2-core x86-64 VM).
- The ufuncs and the grid's ``laplacian_into``, bound once, are closure
  locals; ufuncs take ``out`` positionally, ``_power_source`` zeroes the
  tail only when it is non-empty, and ``run`` reads the threshold once.

What remains per step is ``model.coefficients`` (its call count still
counts steps), ``laplacian_into``, ``_power_source`` and their ufunc
calls: 2u, the Laplacian's three (seven for n > 1), the mass pass's two
where it stays, |u| where it is not shared, the source's comparison, power
and sum, the update's six, and the sup pass's |u+| and reduction.
``TestPerCallCost`` in ``test_solver`` checks the doubling and the 0-d
operands on the running numpy.

Recording: each sample is one row (t, *SAMPLE_KEYS) of floats, written
into one float64 array preallocated for the most rows a run can record,
so series and CSV columns are views of the same numbers.  A sample is one
in-place pass over the window w = ``active`` of the step that follows it,
into rows the recorder allocates once per run: beyond w, u and u_t are
exactly 0, and the radial derivative of the prefix (zero ghost) differs
from the full-grid one only in the sign of a zero, which is only ever
squared.  u^2, u_r^2 and u_t^2 are formed on the window into rows of a
zero-padded full-length buffer: ``grid.radial_derivative_into`` writes u_r
into its row and ``run`` writes u_t into its own, and each is squared in
place.  The plain norms and F dot those rows, whole (views formed once
per run), with the full quadrature weights (the dot of ``grid.integrate``,
without its checks), because a prefix dot differs from the full-length one
in the last bit.  The weighted norms integrate the window itself
(``functionals.norms_of_squares``) with the exponent 2W, formed into a row
from mu1*r^2 (formed once per run) by ``weight_exponent_from_product`` and
the doubling W + W (2.0 * W bit for bit, as u + u is 2u), and with the
recorder's scratch for the nonzero mask, the quadrature terms and the
energy density; see the functionals module for why those keep their bits.
The comparison-frame exponent is formed once per run.  A sample allocates
nothing, except that a weighted quadrature whose nonzero nodes are not a
prefix of the window gathers them.

Lanes: a sample needs only u and u_t on its window, so this process can
step while other processes record.  ``run(..., jobs)`` times its in-loop
samples against its steps.  Once the samples have cost more than the steps
and the run has lasted longer than ``lanes.LANE_START_S``, it forks up to
``jobs - 1`` lanes (``lanes.Lanes``; Linux only), capped so that no lane is
left without a row or a slot of the ring below, and that every lane's run
fits ``RUN_BYTES_BUDGET`` at once.  At the fork the run moves its rows into
a shared row store, an anonymous mapping with the rows so far copied in,
and goes on there.  Only this process steps.  At a sample row it takes a
free slot of a ring of ``_RING_SLOTS`` slots in anonymous shared memory,
without waiting, copies u into it and forms u_t there with the operations
of its own samples, writes the slot's header (row, t, width, sup), marks
the row's t NaN and puts the slot's index on a ready pipe.  When no slot is
free it records the row itself, which balances the rows between this
process and the lanes with no knob.  A lane never steps: it takes slots
from the ready pipe, records each row with the recorder it was forked with
straight into the row store and puts the slot back.  Once the steps are
done, this process ends the ready pipe and waits for the lanes; a row whose
t is still NaN never came back, which is an error.  So every row comes from
the same code on the same levels, and the samples are those of a serial run
bit for bit, for every ``jobs``.  A lane that ends early makes ``run`` raise
why, once the steps are done; until then, once no lane is left (the free
pipe ends, or the ready pipe has no reader), this process records every row
itself.  A refused fork keeps the lanes that did fork.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import lanes
from .functionals import (
    _power_source, _source_cutoff, comparison_frame_exponent, norms_of_squares,
)
from .grid import RadialGrid, integrate, radial_derivative_into
from .model import ModelParams, coefficients, discriminant, weight_exponent_from_product

OUTCOME_COMPLETED = "completed"
OUTCOME_BLOWUP = "blowup"
OUTCOME_DIVERGED = "diverged"

#: Names of the recorded per-sample quantities, in canonical CSV order.
SAMPLE_KEYS = ("sup", "l2", "grad_l2", "ut_l2", "wl2", "wgrad_l2", "wenergy", "F")


class SupportViolationWarning(UserWarning):
    """Initial data carry non-negligible mass outside the safe radius."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one time integration needs besides the grid and the data."""

    params: ModelParams
    s: float = 0.0
    t_max: float = 10.0
    nonlinear: bool = True
    cfl_safety: float = 0.9
    # default far above any bounded-regime amplitude, far below overflow
    blowup_threshold: float = 1e8
    record_every: int = 10

    def __post_init__(self) -> None:
        if self.s < 0.0:
            raise ValueError(f"initial time must be >= 0, got {self.s}")
        if not math.isfinite(self.t_max):
            raise ValueError(f"t_max must be finite, got {self.t_max}")
        if not self.t_max > self.s:
            raise ValueError(f"t_max must exceed the initial time, got {self.t_max} <= {self.s}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not self.blowup_threshold > 0.0:
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class RunReport:
    """Time series of recorded norms plus the run outcome.

    ``samples`` is a float64 array with one row per recorded sample and the
    columns ``t`` then ``SAMPLE_KEYS``.
    """

    config: RunConfig
    samples: np.ndarray
    outcome: str
    blowup_time: float | None = None

    def series(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (times, values) column views for one recorded quantity."""
        return self.samples[:, 0], self.samples[:, 1 + SAMPLE_KEYS.index(key)]


def time_step(step_unit: float, config: RunConfig) -> tuple[int, float]:
    """(steps, dt) of a run: the largest dt <= cfl_safety * step_unit that divides t_max - s.

    ``step_unit`` is the grid's (``RadialGrid.step_unit``); ``steps`` steps of
    dt land exactly on t_max.  A cap that underflows to 0 raises ValueError.
    """
    cap = config.cfl_safety * step_unit
    if cap == 0.0:
        raise ValueError(f"time step cap cfl_safety·step_unit = {config.cfl_safety:g}·"
                         f"{step_unit:g} underflows to 0; raise cfl_safety")
    steps = max(1, math.ceil((config.t_max - config.s) / cap - 1e-9))
    return steps, (config.t_max - config.s) / steps


#: Most bytes one run may hold at once; ``check_run`` rejects a larger run.
RUN_BYTES_BUDGET = 4 * 2**30

#: Slots of the ring through which a run hands sample rows to its lanes (see the
#: module notes).  On ``record-dense`` (2-core Linux VM), 2 slots gained nothing
#: over lanes that each stepped the whole run, and 8 gained at most 3% over 4 for
#: 0.25 MB more peak RSS.
_RING_SLOTS = 4

# float64 arrays of the grid's length that one run holds at once: the grid's
# radii, weights and (2 dr) r denominators (3), the three levels (3), the step
# kernel's forcing, scratch and source (|u|, then |u+|) arrays (3), the
# recorder's mu1*r^2, four padded squares, 2W, gradient density, terms and
# energy density (9), the three arrays a weighted quadrature gathers when its
# nonzero nodes are not a prefix (3), and u and u_t in each slot of the ring
# that feeds the lanes (2 per slot)
_ARRAYS_PER_RUN = 3 + 3 + 3 + 9 + 3 + 2 * _RING_SLOTS
# bytes per node of boolean arrays: the kernel's and the recorder's masks, and
# the copy of one of them that locates its last set node
_MASK_BYTES_PER_NODE = 3


def run_bytes(grid: RadialGrid, config: RunConfig) -> tuple[int, int]:
    """(sample rows, bytes) of the most memory one ``run`` holds at once.

    The count covers the grid's arrays, the node arrays the run allocates
    (``_ARRAYS_PER_RUN``, which bounds ``init_state``'s as well, and counts
    the ring of a run that forks lanes), the boolean masks and the
    preallocated sample rows, not what the data profiles allocate while
    they are sampled.
    """
    rows = time_step(grid.step_unit, config)[0] // config.record_every + 2
    need = 8 * (_ARRAYS_PER_RUN * grid.num_nodes + rows * (1 + len(SAMPLE_KEYS)))
    return rows, need + _MASK_BYTES_PER_NODE * grid.num_nodes


def check_run(grid: RadialGrid, config: RunConfig) -> None:
    """Raise ValueError, allocating nothing, for a run that cannot be sound whatever its data.

    In this order: n >= 6, where no time step is stable (``grid._STEP_FACTORS``);
    ``run_bytes`` past RUN_BYTES_BUDGET; no safe radius (r_max <= t_max - s),
    so the outer cut-off reaches every node; a step past the mass bound
    (module notes).  ``init_state`` holds the refusals that read the data.
    """
    if grid.n >= 6:
        raise ValueError(
            f"n = {grid.n} cannot run stably: the radial Laplacian has a complex spectrum for "
            "n >= 6, so no time step is stable (ROADMAP.md item 1, a symmetric flux form, "
            "would lift this)")
    rows, need = run_bytes(grid, config)
    if need > RUN_BYTES_BUDGET:
        raise ValueError(
            f"run too large: {grid.num_nodes} nodes and {rows} sample rows would preallocate "
            f"{need / 2**30:.4g} GiB, over the {RUN_BYTES_BUDGET / 2**30:g} GiB budget; "
            "coarsen dr, shorten r_max or t_max, or raise record_every")
    span = config.t_max - config.s
    if grid.r_max <= span:
        raise ValueError(f"no safe radius: r_max {grid.r_max:g} <= t_max - s = {span:g}, so the "
                         "outer cut-off reaches every node; enlarge r_max or shorten the run")
    dt, unit = time_step(grid.step_unit, config)[1], grid.step_unit
    m_sq = config.params.mu2sq / (1.0 + config.s) ** 2
    bound = (dt / unit) ** 2 + dt * dt * m_sq / 4.0
    # without mass dt <= step_unit, up to time_step's rounding, which is no refusal
    if m_sq > 0.0 and bound > 1.0:
        raise ValueError(
            f"time step past the mass bound: dt = {dt:.6g} gives (dt/step_unit)² + dt²·m²(s)/4 "
            f"= {bound:.6g} > 1, with step_unit {unit:.6g} and m²(s) = mu2sq/(1+s)² = "
            f"{m_sq:.6g}; lower cfl_safety or dr")


def lanes_that_fit(grid: RadialGrid, config: RunConfig) -> int:
    """How many processes can each hold one such run within RUN_BYTES_BUDGET at once."""
    return RUN_BYTES_BUDGET // run_bytes(grid, config)[1]


def _sample_profile(profile, r: np.ndarray) -> np.ndarray:
    values = np.asarray(profile(r), dtype=float)
    if values.shape == ():
        values = np.full(r.shape, float(values))
    return values.copy()


def init_state(grid: RadialGrid, u0, u1, config: RunConfig, dt: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, tuple[float, float]]:
    """Sample the data at time s and take the second-order Taylor first step.

    ``u0`` and ``u1`` are radial profiles (callables of r).  Returns the
    sampled u0 and u1, the first level at s + dt,
    u0 + dt*u1 + (dt^2/2)*(Lap u0 - b(s) u1 - m^2(s) u0 + [nl] |u0|^p),
    ``active``, one past the last node where u0 or the first level is
    nonzero, and the sups (max |u0|, max |first level|).  Data must be
    supported inside the safe radius r_max - (t_max - s) (``check_run``
    holds it positive) so the Dirichlet cut-off never influences the
    solution; a violation only warns, at the line that called ``run``, since
    the caller may knowingly accept a graded tail.  Data whose square
    overflows a float cannot be measured, and data past ``blowup_threshold``
    would set the detector off: both raise a ValueError before any step.
    """
    safe_radius = grid.r_max - (config.t_max - config.s)
    params = config.params
    u0v = _sample_profile(u0, grid.r)
    u1v = _sample_profile(u1, grid.r)
    sup_u0 = float(np.max(np.abs(u0v)))
    for name, peak in (("u0", sup_u0), ("u1", float(np.max(np.abs(u1v))))):
        if peak * peak == math.inf:
            raise ValueError(
                f"initial data out of range: max |{name}| = {peak:.4g} squares past the "
                "float range; scale the data down"
            )
    data_mass = np.abs(u0v) + np.abs(u1v)
    total = integrate(grid, data_mass)
    if total > 0.0:
        outside = np.where(grid.r > safe_radius, data_mass, 0.0)
        if integrate(grid, outside) > 1e-12 * total:
            warnings.warn(
                f"initial data carry mass beyond the safe radius {safe_radius:.3g}; "
                "the outer cut-off may contaminate the run",
                SupportViolationWarning,
                stacklevel=3,  # the line that called run
            )
    if sup_u0 > config.blowup_threshold:
        raise ValueError(
            f"initial data past the blow-up threshold: max |u0| = {sup_u0:.4g} > "
            f"blowup_threshold = {config.blowup_threshold:.4g}; scale the data down or raise "
            "blowup_threshold"
        )

    b, m_sq = coefficients(params, config.s)
    accel = grid.laplacian(u0v) - b * u1v - m_sq * u0v
    if config.nonlinear:
        accel = accel + _power_source(np.abs(u0v), params.p)
    u_first = u0v + dt * u1v + 0.5 * dt * dt * accel
    u_first[-1] = 0.0
    nonzero = np.flatnonzero((u0v != 0.0) | (u_first != 0.0))
    active = int(nonzero[-1]) + 1 if nonzero.size else 0
    return u0v, u1v, u_first, active, (sup_u0, float(np.max(np.abs(u_first))))


def leapfrog_kernel(grid: RadialGrid, config: RunConfig, dt: float):
    """The leapfrog step of one run, with everything constant for the run formed once.

    Returns ``advance(t, u_prev, u_curr, out, active) -> (width, sup)``.  It
    advances the first ``width = min(max(active + 1, 2), num_nodes)`` nodes
    of the levels at t - dt and t, writes u+ into ``out[:width]`` and returns
    ``width`` and sup |u+| over it (NaN or inf once the run diverges).  The
    three level arrays have the grid's length and must not overlap; ``out``
    must be 0 from node ``width`` on, which a level written at a width no
    larger than this one is.  A level the step wrote must not change before
    the step reads it back as ``u_curr``: the step then reuses what it
    learnt of that level (see the module notes).  A caller that lets a run
    diverge calls it under ``np.errstate``, so that overflow is neither
    raised nor warned.
    """
    params, nonlinear = config.params, config.nonlinear
    size, p, laplacian_into = grid.num_nodes, params.p, grid.laplacian_into
    # scalar operands as 0-d float64 arrays (module notes, "Per-call cost"): dt^2 and
    # c_p for the run, and m^2, h and 1 + h, which each step writes
    dt_sq, c_p = np.array(dt**2), np.array(_source_cutoff(p))
    m_sq_now, h_now, one_plus_h = np.empty(()), np.empty(()), np.empty(())
    # f - m^2 u is f on a finite level (module notes, "Shared passes")
    mass_free = (params.mu2sq == 0.0 and math.copysign(1.0, params.mu2sq) > 0.0
                 and grid.row_divisor < 2.0)
    forcing, scratch = np.empty((2, size))
    # after a step, |u+| on its window; +0.0 from node ``reach`` on, where no
    # window has reached yet.  A linear run has no source term, and its sup pass
    # uses the scratch row.
    source = np.zeros(size) if nonlinear else scratch
    below = np.empty(size, dtype=bool)
    last, last_width, last_finite, reach = None, 0, False, 0
    # closure locals, so that a call skips looking up np and its attribute
    add, subtract, multiply, divide, absolute = np.add, np.subtract, np.multiply, np.divide, np.abs
    largest, isfinite = np.maximum.reduce, math.isfinite

    def advance(t: float, u_prev: np.ndarray, u_curr: np.ndarray, out: np.ndarray,
                active: int) -> tuple[int, float]:
        nonlocal last, last_width, last_finite, reach
        b, m_sq = coefficients(params, t)
        h = 0.5 * b * dt
        h_now[()] = h
        one_plus_h[()] = 1.0 + h
        # min(max(active + 1, 2), size), without the two builtin calls
        width = active + 1 if active else 2
        if width > size:
            width = size
        u, u_m, f, tmp, u_p, src = (u_curr[:width], u_prev[:width], forcing[:width],
                                    scratch[:width], out[:width], source[:width])
        # u is the level this kernel wrote last (see the module notes)
        written = u_curr is last
        # 2u (u + u is 2.0 * u bit for bit), which the Laplacian's centre term reads,
        # then u+ is formed on it
        add(u, u, u_p)
        # forcing = (Lap u - m^2 u) + [nl] |u|^p
        laplacian_into(u, u_p, f, scratch)
        if not (mass_free and written and last_finite):
            m_sq_now[()] = m_sq
            subtract(f, multiply(m_sq_now, u, tmp), f)
        if nonlinear:
            # ``source`` holds |u| unless a window wider than u's has written it
            if not (written and reach == last_width):
                absolute(u, src)
            add(f, _power_source(src, p, c_p, below[:width]), f)
        # u+ = (((2u - u-) + h u-) + dt^2 forcing) / (1 + h)
        subtract(u_p, u_m, u_p)
        add(u_p, multiply(h_now, u_m, tmp), u_p)
        add(u_p, multiply(dt_sq, f, tmp), u_p)
        divide(u_p, one_plus_h, u_p)
        out[-1] = 0.0
        sup = float(largest(absolute(u_p, src)))
        last, last_width, last_finite = out, width, isfinite(sup)
        if width > reach:
            reach = width
        return width, sup

    return advance


class _Recorder:
    """The sample rows of one run, each one pass over the active window (see the module notes).

    A weighted norm that overflows is recorded as +inf, at every sample.
    ``u_t`` is the row of u_t^2, where ``run`` forms u_t for the sample to
    square in place.
    """

    def __init__(self, grid: RadialGrid, params: ModelParams, frame_ok: bool) -> None:
        size = grid.num_nodes
        self.params, self.weights, self.two_dr = params, grid.quad_weights, 2.0 * grid.dr
        self.frame_exponent = comparison_frame_exponent(params) if frame_ok else None
        self.mu1_r_sq = params.mu1 * grid.r**2
        # rows u^2, u_r^2, u_t^2 and the comparison frame; 0 from node ``filled`` on
        self.padded = np.zeros((4, size))
        # the rows whole, for the plain norms' full-length dots
        self.rows = tuple(self.padded)
        self.u_t = self.rows[2]
        self.filled = 0
        # 2W, u_r^2 + u_t^2, and the quadratures' terms and energy density
        self.expo, self.grad_sq, terms, energy = np.empty((4, size))
        self.scratch = (np.empty(size, dtype=bool), terms, energy)

    def __call__(self, t: float, u: np.ndarray, u_t: np.ndarray, w: int,
                 sup: float) -> tuple[float, ...]:
        """One sample row: t, then the values of SAMPLE_KEYS; u and u_t are 0 from node w on.

        ``sup`` is max |u|, which every caller already has (module notes, "One sup pass").
        """
        padded, weights = self.padded, self.weights
        if w < self.filled:
            padded[:, w:self.filled] = 0.0
        self.filled = w
        u, u_t = u[:w], u_t[:w]
        u_sq, ur_sq, ut_sq, frame = padded[:, :w]
        np.multiply(u, u, u_sq)
        radial_derivative_into(self.two_dr, u, ur_sq)
        np.multiply(ur_sq, ur_sq, ur_sq)
        np.multiply(u_t, u_t, ut_sq)
        expo = weight_exponent_from_product(t, self.mu1_r_sq[:w], out=self.expo[:w])
        # 2W as W + W, which is 2.0 * W bit for bit
        np.add(expo, expo, expo)
        grad_sq = np.add(ur_sq, ut_sq, self.grad_sq[:w])
        _, m_sq = coefficients(self.params, t)
        wl2, wgrad_l2, wenergy = norms_of_squares(
            weights[:w], expo, u_sq, grad_sq, m_sq, sup * sup, self.scratch)
        if self.frame_exponent is not None:
            np.multiply((1.0 + t) ** self.frame_exponent, u, frame)
        u_sq_row, ur_sq_row, ut_sq_row, frame_row = self.rows
        return (
            t,
            sup,
            math.sqrt(max(float(weights @ u_sq_row), 0.0)),
            math.sqrt(max(float(weights @ ur_sq_row), 0.0)),
            math.sqrt(max(float(weights @ ut_sq_row), 0.0)),
            wl2,
            wgrad_l2,
            wenergy,
            math.nan if self.frame_exponent is None else float(weights @ frame_row),
        )


def _rate_into(out: np.ndarray, later: np.ndarray, earlier: np.ndarray, span: float,
               width: int) -> None:
    """u_t = (later - earlier) / span on the window, into ``out[:width]``."""
    rate = out[:width]
    np.subtract(later[:width], earlier[:width], rate)
    np.divide(rate, span, rate)


class _Ring:
    """The shared slots through which this process hands sample rows to its lanes.

    A slot holds u and u_t of one row on the row's window and a header
    (row, t, width, sup), in anonymous shared memory; the rows themselves
    live in a shared row store, ``samples``, made with the rows recorded so
    far copied in, which the run goes on filling.  The indices of the free
    slots wait in one ``lanes.IndexPipe``, and those of the slots filled in
    another, the ready pipe.  This process takes a free slot without
    waiting, fills it, marks the row's t NaN and puts the slot on the ready
    pipe; a lane takes it from there, records the row into ``samples`` and
    puts the slot back.  A row whose t is still NaN once the lanes have
    ended never came back.
    """

    def __init__(self, size: int, samples: np.ndarray, rows: int) -> None:
        # imported here: only a run that forks lanes needs shared memory
        import mmap

        nodes = _RING_SLOTS * 2 * size
        memory = mmap.mmap(-1, 8 * (nodes + 4 * _RING_SLOTS))
        # each mapping is unmapped once every view of it is dropped
        self.nodes = np.frombuffer(memory, count=nodes).reshape(_RING_SLOTS, 2, size)
        self.heads = np.frombuffer(memory, offset=8 * nodes).reshape(_RING_SLOTS, 4)
        self.samples = np.frombuffer(mmap.mmap(-1, samples.nbytes)).reshape(samples.shape)
        self.samples[:rows] = samples[:rows]
        self.ready = lanes.IndexPipe()
        self.free = lanes.IndexPipe()
        self.free.put(range(_RING_SLOTS))
        self.ended = False

    def fork(self, forked: lanes.Lanes, count: int, record: _Recorder) -> None:
        """Fork up to ``count`` lanes that record the rows given to them into ``samples``."""
        def sampler() -> None:
            self.ready.close(read=False)
            self.free.close(write=False)
            while (slot := self.ready.take()) is not None:
                row, t, width, sup = self.heads[slot].tolist()
                u, u_t = self.nodes[slot]
                self.samples[int(row)] = record(t, u, u_t, int(width), sup)
                self.free.put((slot,))

        forked.fork(count, sampler)
        # this process only fills slots and takes them back
        self.ready.close(write=False)
        self.free.close(read=False)
        os.set_blocking(self.free.read_end, False)

    def hand(self, row: int, t: float, u: np.ndarray, later: np.ndarray, earlier: np.ndarray,
             span: float, width: int, sup: float) -> bool:
        """Hand a sample row to a lane; False if no slot is free or the lanes have ended.

        The end of the free pipe, or a ready pipe no lane reads, means that
        every lane has ended; the rows are then recorded here, and
        ``Lanes.collect`` raises why the lanes ended.
        """
        if self.ended:
            return False
        try:
            slot = self.free.take()
        except BlockingIOError:
            return False
        if slot is None:
            self.ended = True
            return False
        slot_u, slot_ut = self.nodes[slot]
        slot_u[:width] = u[:width]
        _rate_into(slot_ut, later, earlier, span, width)
        self.heads[slot] = row, t, width, sup
        self.samples[row, 0] = math.nan
        try:
            self.ready.put((slot,))
        except BrokenPipeError:
            self.ended = True
            return False
        return True

    def gather(self, forked: lanes.Lanes) -> None:
        """End the ready pipe and wait for the lanes to record every row given to them.

        Raises what ``Lanes.collect`` raises, or RuntimeError for a row
        given out that never came back.
        """
        self.ready.close()
        forked.collect()
        lost = np.flatnonzero(np.isnan(self.samples[:, 0]))
        if lost.size:
            raise RuntimeError(f"{lost.size} rows given to the lanes never came back, "
                               f"the first is row {lost[0]}")

    def close(self) -> None:
        self.ready.close()
        self.free.close()


def _lanes_pay(run_s: float, sampled_s: float, stepped_s: float) -> bool:
    """Whether a run forks lanes: its in-loop samples have cost more wall time than
    the rest of its loop, and it has lasted longer than ``lanes.LANE_START_S``."""
    return sampled_s > stepped_s and run_s > lanes.LANE_START_S


def _ended(sup: float, t: float, nonlinear: bool) -> tuple[str, float | None]:
    """The outcome and blow-up time of a run ended by a level at ``t`` whose sup
    ``sup`` is not finite (``diverged``) or past the blow-up threshold: ``blowup``
    at t, or ``diverged`` on a linear run, since a linear solution cannot blow up
    and the scheme is unstable."""
    if not math.isfinite(sup):
        return OUTCOME_DIVERGED, None
    return (OUTCOME_BLOWUP, t) if nonlinear else (OUTCOME_DIVERGED, None)


def run(grid: RadialGrid, u0, u1, config: RunConfig, progress=None, jobs: int = 1) -> RunReport:
    """Integrate from s to t_max, recording norm samples along the way.

    Samples are taken every ``record_every`` steps (plus the initial and
    final levels) with the time derivative from the centered two-level
    difference.  The comparison-frame integral F is recorded as NaN when
    the discriminant is negative and the frame does not exist.  Every
    sample, the first included, records a weighted norm that overflows as
    +inf: data outside the weighted space run, and their weighted columns
    say so.  ``check_run``, before anything is allocated, and then
    ``init_state`` raise ValueError for what cannot be run.  A level whose
    sup is not finite ends the run ``diverged``; one whose sup exceeds
    ``blowup_threshold`` ends it ``blowup`` at that level's time, or
    ``diverged`` on a linear run: a linear solution cannot blow up, so the
    scheme is unstable.  The first level, at s + dt, is judged so too,
    before any step, and a run it ends records the data's row alone.

    ``jobs`` counts the processes that may record samples, this one
    included; from 2 on, a run whose samples cost more than its steps
    forks lanes that record the rows this process hands them (see the
    module notes).  The samples are the same bit for bit for every ``jobs``.

    ``progress``, if given, is called with a sample's time once the steps
    have reached that sample (the first one once the data have passed the
    checks above), so once per row of the report, in order.
    """
    check_run(grid, config)
    clock = time.perf_counter
    started = clock()
    ring = None
    # overflow means out-of-range data (which init_state refuses) or a diverging
    # run, which ends as such; numpy warns of neither
    with np.errstate(over="ignore", invalid="ignore"), lanes.Lanes() as forked:
        params, every, size = config.params, config.record_every, grid.num_nodes
        steps, dt = time_step(grid.step_unit, config)
        u0v, u1v, u_first, width, (sup_u0, sup_curr) = init_state(grid, u0, u1, config, dt)
        threshold = config.blowup_threshold
        outcome, blowup_time = OUTCOME_COMPLETED, None
        if not math.isfinite(sup_curr) or sup_curr > threshold:
            # the first level is judged as the loop judges every later one
            outcome, blowup_time = _ended(sup_curr, config.s + dt, config.nonlinear)
            steps = 0  # no step is taken
        record = _Recorder(grid, params, discriminant(params) >= 0.0)
        samples = np.empty((steps // every + 2, 1 + len(SAMPLE_KEYS)))
        samples[0] = record(config.s, u0v, u1v, size, sup_u0)
        if progress is not None:
            progress(config.s)
        # the data arrays are dropped once copied, as ``run_bytes`` counts
        del u1v
        # Three rotating levels: u- at t - dt, u at t and u+.  The initial levels may
        # hold -0.0 beyond the data, where a stepped level holds +0.0; the first two
        # steps read them no further than the second step's window, so they are
        # copied that far and each buffer stays 0 beyond the widths it was written at.
        reach = max(width + 1, 2) + 1
        prev, curr, nxt = np.zeros((3, size))
        prev[:reach] = u0v[:reach]
        curr[:reach] = u_first[:reach]
        del u0v, u_first
        advance = leapfrog_kernel(grid, config, dt)
        u_t = record.u_t
        total_rows = 1 + steps // every + (steps % every != 0)
        watch = jobs > 1 and lanes.forks()
        t = config.s + dt
        rows = 1  # rows passed
        sampled = 0.0  # wall time of the in-loop samples recorded here
        stepping = clock()
        try:
            for index in range(1, steps + 1):
                width, sup = advance(t, prev, curr, nxt, width)
                diverged = not math.isfinite(sup)
                if index % every == 0 or index == steps:
                    # u_t on the step's window: centred, (u+ - u-)/(2 dt), or
                    # (u - u-)/dt once u+ is not finite
                    later, span = (curr, dt) if diverged else (nxt, 2.0 * dt)
                    if ring is None or not ring.hand(rows, t, curr, later, prev, span, width,
                                                     sup_curr):
                        start = clock()
                        _rate_into(u_t, later, prev, span, width)
                        samples[rows] = record(t, curr, u_t, width, sup_curr)
                        sampled += clock() - start
                    rows += 1
                    if progress is not None:
                        progress(t)
                    if watch:
                        now = clock()
                        if _lanes_pay(now - started, sampled, now - stepping - sampled):
                            watch = False
                            # a lane past the ring's slots could only wait for one
                            count = min(jobs, _RING_SLOTS + 1, total_rows - rows,
                                        lanes_that_fit(grid, config))
                            if count > 1:
                                # the run goes on in the ring's row store, and the
                                # private rows are dropped before the fork; the copy
                                # holds both at once, which fits as two runs do
                                ring = _Ring(size, samples, rows)
                                samples = ring.samples
                                ring.fork(forked, count - 1, record)
                if index == steps:
                    break
                t += dt
                if diverged or sup > threshold:
                    outcome, blowup_time = _ended(sup, t, config.nonlinear)
                    break
                prev, curr, nxt = curr, nxt, prev
                sup_curr = sup
            if ring is not None:
                ring.gather(forked)
        finally:
            if ring is not None:
                ring.close()

    return RunReport(config=config, samples=samples[:rows], outcome=outcome,
                     blowup_time=blowup_time)
