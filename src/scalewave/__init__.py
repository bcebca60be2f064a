"""Numerical laboratory for the semilinear wave equation with scale-invariant damping and mass.

Simulates the Cauchy problem

    u_tt - Lap(u) + (mu1/(1+t)) u_t + (mu2sq/(1+t)^2) u = |u|^p

on radially symmetric meshes, evaluates its weighted energies and averaged
functionals, verifies the underlying identities and inequalities on
manufactured test functions, implements the blow-up comparison toolkit for
the associated ordinary differential inequality, and reproduces the
global-existence/blow-up dichotomy around the critical exponent at desk
scale.
"""

__version__ = "0.1.0"

from .checks import CheckReport
from .grid import RadialGrid, integrate, make_radial_grid
from .model import (
    DecayExponentTable,
    ModelParams,
    RegimeError,
    RegimeReport,
    borderline_log_factor,
    coefficients,
    critical_exponent,
    decay_exponents,
    discriminant,
    fujita_exponent,
    regime_check,
    shifted_dimension,
    weight_exponent,
)
from .functionals import to_comparison_frame, weighted_lq, weighted_quadrature
from .solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    OUTCOME_DIVERGED,
    RunConfig,
    RunReport,
    run,
)
from .verify import RadialProfile, bihari_check, standard_family
from .odi import OdiProblem, OdiSolution, comparison_check, comparison_function, life_span, select_nu
from .analysis import (
    DecayFit,
    GLOBAL_LOOKING,
    SweepRow,
    UNDECIDED,
    classify_run,
    fit_decay,
    sweep,
)
