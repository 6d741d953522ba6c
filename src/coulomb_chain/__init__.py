"""Small-time velocity expansion and diagnostics for a repulsive ring chain.

N particles on a circle of circumference L repel their nearest neighbors
with an inverse-square force and feel an analytic external force.  From the
uniform rest start the velocities are analytic in time; this package
computes their Taylor coefficients by truncated power-series arithmetic,
validates them against direct high-order integration, and measures how the
coefficients and the convergence radius scale with N.
"""

from .analysis import (
    BoundReport,
    ExponentFit,
    LemmaReport,
    RadiusEstimate,
    RadiusTrend,
    bound_check,
    estimate_radius,
    exponent_fit,
    majorant,
    majorant_lemma_check,
    radius_trend,
)
from .errors import CollisionError, ConfigError, StiffnessError
from .force import ForceSpec, Harmonic, c_f_bound, eval_force, eval_potential, force_jet
from .ode import ODESolution, TrajectoryState, acceleration, energy, initial_state, integrate
from .ring import RingConfig, auto_scale, force_grid, initial_positions, nabla_minus, nabla_plus
from .series import (
    CoefficientTable,
    compute_coefficients,
    evaluate_velocity,
    explicit_c3,
    oracle_coefficients,
    ordered_compositions,
    table_csv,
    table_json,
)

__all__ = [
    "BoundReport",
    "ExponentFit",
    "LemmaReport",
    "RadiusEstimate",
    "RadiusTrend",
    "bound_check",
    "estimate_radius",
    "exponent_fit",
    "majorant",
    "majorant_lemma_check",
    "radius_trend",
    "CollisionError",
    "ConfigError",
    "StiffnessError",
    "ForceSpec",
    "Harmonic",
    "c_f_bound",
    "eval_force",
    "eval_potential",
    "force_jet",
    "ODESolution",
    "TrajectoryState",
    "acceleration",
    "energy",
    "initial_state",
    "integrate",
    "RingConfig",
    "auto_scale",
    "force_grid",
    "initial_positions",
    "nabla_minus",
    "nabla_plus",
    "CoefficientTable",
    "compute_coefficients",
    "evaluate_velocity",
    "explicit_c3",
    "oracle_coefficients",
    "ordered_compositions",
    "table_csv",
    "table_json",
]

__version__ = "0.1.0"
