"""Small-time velocity expansion and diagnostics for a repulsive ring chain.

N particles on a circle of circumference L repel their nearest neighbors
with an inverse-square force and feel an analytic external force.  From the
uniform rest start the velocities are analytic in time; this package
computes their Taylor coefficients by truncated power-series arithmetic,
validates them against direct high-order integration, and measures how the
coefficients and the convergence radius scale with N.

Each library module's ``__all__`` is the one list of its public names; the
package re-exports those of ``analysis``, ``force``, ``ode``, ``ring`` and
``series``, plus the three error classes of ``errors``.  ``cli`` is the
command-line front end and is not re-exported.
"""

from . import analysis, force, ode, ring, series
from .analysis import *  # noqa: F403
from .errors import CollisionError, ConfigError, StiffnessError
from .force import *  # noqa: F403
from .ode import *  # noqa: F403
from .ring import *  # noqa: F403
from .series import *  # noqa: F403

__all__ = [*analysis.__all__, *force.__all__, *ode.__all__, *ring.__all__, *series.__all__,
           "CollisionError", "ConfigError", "StiffnessError"]

__version__ = "0.1.0"
