"""Ring configuration, its rest lattice, lattice differences and force jet.

One ``RingConfig`` value defines one experiment: N particles at rest on the
uniform lattice x_i(0) = i*L/N of a circle of circumference L, driven by an
analytic force, expanded to order ``j_max`` with time rescale ``scale``.

A grid function is a plain 1-D float array of length N read periodically
(index arithmetic modulo N).  ``nabla_plus`` and ``nabla_minus`` are the
forward and backward differences on that lattice, one subtraction of
shifted slices plus the wrap entry each; they commute, obey the
product rule nabla_plus(g*f)(i) = f(i+1)*nabla_plus(g)(i) + g(i)*nabla_plus(f)(i),
and telescope to zero over a full period.  ``force_grid`` is the force jet
F^(k)(x_i(0)) on the whole rest lattice; the composition-sum oracle and the
tests read it, while the coefficient engine takes its own jet from
``force.force_jet`` on the points it runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real
from .force import ForceSpec, force_jet

__all__ = [
    "RingConfig",
    "auto_scale",
    "initial_positions",
    "nabla_plus",
    "nabla_minus",
    "force_grid",
]


def auto_scale(N: int) -> float:
    """Default time rescale N**(-5/6).

    Coefficient magnitudes grow no faster than (chi * N**(5/6))**j, so this
    choice keeps the stored, rescaled coefficients of order chi**j and well
    inside double-precision range even for large N and deep truncation.
    """
    return float(N) ** (-5.0 / 6.0)


@dataclass(frozen=True)
class RingConfig:
    """Immutable description of one expansion experiment.

    Integers N >= 2 and j_max >= 1; L positive, finite and the force's period.
    ``scale=None`` selects the automatic rescale ``auto_scale(N)``.
    """

    N: int
    L: float
    force: ForceSpec
    j_max: int
    scale: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "N", check_int(self.N, "N", minimum=2))
        object.__setattr__(self, "L", check_real(self.L, "L", positive=True))
        object.__setattr__(self, "j_max", check_int(self.j_max, "j_max", minimum=1))
        if self.force.L != self.L:
            raise ConfigError(f"{self.force.L} differs from the ring's L = {self.L}", "force.L")
        scale = auto_scale(self.N) if self.scale is None else self.scale
        object.__setattr__(self, "scale", check_real(scale, "scale", positive=True))

    @property
    def delta(self) -> float:
        """Initial uniform gap L/N."""
        return self.L / self.N


def initial_positions(config: RingConfig) -> np.ndarray:
    """Rest positions x_i(0) = i*L/N for i = 0..N-1."""
    return np.arange(config.N, dtype=float) * (config.L / config.N)


def _as_grid(values) -> np.ndarray:
    """Validate and return a grid function as a float array (N >= 2, finite)."""
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape[0] < 2:
        raise ValueError(f"grid function must be 1-D with length >= 2, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("grid function entries must be finite")
    return g


def nabla_plus(g) -> np.ndarray:
    """Forward difference: result(i) = g(i+1) - g(i), indices mod N."""
    g = _as_grid(g)
    out = np.empty_like(g)
    np.subtract(g[1:], g[:-1], out=out[:-1])
    out[-1] = g[0] - g[-1]
    return out


def nabla_minus(g) -> np.ndarray:
    """Backward difference: result(i) = g(i) - g(i-1), indices mod N."""
    g = _as_grid(g)
    out = np.empty_like(g)
    np.subtract(g[1:], g[:-1], out=out[1:])
    out[0] = g[0] - g[-1]
    return out


def force_grid(config: RingConfig, k_max: int) -> np.ndarray:
    """The ring's force jet on its rest lattice: row k is F^(k)(i*L/N), for k = 0..k_max.

    One cos and one sin per harmonic and particle serve every row.
    """
    return force_jet(config.force, initial_positions(config), k_max)
