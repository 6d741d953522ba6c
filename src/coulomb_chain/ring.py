"""Ring configuration: particle count, geometry, force and truncation order.

One ``RingConfig`` value defines one experiment: N particles at rest on the
uniform lattice x_i(0) = i*L/N of a circle of circumference L, driven by an
analytic force, expanded to order ``j_max`` with time rescale ``scale``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real
from .force import ForceSpec

__all__ = ["RingConfig", "auto_scale", "initial_positions"]


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
        check_int(self.N, "N", minimum=2)
        object.__setattr__(self, "L", check_real(self.L, "L", positive=True))
        check_int(self.j_max, "j_max", minimum=1)
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
