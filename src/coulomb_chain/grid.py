"""Periodic grid functions over the particle index and their differences.

A grid function is a plain 1-D float array of length N read periodically
(index arithmetic modulo N).  ``nabla_plus`` and ``nabla_minus`` are the
forward and backward differences on that lattice; they commute, obey the
product rule nabla_plus(g*f)(i) = f(i+1)*nabla_plus(g)(i) + g(i)*nabla_plus(f)(i),
and telescope to zero over a full period.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .force import ForceSpec, _jet
from .ring import RingConfig, initial_positions

__all__ = ["as_grid", "nabla_plus", "nabla_minus", "force_grid"]


def as_grid(values) -> np.ndarray:
    """Validate and return a grid function as a float array (N >= 2, finite)."""
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape[0] < 2:
        raise ValueError(f"grid function must be 1-D with length >= 2, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("grid function entries must be finite")
    return g


def nabla_plus(g) -> np.ndarray:
    """Forward difference: result(i) = g(i+1) - g(i), indices mod N."""
    g = as_grid(g)
    return np.roll(g, -1) - g


def nabla_minus(g) -> np.ndarray:
    """Backward difference: result(i) = g(i) - g(i-1), indices mod N."""
    g = as_grid(g)
    return g - np.roll(g, 1)


def force_grid(spec: ForceSpec, config: RingConfig, k_max: int) -> np.ndarray:
    """The force jet on the rest lattice: row k is F^(k)(i*L/N), for k = 0..k_max.

    One cos and one sin per harmonic and particle serve every row.
    """
    if k_max < 0:
        raise ConfigError(f"derivative order must be >= 0, got {k_max}")
    return _jet(spec, initial_positions(config), k_max)
