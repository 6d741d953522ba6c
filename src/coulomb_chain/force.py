"""Analytic periodic external force on a circle of circumference L.

The force is a finite trigonometric polynomial

    F(x) = a0 + sum_k [ a_k cos(2 pi k x / L) + b_k sin(2 pi k x / L) ]

which is entire and exactly L-periodic, so every derivative is available in
closed form (each harmonic picks up a factor (2 pi k / L)**n and a quarter
turn of phase per derivative order) and a single growth constant C with
|F^(n)(x)| <= C**(n+1) for all n >= 0 follows from the amplitude sum and the
top angular frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "Harmonic",
    "ForceSpec",
    "eval_force",
    "eval_derivative",
    "c_f_bound",
    "eval_potential",
]


@dataclass(frozen=True)
class Harmonic:
    """One Fourier mode: a*cos(2 pi k x / L) + b*sin(2 pi k x / L)."""

    k: int
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigError(f"harmonic index k must be a positive integer, got {self.k!r}")


@dataclass(frozen=True)
class ForceSpec:
    """Finite trigonometric force on the circle of circumference ``L``.

    Parameters
    ----------
    L : float
        Circumference of the circle; must be positive.
    a0 : float
        Mean (constant) part of the force.
    harmonics : sequence of Harmonic
        Fourier modes with distinct positive indices.
    """

    L: float
    a0: float = 0.0
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ConfigError(f"force period L must be positive and finite, got {self.L!r}")
        modes = tuple(
            h if isinstance(h, Harmonic) else Harmonic(*h) for h in self.harmonics
        )
        object.__setattr__(self, "harmonics", modes)
        ks = [h.k for h in modes]
        if len(set(ks)) != len(ks):
            raise ConfigError(f"harmonic indices must be distinct, got {ks}")

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "a0": self.a0,
            "harmonics": [{"k": h.k, "a": h.a, "b": h.b} for h in self.harmonics],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ForceSpec":
        harmonics = tuple(
            Harmonic(int(h["k"]), float(h.get("a", 0.0)), float(h.get("b", 0.0)))
            for h in obj.get("harmonics", [])
        )
        return cls(L=float(obj["L"]), a0=float(obj.get("a0", 0.0)), harmonics=harmonics)


def eval_force(spec: ForceSpec, x):
    """Evaluate F at ``x`` (scalar or array); x is reduced modulo L first."""
    return eval_derivative(spec, 0, x)


def eval_derivative(spec: ForceSpec, order: int, x):
    """Exact ``order``-th derivative of the force at ``x``.

    Differentiating a harmonic of angular frequency w multiplies it by
    w**order and advances its phase by order * pi/2; the constant part
    survives only at order 0.
    """
    if order < 0:
        raise ConfigError(f"derivative order must be >= 0, got {order}")
    xm = np.mod(np.asarray(x, dtype=float), spec.L)
    out = np.zeros_like(xm)
    phase = order * 0.5 * np.pi
    for h in spec.harmonics:
        w = 2.0 * np.pi * h.k / spec.L
        if order == 0:  # no phase shift and no w**0 factor: same values, less work
            theta = w * xm
            out += h.a * np.cos(theta) + h.b * np.sin(theta)
        else:
            theta = w * xm + phase
            out += w**order * (h.a * np.cos(theta) + h.b * np.sin(theta))
    if order == 0 and spec.a0 != 0.0:
        out += spec.a0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def c_f_bound(spec: ForceSpec) -> float:
    """Growth constant C with sup_x |F^(n)(x)| <= C**(n+1) for every n >= 0.

    With M the total amplitude |a0| + sum(|a_k| + |b_k|) and w the largest
    angular frequency 2 pi k_max / L, every derivative obeys
    |F^(n)| <= M * w**n, and C = max(1, M, w) turns that into the uniform
    geometric envelope C**(n+1).  The floor at 1 keeps the envelope valid
    at n = 0 for weak forces; it is crude but safe.
    """
    amp = abs(spec.a0) + sum(abs(h.a) + abs(h.b) for h in spec.harmonics)
    w_max = max((2.0 * math.pi * h.k / spec.L for h in spec.harmonics), default=0.0)
    return max(1.0, amp, w_max)


def eval_potential(spec: ForceSpec, x):
    """Periodic potential P with F = -P' (requires a zero-mean force).

    Termwise integration of the trigonometric series; a nonzero mean a0 has
    no periodic antiderivative, so it is rejected.
    """
    if spec.a0 != 0.0:
        raise ConfigError("potential exists only for zero-mean forces (a0 == 0)")
    xm = np.mod(np.asarray(x, dtype=float), spec.L)
    out = np.zeros_like(xm)
    for h in spec.harmonics:
        w = 2.0 * np.pi * h.k / spec.L
        out += (-h.a * np.sin(w * xm) + h.b * np.cos(w * xm)) / w
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
