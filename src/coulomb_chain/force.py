"""Analytic periodic external force on a circle of circumference L.

The force is a finite trigonometric polynomial

    F(x) = a0 + sum_k [ a_k cos(2 pi k x / L) + b_k sin(2 pi k x / L) ]

which is entire and exactly L-periodic, so every derivative is available in
closed form (each harmonic picks up a factor (2 pi k / L)**n and a quarter
turn of phase per derivative order) and a single growth constant C with
|F^(n)(x)| <= C**(n+1) for all n >= 0 follows from the amplitude sum and the
top angular frequency.

Two kernels evaluate it.  ``force_jet`` gives every derivative: it takes
one cos and one sin per harmonic and point and applies each quarter turn as
an exact rotation of the pair (a cos + b sin, b cos - a sin), then scales by
w**n.  The coefficient engine takes row 0 and each harmonic's (p, q) rows
from one pass on the points it runs on, and the composition-sum oracle
(``series.force_grid``) reads rows 0..k_max on the rest lattice at the
cost of one trig pass.
``eval_force`` gives values only, for the integrator's right-hand side,
with one sine per harmonic: it writes each harmonic as R sin(w x + phi),
with R = hypot(a, b) and phi = atan2(a, b) taken once per force.  The two
agree to a few eps times the amplitude sum (each lies within 5 of the
40-digit force on the tested two- and three-harmonic forces).  For a pure
sine (a = 0, b > 0), phi = 0 and R = b, so both give the bits of
b sin(w x).  ``eval_potential`` uses the same phase form,
R cos(w x + phi) / w.  All three reduce points modulo L, through
``_on_circle``, only when one lies outside [0, L).

``ForceSpec._phases`` holds (w, phi, R) per harmonic, w = 2 pi k / L, and
is the one home of w and R: the kernels, ``c_f_bound`` and the
coefficient engine read w there, and the phase-form kernels and the
engine read R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, check_int, check_keys, check_real

__all__ = [
    "Harmonic",
    "ForceSpec",
    "eval_force",
    "force_jet",
    "c_f_bound",
    "eval_potential",
]


@dataclass(frozen=True)
class Harmonic:
    """One Fourier mode a*cos(2 pi k x / L) + b*sin(2 pi k x / L): integer k >= 1, finite a, b."""

    k: int
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "k", minimum=1))
        object.__setattr__(self, "a", check_real(self.a, "a"))
        object.__setattr__(self, "b", check_real(self.b, "b"))


@dataclass(frozen=True)
class ForceSpec:
    """Finite trigonometric force on the circle of circumference ``L``.

    Parameters
    ----------
    L : float
        Circumference of the circle; must be positive and finite.
    a0 : float
        Mean (constant) part of the force; must be finite.
    harmonics : sequence of Harmonic
        Fourier modes with distinct positive indices.
    """

    L: float
    a0: float = 0.0
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "L", check_real(self.L, "L", positive=True))
        object.__setattr__(self, "a0", check_real(self.a0, "a0"))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        ks = [h.k for h in self.harmonics]
        if len(set(ks)) != len(ks):
            raise ConfigError(f"indices must be distinct, got {ks}", "harmonics")

    @cached_property
    def _phases(self) -> tuple[tuple[float, float, float], ...]:
        """(w, phi, R) per harmonic: a cos(w x) + b sin(w x) = R sin(w x + phi)."""
        return tuple((2.0 * np.pi * h.k / self.L, math.atan2(h.a, h.b), math.hypot(h.a, h.b))
                     for h in self.harmonics)

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "a0": self.a0,
            "harmonics": [{"k": h.k, "a": h.a, "b": h.b} for h in self.harmonics],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ForceSpec":
        """Parse ``{"L", "a0"?, "harmonics"?: [{"k", "a"?, "b"?}]}`` and no other key.

        Errors name the JSON path.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"expected an object, got {obj!r}")
        check_keys(obj, ("L", "a0", "harmonics"))
        raw = obj.get("harmonics", [])
        if not isinstance(raw, list):
            raise ConfigError("expected a list", "harmonics")
        harmonics = []
        for i, h in enumerate(raw):
            try:
                if not isinstance(h, dict):
                    raise ConfigError("expected an object")
                check_keys(h, ("k", "a", "b"))
                harmonics.append(Harmonic(h.get("k"), h.get("a", 0.0), h.get("b", 0.0)))
            except ConfigError as exc:
                raise exc.within(f"harmonics[{i}]") from None
        return cls(L=obj.get("L"), a0=obj.get("a0", 0.0), harmonics=tuple(harmonics))


def _on_circle(spec: ForceSpec, x) -> np.ndarray:
    """``x`` as floats, reduced modulo L only when some entry lies outside [0, L).

    A NaN fails both tests, so it goes through ``np.mod`` too.  ``np.mod``
    is exact and returns the entries inside unchanged except -0.0, which it
    maps to +0.0; each kernel's sum starts from +0.0, which absorbs that
    sign (for ``eval_potential`` cos(w (-0.0) + phi) is cos(phi)), so
    skipping the reduction changes no bit of any kernel's values.
    """
    x = np.asarray(x, dtype=float)
    return np.mod(x, spec.L) if x.size and not (x.min() >= 0.0 and x.max() < spec.L) else x


def eval_force(spec: ForceSpec, x, *, out: np.ndarray | None = None):
    """F at ``x``, an array of its shape (0-d for a scalar), one sine per harmonic.

    Each harmonic adds R sin(w x + phi) to a row that starts at +0.0, then
    a nonzero ``a0`` is added.  The values are written into ``out`` when it
    is given (shape of ``x``; its contents are not read) and returned.
    """
    x = _on_circle(spec, x)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape:
        raise ConfigError(f"force values must have shape {x.shape}, got {out.shape}")
    out[...] = 0.0
    theta = np.empty(x.shape)
    for w, phi, amp in spec._phases:
        np.multiply(w, x, out=theta)
        theta += phi
        np.sin(theta, out=theta)
        theta *= amp
        out += theta
    if spec.a0 != 0.0:
        out += spec.a0
    return out


def force_jet(spec: ForceSpec, x, k_max: int, *, turns: np.ndarray | None = None) -> np.ndarray:
    """Rows F^(k)(x) for k = 0..k_max, one cos and one sin per harmonic.

    Row k has the shape of ``x``; ``k_max`` must be >= 0.  With theta = w x,
    p = a cos(theta) + b sin(theta) is the harmonic and
    q = b cos(theta) - a sin(theta) its quarter turn, so the k-th derivative
    is w**k * (p, q, -p, -q)[k mod 4]: an exact rotation, where the phase
    sum theta + k pi/2 would round.  The last two turns are subtracted, not
    negated and added; IEEE negation is exact and rounding is symmetric in
    sign, so the bits are the same.  Row 0 is accumulated exactly as
    ``jet[0] += a cos(theta) + b sin(theta)`` per harmonic, then ``+ a0``;
    the constant part appears in no other row.

    Returns the rows, shape ``(k_max+1,) + x.shape``.  Each harmonic's pair
    (p, q) is written into ``turns`` when it is given (shape
    ``(K, 2) + x.shape`` for K harmonics, in their order), so a caller that
    composes F(x + u) = a0 + sum (p cos(w u) + q sin(w u)) pays no second
    trig pass.
    """
    if k_max < 0:
        raise ConfigError(f"derivative order must be >= 0, got {k_max}")
    x = _on_circle(spec, x)
    jet = np.zeros((k_max + 1,) + x.shape)
    shape = (len(spec.harmonics), 2) + x.shape
    if turns is None:
        turns = np.empty(shape)
    elif turns.shape != shape:
        raise ConfigError(f"harmonic turns must have shape {shape}, got {turns.shape}")
    for i, (h, (w, _, _)) in enumerate(zip(spec.harmonics, spec._phases)):
        p, q = turns[i, 0, ...], turns[i, 1, ...]  # views, also for scalar x
        theta = w * x
        cos, sin = np.cos(theta), np.sin(theta)
        np.multiply(h.a, cos, out=p)
        p += h.b * sin
        np.multiply(h.b, cos, out=q)
        q -= h.a * sin
        jet[0] += p
        for k in range(1, k_max + 1):
            turn = w**k * (q if k % 2 else p)
            if k % 4 < 2:
                jet[k] += turn
            else:
                jet[k] -= turn
    if spec.a0 != 0.0:
        jet[0] += spec.a0
    return jet


def c_f_bound(spec: ForceSpec) -> float:
    """Growth constant C with sup_x |F^(n)(x)| <= C**(n+1) for every n >= 0.

    With M the total amplitude |a0| + sum(|a_k| + |b_k|) and w the largest
    angular frequency 2 pi k_max / L, every derivative obeys
    |F^(n)| <= M * w**n, and C = max(1, M, w) turns that into the uniform
    geometric envelope C**(n+1).  The floor at 1 keeps the envelope valid
    at n = 0 for weak forces; it is crude but safe.
    """
    amp = abs(spec.a0) + sum(abs(h.a) + abs(h.b) for h in spec.harmonics)
    w_max = max((w for w, _, _ in spec._phases), default=0.0)
    return max(1.0, amp, w_max)


def eval_potential(spec: ForceSpec, x):
    """Periodic potential P with F = -P' at ``x``, an array of its shape (zero-mean force only).

    Termwise integration of the trigonometric series: each harmonic adds
    (R cos(w x + phi)) / w = (b cos(w x) - a sin(w x)) / w, one cosine per
    harmonic.  A nonzero mean a0 has no periodic antiderivative, so it is
    rejected.
    """
    if spec.a0 != 0.0:
        raise ConfigError("potential exists only for zero-mean forces (a0 == 0)")
    x = _on_circle(spec, x)
    out = np.zeros_like(x)
    for w, phi, amp in spec._phases:
        out += amp * np.cos(w * x + phi) / w
    return out
