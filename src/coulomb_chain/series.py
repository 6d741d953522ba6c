"""Taylor coefficients of the particle velocities via truncated power series.

Starting from rest on the uniform lattice, each velocity expands as
v_i(t) = sum_{j>=1} c_{ij} t**j.  Writing u_i(t) for the displacement
integral of v_i and R_i = u_{i+1} - u_i for the perturbation of the gap to
the right neighbor, the equations of motion in integral form read

    v_i(t) = integral_0^t [ w_{i-1} - w_i + F(x_i(0) + u_i) ] dt,
    w_i = (delta + R_i)**(-2),           delta = L/N.

Because u and R carry no terms below order 2, the order-(j-1) coefficient of
the integrand involves velocity coefficients of order <= j-2 only, so the
table fills in strictly increasing order j = 1, 2, ..., j_max:

  * the gap series delta + R_i is inverted once (standard truncated
    reciprocal recurrence) and squared to get w_i;
  * the force term is composed as sum_k F^(k)(x_i(0))/k! * u_i**k with the
    exact derivative coefficients, where only k <= (j_max-1)//2 can reach
    order j_max - 1 since u starts at order 2;
  * c_{ij} = [w_{i-1} - w_i + F(x_i(0)+u_i)]_{j-1} / j.

Everything is stored pre-multiplied by scale**j (the coefficient of tau**j
in v_i(scale*tau)), which keeps magnitudes bounded for large N.  The
particles of one slab (below) advance together one order at a time as
vectorized array rows.

Only structurally nonzero terms are computed.  From rest every even order
vanishes (the velocities are odd in t), so u, R, 1/(delta+R), w and every
u**k carry only even powers of t, u starts at t**2 and u**k at t**(2k).
The loop therefore runs c_{i1} = scale * F(x_i(0)) and then odd j only
(even integrand order m = j - 1), and each convolution takes the even rows
of its band: the reciprocal sums gap[2, 4, .., m] * recip[m-2, .., 0], the
square recip[0, 2, .., m] * recip[m, .., 0], and u**k at order m sums
u[i] * (u**(k-1))[m-i] for i = 2, 4, .., m-2k+2 and k <= m/2.  Even
columns stay the exact +0.0 they are allocated with.  The result is
bit-identical to the dense loop over all orders and all rows (kept in the
tests as the reference): every sum keeps its ascending row order and only
drops addends that are exactly zero, which can at most flip the sign of a
zero; no series value is ever a divisor, and the final
(scale/j) * (interaction + composed) never yields -0.0.

Those series rows are stored only for even m (row r holds order m = 2r),
so gap, recip and each power pow_u[k] hold (j_max+1)//2 rows; u is
pow_u[1], and w is formed per order, since only its newest row is read.
The table c is filled order-major, one row per order, and
``CoefficientTable`` receives its transpose as a view, not a copy.

The loop walks the ring in slabs of 16384 particles, so the rows it
sweeps once per order stay in cache.  Order j at particle i reads order
j-2 only at i-1..i+1 (the forward difference of u, the backward difference
of w), so the top order reaches H = (j_max-1)//2 particles to each side of
order 1.  Each slab is extended by a halo of H particles on both sides,
indices taken mod N, and the loop runs unchanged on the extended slab with
its cyclic shifts inside the slab: the false wrap at the slab's ends moves
in by one particle per odd order and never reaches the central columns,
which alone are kept.  A slab's force jet is ``force.force_jet`` at
idx * delta, the bits of ``ring.initial_positions``, so every table is
bit-identical to one loop over the whole ring.  A ring of at most one
slab is that slab, with H = 0: its shifts are the ring's own wrap, and the
engine's array is the table.  The shifts subtract slices, and the force
composition at order m sums k <= m/2 only, since u**k is zero below
order 2k.

The reciprocal and square cost O(N * j_max**2); the table of powers u**k
for the force composition dominates at O(N * j_max**3), about
N * j_max**3 / 48 multiply-adds, and the halo adds 2H particles per slab.
The force jet F^(k)(x_i(0)) for k = 0..(j_max-1)//2 costs one cos and one
sin per harmonic and particle, plus O(N * j_max * K) multiplies for K
force harmonics.  Peak memory is the table and one slab's series rows (the
magnitude profile takes column maxima and minima, not a copy of |c|): at
N = 2**17 about 1.7 times the table's bytes for j_max = 9 and 2.1 times
for j_max = 24.

The writers ``table_csv`` and ``table_json`` return the artifact text and
cost one float format per value each (``%.17g`` and ``float.__repr__``);
at j_max = 9 that is far more than the engine's own time.  A table takes
its magnitude profile max_i |c_{ij}|, which every report reads, in one
reduction; ``evaluate_velocity`` sums the velocity series.

A literal composition-sum evaluation of the same recursion
(``oracle_coefficients``) is kept as an independent cross-check for small
orders; it enumerates every ordered tuple (j_1..j_m) with
(j_1+1)+...+(j_m+1) = j-1 and is exponential in j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .force import ForceSpec, force_jet
from .ring import RingConfig, force_grid, nabla_minus, nabla_plus

__all__ = [
    "CoefficientTable",
    "compute_coefficients",
    "oracle_coefficients",
    "ordered_compositions",
    "explicit_c3",
    "evaluate_velocity",
    "table_csv",
    "table_json",
]

#: Magnitude floor with two uses: radius fits treat tail coefficients below
#: it as exact zeros, and relative errors (``verify``'s oracle cross-check,
#: ``compare``'s velocity error) never divide by less than it.
TINY = 1e-300

#: Particles per slab of ``compute_coefficients``, chosen by measurement:
#: at j_max = 9, 16384 beat 8192 and 32768.
_SLAB = 16384


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Rescaled velocity coefficients for all particles up to order j_max.

    ``data[i, j]`` holds c_{ij} * scale**j for j = 0..j_max (column 0 is
    identically zero: the particles start at rest); ``N`` and ``j_max`` are
    read from its shape.  ``data`` may have any memory layout: the engines
    pass the transpose of their order-major array, whose columns
    ``data[:, j]`` are contiguous.  ``max_abs[j]`` = max_i |data[i, j]| is
    taken once, at construction, and does not follow later writes to ``data``.
    """

    L: float
    scale: float
    data: np.ndarray
    max_abs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 2:
            raise ConfigError(
                f"coefficient data must have shape (N >= 1, j_max+1 >= 2), got {self.data.shape}"
            )
        # max |c| without a copy of |c|; + 0.0 turns -0.0 into +0.0.  max and
        # min carry NaN and inf through, so this is also the finiteness check.
        max_abs = np.maximum(self.data.max(axis=0), -self.data.min(axis=0)) + 0.0
        finite = np.isfinite(max_abs)
        if not finite.all():
            raise OverflowError(
                f"coefficient overflow at order {int(np.argmin(finite))}: rescale "
                f"{self.scale} too large for N={self.N}, j_max={self.j_max}"
            )
        object.__setattr__(self, "max_abs", max_abs)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def j_max(self) -> int:
        return self.data.shape[1] - 1

    def log_max_abs(self, j: int) -> float:
        """log(max_i |c_{ij}|) evaluated without leaving the log domain.

        Returns -inf when the order-j column vanishes identically.
        """
        m = float(self.max_abs[j])
        if m == 0.0:
            return -math.inf
        return math.log(m) - j * math.log(self.scale)


def compute_coefficients(config: RingConfig) -> CoefficientTable:
    """Fill the coefficient table order by order via series arithmetic.

    Raises OverflowError if any rescaled coefficient leaves double range
    (the rescale is too large for this N and truncation depth).
    """
    N, J = config.N, config.j_max
    # Order j at particle i reads order j-2 only at i-1..i+1, so the top order
    # reaches (J-1)//2 particles to each side of order 1.  A ring that fits in
    # one slab is that slab, with the ring's own wrap and no halo.
    halo = 0 if N <= _SLAB else (J - 1) // 2
    c = np.zeros((J + 1, N))  # rescaled velocity coefficients, order-major
    # Overflow runs on as inf/nan; CoefficientTable rejects the finished table.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, N, _SLAB):
            stop = min(start + _SLAB, N)
            if halo:
                slab = np.zeros((J + 1, stop - start + 2 * halo))
                _fill_slab(config, np.arange(start - halo, stop + halo) % N, slab)
                c[1::2, start:stop] = slab[1::2, halo:-halo]
            else:
                _fill_slab(config, np.arange(start, stop), c[:, start:stop])
    return CoefficientTable(L=config.L, scale=config.scale, data=c.T)


def _fill_slab(config: RingConfig, idx: np.ndarray, c: np.ndarray) -> None:
    """Fill the odd rows of ``c`` for the particles ``idx``, read as a ring.

    ``c`` is zero and has shape (j_max+1, len(idx)).  Column l's neighbours
    are columns l-1 and l+1 (cyclically within the slab), so a column at
    distance h from the slab's ends is exact up to order 2h+1.
    """
    J, s, delta = config.j_max, config.scale, config.delta

    # Exact force Taylor data at the rest positions: fk[k] = F^(k)(x_i(0))/k!.
    # Only k <= (J-1)//2 can contribute below order J because u starts at t^2.
    # idx * delta has the bits of ``initial_positions``.
    k_cap = (J - 1) // 2
    fk = force_jet(config.force, idx * delta, k_cap)
    for k in range(2, k_cap + 1):
        fk[k] /= math.factorial(k)

    # Only odd orders j (even integrand orders m) are nonzero, and only even
    # rows of the series are ever read, so gap, recip and pow_u keep row r
    # for series order m = 2r.  pow_u[k] = u**k, and row 1 is the
    # displacement series u itself (allocated at J <= 2 too, k_cap = 0).
    rows, width = (J + 1) // 2, idx.size
    recip = np.zeros((rows, width))  # 1 / (delta + R)
    gap = np.zeros((rows, width))  # R = forward difference of u over the ring
    recip[0] = 1.0 / delta
    pow_u = np.zeros((max(k_cap, 1) + 1, rows, width))
    u = pow_u[1]
    # Order 1 is the force sample; w starts constant, so no interaction term.
    np.multiply(fk[0], s, out=c[1])

    for j in range(3, J + 1, 2):
        m = j - 1  # integrand order being extracted
        r = m // 2
        # Newest velocity order read here is j-2; orders j-1 and j are
        # never touched, which is what makes the recursion well founded.
        np.multiply(c[m - 1], s, out=u[r])
        u[r] /= m
        np.subtract(u[r, 1:], u[r, :-1], out=gap[r, :-1])
        gap[r, -1] = u[r, 0] - u[r, -1]
        np.add.reduce(gap[1 : r + 1] * recip[r - 1 :: -1], axis=0, out=recip[r])
        recip[r] /= -delta
        w = (recip[: r + 1] * recip[r::-1]).sum(axis=0)  # order m of (delta + R)**(-2)
        for k in range(2, r + 1):
            # u starts at order 2 and u**(k-1) at order 2k-2.
            band = u[1 : r - k + 2] * pow_u[k - 1, r - 1 : k - 2 : -1]
            np.add.reduce(band, axis=0, out=pow_u[k, r])

        # c_j = (s/j) (w_{i-1} - w_i + sum_k fk[k] u**k); u**k is zero at
        # order m for k > r.
        out = c[j]
        np.subtract(w[:-1], w[1:], out=out[1:])
        out[0] = w[-1] - w[0]
        out += np.einsum("kn,kn->n", fk[1 : r + 1], pow_u[1 : r + 1, r])
        out *= s / j


def ordered_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts < 1 or total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in ordered_compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_coefficients(config: RingConfig) -> CoefficientTable:
    """Slow literal evaluation of the coefficient recursion up to order config.j_max.

    For j >= 3,

        c_{ij} = - sum_m sum_{(j_1..j_m)} A  +  sum_k sum_{(j_1..j_k)} B,
        A = (1/j) d_m delta**(-2-m) nabla_minus( prod_p nabla_plus(c_{., j_p}) / (j_p+1) ),
        B = (1/j) F^(k)(x_i(0))/k! prod_p c_{i, j_p} / (j_p+1),
        d_m = (-1)**m (m+1),

    with the inner sums over ordered tuples satisfying
    (j_1+1)+...+(j_m+1) = j-1, which caps m and k at (j-1)//2.  Tuple
    enumeration grows exponentially, hence the hard limit j_max <= 9.

    The recursion runs on the rescaled coefficients c_{ij} * scale**j, so a
    force whose raw coefficients leave double range is checked as far as
    the engine's table reaches.  Each term then carries scale**(m+1) (A) or
    scale**(k+1) (B), applied the way the engine's displacement
    u = scale * c / (j_p+1) carries it: one factor of scale per tuple entry
    and one for the term, so no power of scale is formed on its own.
    Raises OverflowError at the first order that leaves double range.
    """
    J, N, delta, s = config.j_max, config.N, config.delta, config.scale
    if J > 9:
        raise ConfigError(f"oracle enumeration is limited to j_max <= 9, got {J}")

    def finite(values: np.ndarray, j: int) -> np.ndarray:
        if not np.isfinite(values).all():
            raise OverflowError(
                f"oracle_coefficients: coefficient overflow at order {j} for N={N}, j_max={J}"
            )
        return values

    fk = force_grid(config, (J - 1) // 2)
    c = np.zeros((J + 1, N))
    c[1] = s * fk[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, J + 1):
            acc = np.zeros(N)
            for m in range(1, (j - 1) // 2 + 1):
                d_m = (-1) ** m * (m + 1)
                pref = d_m * delta ** (-2.0 - m) * s / j
                for tup in ordered_compositions(j - 1 - m, m):
                    prod = np.ones(N)
                    for jp in tup:
                        prod *= s * nabla_plus(c[jp]) / (jp + 1)
                    acc -= pref * nabla_minus(finite(prod, j))
            for k in range(1, (j - 1) // 2 + 1):
                f = fk[k] / math.factorial(k)
                for tup in ordered_compositions(j - 1 - k, k):
                    prod = np.ones(N)
                    for jp in tup:
                        prod *= s * c[jp] / (jp + 1)
                    acc += (s / j) * (f * prod)
            c[j] = finite(acc, j)
    return CoefficientTable(L=config.L, scale=s, data=c.T)


def explicit_c3(config: RingConfig) -> np.ndarray:
    """Closed form of the order-3 coefficient (unscaled).

    c_{i3} = (1/3) delta**(-3) (nabla_minus nabla_plus F)(i) + (1/6) F_i F'_i,
    the j=3 instance of the recursion, which only the m=1 and k=1 terms
    reach.  Agrees with direct third-order differentiation of the equations
    of motion at t=0.
    """
    delta = config.delta
    f0, f1 = force_grid(config, 1)
    return nabla_minus(nabla_plus(f0)) / (3.0 * delta**3) + f0 * f1 / 6.0


def evaluate_velocity(table: CoefficientTable, t: float) -> np.ndarray:
    """All particle velocities at time t by Horner evaluation in tau = t/scale."""
    tau = t / table.scale
    acc = np.zeros(table.N)
    for j in range(table.j_max, 0, -1):
        acc = acc * tau + table.data[:, j]
    return acc * tau


def table_csv(table: CoefficientTable) -> str:
    """CSV rendering, one row per (i, j), i-major, 17 significant digits.

    One printf template spans the j_max lines of a particle and is applied
    to (i, c_i1, i, c_i2, ...), so the cost is one float format per value.
    """
    J = table.j_max
    tail = f",{table.scale:.17g},{table.N},{table.L:.17g},{J}\n"
    row = "".join(f"%d,{j},%.17g{tail}" for j in range(1, J + 1))
    index = range(table.N)
    args = zip(*[arg for column in table.data[:, 1:].T.tolist() for arg in (index, column)])
    return "i,j,c_scaled,scale,N,L,J_max\n" + "".join(map(row.__mod__, args))


def table_json(table: CoefficientTable, force: ForceSpec) -> str:
    """JSON artifact text: config header (with the force), rescale, and row-major coefficients.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n"`` for the payload with keys ``config``, ``scale``
    and ``coefficients``.  Only the small header goes through ``json``; the
    coefficients take one ``float.__repr__`` each, the encoder's float form.
    Raises ValueError on a non-finite value, as ``allow_nan=False`` does.
    """
    values = table.data[:, 1:].ravel()
    if not np.isfinite(values).all():
        raise ValueError(f"coefficient table N={table.N}: non-finite values are not valid JSON")
    header = json.dumps(
        {"config": {"N": table.N, "L": table.L, "J_max": table.j_max, "force": force.to_json()},
         "scale": table.scale},
        indent=2, sort_keys=True, allow_nan=False,
    )
    items = ",\n    ".join(map(float.__repr__, values.tolist()))
    # "coefficients" sorts before "config" and "scale", so it opens the object.
    return f'{{\n  "coefficients": [\n    {items}\n  ],\n{header[2:]}\n'
