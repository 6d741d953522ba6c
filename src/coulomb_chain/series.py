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
in v_i(scale*tau)), which keeps magnitudes bounded for large N.  All
particles advance together one order at a time as vectorized array rows.

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

The reciprocal and square cost O(N * j_max**2); the table of powers u**k
for the force composition dominates at O(N * j_max**3), about
N * j_max**3 / 48 multiply-adds.  Force derivatives on the grid add
O(N * j_max * K) for K force harmonics.

A literal composition-sum evaluation of the same recursion
(``oracle_coefficients``) is kept as an independent cross-check for small
orders; it enumerates every ordered tuple (j_1..j_m) with
(j_1+1)+...+(j_m+1) = j-1 and is exponential in j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .force import ForceSpec
from .grid import force_grid, nabla_minus, nabla_plus
from .ring import RingConfig, initial_positions

__all__ = [
    "CoefficientTable",
    "compute_coefficients",
    "oracle_coefficients",
    "ordered_compositions",
    "explicit_c3",
    "explicit_c4",
    "evaluate_velocity",
    "evaluate_position",
    "table_csv",
    "table_json",
]

#: Below this magnitude a tail coefficient is treated as exactly zero by
#: log-domain consumers (radius fits).
TINY = 1e-300


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Rescaled velocity coefficients for all particles up to order j_max.

    ``data[i, j]`` holds c_{ij} * scale**j for j = 0..j_max (column 0 is
    identically zero: the particles start at rest).
    """

    N: int
    L: float
    j_max: int
    scale: float
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.N, self.j_max + 1):
            raise ConfigError(
                f"coefficient data must have shape (N, j_max+1) = "
                f"({self.N}, {self.j_max + 1}), got {self.data.shape}"
            )
        finite = np.isfinite(self.data).all(axis=0)
        if not finite.all():
            raise OverflowError(
                f"coefficient overflow at order {int(np.argmin(finite))}: rescale "
                f"{self.scale} too large for N={self.N}, j_max={self.j_max}"
            )

    def unscaled(self, j: int) -> np.ndarray:
        """Raw coefficients c_{ij} for one order (may overflow for deep tails)."""
        return self.data[:, j] * self.scale ** (-float(j))

    def log_max_abs(self, j: int) -> float:
        """log(max_i |c_{ij}|) evaluated without leaving the log domain.

        Returns -inf when the order-j column vanishes identically.
        """
        m = float(np.max(np.abs(self.data[:, j])))
        if m == 0.0:
            return -math.inf
        return math.log(m) - j * math.log(self.scale)


def compute_coefficients(config: RingConfig) -> CoefficientTable:
    """Fill the coefficient table order by order via series arithmetic.

    Raises OverflowError if any rescaled coefficient leaves double range
    (the rescale is too large for this N and truncation depth).
    """
    N, J, s = config.N, config.j_max, config.scale
    delta = config.delta

    # Exact force Taylor data at the rest positions: fk[k] = F^(k)(x_i(0))/k!.
    # Only k <= (J-1)//2 can contribute below order J because u starts at t^2.
    k_cap = (J - 1) // 2
    fk = np.empty((k_cap + 1, N))
    for k in range(k_cap + 1):
        fk[k] = force_grid(config.force, config, k) / math.factorial(k)

    c = np.zeros((J + 1, N))  # rescaled velocity coefficients, order-major
    u = np.zeros((J, N))  # displacement series (orders 0..J-1)
    recip = np.zeros((J, N))  # 1 / (delta + R)
    w = np.zeros((J, N))  # (delta + R)**(-2)
    gap = np.zeros((J, N))  # R = forward difference of u over the ring
    recip[0] = 1.0 / delta
    w[0] = 1.0 / delta**2
    pow_u = np.zeros((k_cap + 1, J, N))  # pow_u[k] = u**k
    # Order 1 is the force sample; w[0] is constant, so no interaction term.
    c[1] = s * fk[0]

    # Only odd orders j (even integrand orders m) are nonzero, and only even
    # rows of u, gap, recip, w and pow_u are ever read; odd rows stay zero.
    # Overflow runs on as inf/nan; CoefficientTable rejects the finished table.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, J + 1, 2):
            m = j - 1  # integrand order being extracted
            # Newest velocity order read here is j-2; orders j-1 and j are
            # never touched, which is what makes the recursion well founded.
            u[m] = s * c[m - 1] / m
            gap[m] = np.roll(u[m], -1) - u[m]
            recip[m] = -(gap[2 : m + 1 : 2] * recip[m - 2 :: -2]).sum(axis=0) / delta
            w[m] = (recip[: m + 1 : 2] * recip[m::-2]).sum(axis=0)
            pow_u[1, m] = u[m]
            for k in range(2, m // 2 + 1):
                # u starts at order 2 and u**(k-1) at order 2k-2.
                band = u[2 : m - 2 * k + 3 : 2] * pow_u[k - 1, m - 2 : 2 * k - 3 : -2]
                pow_u[k, m] = band.sum(axis=0)

            interaction = np.roll(w[m], 1) - w[m]  # w_{i-1} - w_i
            composed = np.einsum("kn,kn->n", fk[1:], pow_u[1:, m])
            c[j] = (s / j) * (interaction + composed)

    return CoefficientTable(N=N, L=config.L, j_max=J, scale=s, data=np.ascontiguousarray(c.T))


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


def oracle_coefficients(config: RingConfig, j_cap: int) -> CoefficientTable:
    """Slow literal evaluation of the coefficient recursion for j <= j_cap.

    For j >= 3,

        c_{ij} = - sum_m sum_{(j_1..j_m)} A  +  sum_k sum_{(j_1..j_k)} B,
        A = (1/j) d_m delta**(-2-m) nabla_minus( prod_p nabla_plus(c_{., j_p}) / (j_p+1) ),
        B = (1/j) F^(k)(x_i(0))/k! prod_p c_{i, j_p} / (j_p+1),
        d_m = (-1)**m (m+1),

    with the inner sums over ordered tuples satisfying
    (j_1+1)+...+(j_m+1) = j-1, which caps m and k at (j-1)//2.  Tuple
    enumeration grows exponentially, hence the hard limit j_cap <= 9.
    """
    if j_cap > 9:
        raise ConfigError(f"oracle enumeration is limited to j_cap <= 9, got {j_cap}")
    if j_cap < 1:
        raise ConfigError(f"j_cap must be >= 1, got {j_cap}")
    N, delta, s = config.N, config.delta, config.scale

    c = np.zeros((j_cap + 1, N))
    c[1] = force_grid(config.force, config, 0)
    for j in range(3, j_cap + 1):
        acc = np.zeros(N)
        for m in range(1, (j - 1) // 2 + 1):
            d_m = (-1) ** m * (m + 1)
            pref = d_m * delta ** (-2.0 - m) / j
            for tup in ordered_compositions(j - 1 - m, m):
                prod = np.ones(N)
                for jp in tup:
                    prod *= nabla_plus(c[jp]) / (jp + 1)
                acc -= pref * nabla_minus(prod)
        for k in range(1, (j - 1) // 2 + 1):
            fk = force_grid(config.force, config, k) / math.factorial(k)
            for tup in ordered_compositions(j - 1 - k, k):
                prod = np.ones(N)
                for jp in tup:
                    prod *= c[jp] / (jp + 1)
                acc += fk * prod / j
        c[j] = acc

    scaled = c * (s ** np.arange(j_cap + 1))[:, None]
    return CoefficientTable(N=N, L=config.L, j_max=j_cap, scale=s, data=np.ascontiguousarray(scaled.T))


def explicit_c3(config: RingConfig) -> np.ndarray:
    """Closed form of the order-3 coefficient (unscaled).

    c_{i3} = (1/3) delta**(-3) (nabla_minus nabla_plus F)(i) + (1/6) F_i F'_i,
    the j=3 instance of the recursion, which only the m=1 and k=1 terms
    reach.  Agrees with direct third-order differentiation of the equations
    of motion at t=0.
    """
    delta = config.delta
    f0 = force_grid(config.force, config, 0)
    f1 = force_grid(config.force, config, 1)
    return nabla_minus(nabla_plus(f0)) / (3.0 * delta**3) + f0 * f1 / 6.0


def explicit_c4(config: RingConfig) -> np.ndarray:
    """Printed closed form of the order-4 coefficient (unscaled).

    c_{i4} = (1/8) delta**(-3) nabla_minus((nabla_plus F)**2)(i) + (1/16) F'_i F_i**2.

    Kept as a diagnostic only: it is NOT what the recursion produces.  From
    the rest start every even order vanishes identically (the velocities are
    odd in t), and both ``compute_coefficients`` and direct differentiation
    of the equations of motion give c_{i4} = 0; the recursion is the ground
    truth.  The expression above still obeys the magnitude bound
    (1/4) C**5 + (1/16) C**4 used by the bound checks.
    """
    delta = config.delta
    f0 = force_grid(config.force, config, 0)
    f1 = force_grid(config.force, config, 1)
    return nabla_minus(nabla_plus(f0) ** 2) / (8.0 * delta**3) + f1 * f0**2 / 16.0


def evaluate_velocity(table: CoefficientTable, t: float) -> np.ndarray:
    """All particle velocities at time t by Horner evaluation in tau = t/scale."""
    tau = t / table.scale
    acc = np.zeros(table.N)
    for j in range(table.j_max, 0, -1):
        acc = acc * tau + table.data[:, j]
    return acc * tau


def evaluate_position(
    table: CoefficientTable, config: RingConfig, t: float, wrap: bool = False
) -> np.ndarray:
    """All particle positions at time t (termwise-integrated velocity series).

    Positions are unwrapped by default; ``wrap=True`` reduces them modulo L.
    """
    tau = t / table.scale
    acc = np.zeros(table.N)
    for j in range(table.j_max, 0, -1):
        acc = acc * tau + table.data[:, j] / (j + 1.0)
    x = initial_positions(config) + table.scale * acc * tau**2
    if wrap:
        x = np.mod(x, config.L)
    return x


def table_csv(table: CoefficientTable) -> str:
    """CSV rendering, one row per (i, j), i-major, 17 significant digits."""
    lines = ["i,j,c_scaled,scale,N,L,J_max"]
    tail = f",{table.scale:.17g},{table.N},{table.L:.17g},{table.j_max}"
    for i, row in enumerate(table.data[:, 1:].tolist()):
        lines.extend(f"{i},{j},{v:.17g}{tail}" for j, v in enumerate(row, start=1))
    return "\n".join(lines) + "\n"


def table_json(table: CoefficientTable, force: ForceSpec | None = None) -> dict:
    """JSON envelope: config header, rescale, and row-major coefficients."""
    cfg: dict = {"N": table.N, "L": table.L, "J_max": table.j_max}
    if force is not None:
        cfg["force"] = force.to_json()
    return {
        "config": cfg,
        "scale": table.scale,
        "coefficients": [float(v) for v in table.data[:, 1:].ravel(order="C")],
    }
