"""Test-only oracles: closed forms and a multiple-precision recursion the
coefficient engine is checked against, the unpadded ring acceleration the
integrator's kernel is checked against, and the rest start and the
acceleration of one state, built from the integrator's kernel."""

import math

import numpy as np
from mpmath import mp, mpf

from coulomb_chain import (
    CollisionError, RingConfig, TrajectoryState, eval_force, initial_positions, ode,
)
from coulomb_chain.series import force_grid


def explicit_c3(config: RingConfig) -> np.ndarray:
    """Closed form of the order-3 coefficient (unscaled).

    c_{i3} = (1/3) delta**(-3) (nabla_minus nabla_plus F)(i) + (1/6) F_i F'_i,
    the j=3 instance of the recursion, which only the m=1 and k=1 terms
    reach.  Agrees with direct third-order differentiation of the equations
    of motion at t=0.
    """
    delta = config.delta
    f0, f1 = force_grid(config, 1)
    forward = np.roll(f0, -1) - f0
    return (forward - np.roll(forward, 1)) / (3.0 * delta**3) + f0 * f1 / 6.0


def initial_state(config: RingConfig) -> TrajectoryState:
    """Uniform rest start: x_i = i*L/N, v_i = 0."""
    return TrajectoryState(t=0.0, x=initial_positions(config), v=np.zeros(config.N))


def acceleration(config: RingConfig, state: TrajectoryState) -> np.ndarray:
    """Net acceleration of every particle in ``state``, by the integrator's kernel.

    Raises CollisionError when any gap is at or below the collision floor.
    """
    x = np.asarray(state.x, dtype=float)
    g0, dg0, work = ode._kernel_rows(ode._gaps(x, config.L))
    out = np.empty_like(x)
    ode._acceleration(config, x, g0, dg0, np.zeros_like(x), out, work)
    return out


def with_left_acceleration(config: RingConfig, x0: np.ndarray, g0: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
    """Ring acceleration at ``x0 + u``, with ``g0`` the cyclic gaps of ``x0``, on unpadded rows.

    Each neighbour op is one ufunc on ``a[1:], a[:-1]`` plus a scalar op for
    the wrap ``op(a[0], a[-1])``, with the same operation order as
    ``ode._acceleration``: (g_i + g_{i-1}) * dg / (g_i g_{i-1}) / (g_i g_{i-1}).
    Every gap at or below the floor raises CollisionError; NaN gaps pass.
    """
    def with_left(op, a):
        out = np.empty_like(a)
        op(a[1:], a[:-1], out=out[1:])
        out[0] = op(a[0], a[-1])
        return out

    def forward_diff(a):
        out = np.empty_like(a)
        np.subtract(a[1:], a[:-1], out=out[:-1])
        out[-1] = a[0] - a[-1]
        return out

    g = g0 + forward_diff(u)
    floor = ode.GAP_FLOOR_FACTOR * config.delta
    if (g <= floor).any():
        raise CollisionError(f"gap {int(np.argmin(g))} at or below the floor {floor:.3e}")
    dg = with_left(np.subtract, forward_diff(u))
    dg += with_left(np.subtract, g0)
    out = with_left(np.add, g)
    out *= dg
    g_prod = with_left(np.multiply, g)
    out /= g_prod
    out /= g_prod
    out += eval_force(config.force, x0 + u)
    return out


def mp_coefficients(config: RingConfig, digits: int = 50) -> list[list]:
    """The rescaled odd columns c_{ij} scale**j, j = 1, 3, .., j_max, at ``digits`` digits.

    The unprojected recursion on the N lattice points, per particle, with
    the force composed from the powers u**k (the engine composes through
    exp(i w u) and projects each column to its band): u_m = c_{m-1}/m,
    the reciprocal and square of the gap series delta + nabla_plus(u), and
    c_j = (w_{i-1} - w_i + sum_k F^(k)(x_i)/k! [u**k]_{j-1}) / j.  The rest
    positions i L/N and the force's derivatives are exact to the working
    precision; only its amplitudes come in as doubles.  From rest only even
    t-orders of the series are nonzero, so row r holds order 2r.
    """
    N, J = config.N, config.j_max
    force = config.force
    with mp.workdps(digits):
        L = mpf(force.L)
        delta = L / N
        x = [i * L / N for i in range(N)]
        k_cap = (J - 1) // 2
        fk = [[mpf(force.a0) if k == 0 else mpf(0)] * N for k in range(k_cap + 1)]
        for h in force.harmonics:
            w = 2 * mp.pi * h.k / L
            for k in range(k_cap + 1):
                wk = w**k / math.factorial(k)
                fk[k] = [f + wk * (h.a * mp.cos(w * xi + k * mp.pi / 2)
                                   + h.b * mp.sin(w * xi + k * mp.pi / 2))
                         for f, xi in zip(fk[k], x)]
        cols = [fk[0]]
        u, recip, w2 = [None], [[1 / delta] * N], [[1 / delta**2] * N]
        gap = [None]
        powers = [None] + [[None] for _ in range(k_cap)]  # powers[k][r] = [t**(2r)] u**k
        for j in range(3, J + 1, 2):
            r = (j - 1) // 2
            u.append([c / (j - 1) for c in cols[-1]])
            gap.append([u[r][(i + 1) % N] - u[r][i] for i in range(N)])
            recip.append([-sum(gap[q][i] * recip[r - q][i] for q in range(1, r + 1)) / delta
                          for i in range(N)])
            w2.append([sum(recip[q][i] * recip[r - q][i] for q in range(r + 1)) for i in range(N)])
            powers[1].append(u[r])
            for k in range(2, k_cap + 1):
                powers[k].append([sum(u[q][i] * powers[k - 1][r - q][i]
                                      for q in range(1, r - k + 2)) if r >= k else mpf(0)
                                  for i in range(N)])
            cols.append([(w2[r][i - 1] - w2[r][i]
                          + sum(fk[k][i] * powers[k][r][i] for k in range(1, r + 1))) / j
                         for i in range(N)])
        s = mpf(config.scale)
        return [[c * s**j for c in col] for j, col in zip(range(1, J + 1, 2), cols)]


def clean_order_max(table, config: RingConfig, tol: float = 1e-6) -> tuple[int, float]:
    """How many orders of ``table`` agree with ``mp_coefficients`` in a row, and the worst error.

    An order is clean when its column-relative error is at most ``tol``;
    even orders must be exact zeros.  The worst error is over every order.
    """
    reference = mp_coefficients(config)
    errors = []
    for j in range(1, config.j_max + 1):
        if j % 2 == 0:
            errors.append(0.0 if not table.data[:, j].any() else math.inf)
            continue
        col = reference[j // 2]
        top = max(abs(v) for v in col)
        diff = max(abs(mpf(float(a)) - v) for a, v in zip(table.data[:, j], col))
        errors.append(float(diff / top) if top else (0.0 if diff == 0 else math.inf))
    clean = next((j for j, e in enumerate(errors) if not e <= tol), len(errors))
    return clean, max(errors)
