"""Test-only oracles: closed forms the coefficient engine is checked against,
and the unpadded ring acceleration the integrator's kernel is checked against."""

import numpy as np

from coulomb_chain import (
    CollisionError, RingConfig, eval_force, force_grid, nabla_minus, nabla_plus, ode,
)


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
