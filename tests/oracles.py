"""Test-only oracles: closed forms the coefficient engine is checked against."""

import numpy as np

from coulomb_chain import RingConfig, force_grid, nabla_minus, nabla_plus


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
