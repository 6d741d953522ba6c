import math

import numpy as np
import pytest

from coulomb_chain import (
    ConfigError,
    ForceSpec,
    Harmonic,
    RingConfig,
    c_f_bound,
    force_jet,
    initial_positions,
)
from coulomb_chain.series import force_grid

TWO_PI = 2.0 * math.pi


def differenced(config, k, q):
    """The k-th force derivative on the rest lattice, forward-differenced q times."""
    g = force_grid(config, k)[k]
    for _ in range(q):
        g = np.roll(g, -1) - g
    return g


def test_force_grid_quarter_points():
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    config = RingConfig(N=4, L=1.0, force=spec, j_max=4, scale=1.0)
    f0, f1 = force_grid(config, 1)
    np.testing.assert_allclose(f0, [0.0, 1.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(f1, [TWO_PI, 0.0, -TWO_PI, 0.0], atol=1e-14)


def test_force_grid_constant_derivatives_vanish():
    spec = ForceSpec(L=1.0, a0=0.7)
    config = RingConfig(N=6, L=1.0, force=spec, j_max=4, scale=1.0)
    np.testing.assert_array_equal(force_grid(config, 3)[1:], np.zeros((3, 6)))


def test_iterated_derivative_identity_case():
    # A forward difference integrates the next derivative over one spacing;
    # for one harmonic of angular frequency w that integral is exact:
    # F^(k)(x + d) - F^(k)(x) = (2 sin(w d / 2) / w) F^(k+1)(x + d/2).
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(2, 0.5, 0.5),))
    config = RingConfig(N=8, L=1.0, force=spec, j_max=4, scale=1.0)
    w, d = 2.0 * TWO_PI, config.delta
    midpoints = initial_positions(config) + 0.5 * d
    expected = (2.0 * math.sin(0.5 * w * d) / w) * force_jet(spec, midpoints, 4)[4]
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(
        differenced(config, 3, 1), expected, rtol=1e-12, atol=1e-13 * scale
    )


@pytest.mark.parametrize("n", [8, 64, 512])
def test_iterated_derivative_bound(n):
    # One forward difference per lattice spacing costs one factor of the
    # spacing times the growth constant.
    spec = ForceSpec(L=1.0, a0=0.1, harmonics=(Harmonic(1, 0.3, 0.4), Harmonic(2, 0.0, 0.2)))
    config = RingConfig(N=n, L=1.0, force=spec, j_max=4, scale=1.0)
    c = c_f_bound(spec)
    delta = config.delta
    for k in range(4):
        for q in range(5):
            bound = c ** (k + q + 1) * delta**q
            assert np.max(np.abs(differenced(config, k, q))) <= bound


def test_first_iterated_bounds_explicit():
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.0, 0.5),))
    config = RingConfig(N=16, L=1.0, force=spec, j_max=4, scale=1.0)
    c = c_f_bound(spec)
    delta = config.delta
    assert np.max(np.abs(differenced(config, 0, 1))) <= c**2 * delta
    assert np.max(np.abs(differenced(config, 0, 2))) <= c**3 * delta**2


def test_grid_validation():
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    with pytest.raises(ConfigError):
        force_grid(RingConfig(N=4, L=1.0, force=spec, j_max=4), -1)
