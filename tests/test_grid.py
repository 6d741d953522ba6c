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
from coulomb_chain.series import force_grid, nabla_minus, nabla_plus

TWO_PI = 2.0 * math.pi


def differenced(config, k, q):
    """The k-th force derivative on the rest lattice, forward-differenced q times."""
    g = force_grid(config, k)[k]
    for _ in range(q):
        g = nabla_plus(g)
    return g


def test_forward_difference_of_constant_is_zero():
    np.testing.assert_array_equal(nabla_plus([3.0, 3.0, 3.0, 3.0]), np.zeros(4))
    np.testing.assert_array_equal(nabla_minus([3.0, 3.0, 3.0, 3.0]), np.zeros(4))


def test_forward_difference_hand_values():
    np.testing.assert_array_equal(nabla_plus([1.0, 4.0, 9.0]), [3.0, 5.0, -8.0])


def test_backward_difference_hand_values():
    np.testing.assert_array_equal(nabla_minus([1.0, 4.0, 9.0]), [-8.0, 3.0, 5.0])


def test_period_two_antisymmetry():
    a, b = 1.7, -0.4
    np.testing.assert_array_equal(nabla_plus([a, b]), [b - a, a - b])


@pytest.mark.parametrize("n", range(2, 10))
def test_differences_match_the_roll_forms_bit_for_bit(rng, n):
    # Signed zeros, subnormals, values near the top of double range and plain
    # normals, in random places; the slice forms subtract the same pairs.
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, 8.9e307])
    for _ in range(50):
        g = np.where(rng.random(n) < 0.5, rng.choice(edge, n), rng.normal(size=n))
        with np.errstate(over="ignore"):  # +-1.7e308 differ by more than the top double
            plus, minus = np.roll(g, -1) - g, g - np.roll(g, 1)
            slice_plus, slice_minus = nabla_plus(g), nabla_minus(g)
        np.testing.assert_array_equal(slice_plus.view(np.uint64), plus.view(np.uint64))
        np.testing.assert_array_equal(slice_minus.view(np.uint64), minus.view(np.uint64))


def test_second_difference_identity(rng):
    g = rng.normal(size=11)
    second = nabla_minus(nabla_plus(g))
    expected = np.roll(g, -1) - 2 * g + np.roll(g, 1)
    np.testing.assert_allclose(second, expected, rtol=0, atol=1e-14)


def test_differences_commute_exactly(rng):
    for n in (2, 3, 8, 101):
        g = rng.normal(size=n)
        np.testing.assert_array_equal(nabla_plus(nabla_minus(g)), nabla_minus(nabla_plus(g)))


def test_product_rule(rng):
    g = rng.normal(size=17)
    f = rng.normal(size=17)
    lhs = nabla_plus(g * f)
    rhs = np.roll(f, -1) * nabla_plus(g) + g * nabla_plus(f)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_telescoping(rng):
    g = rng.normal(size=64)
    assert abs(np.sum(nabla_plus(g))) <= 1e-12 * np.sum(np.abs(g))


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
