import math

import numpy as np
import pytest

from coulomb_chain import (
    ConfigError,
    ForceSpec,
    Harmonic,
    c_f_bound,
    eval_derivative,
    eval_force,
    eval_potential,
)

TWO_PI = 2.0 * math.pi


def test_eval_force_pure_sine_at_zero():
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    assert eval_force(spec, 0.0) == 0.0


def test_eval_force_constant():
    spec = ForceSpec(L=1.0, a0=2.0)
    assert eval_force(spec, 0.37) == 2.0


def test_eval_force_sine_quarter_period():
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    assert eval_force(spec, 0.25) == pytest.approx(1.0, abs=1e-15)


def test_first_derivative_of_sine_at_zero():
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    assert eval_derivative(spec, 1, 0.0) == pytest.approx(TWO_PI, rel=1e-15)


def test_order_zero_is_the_force(rng):
    spec = ForceSpec(L=2.0, a0=-0.3, harmonics=(Harmonic(1, 0.4, -0.2), Harmonic(3, 0.0, 1.1)))
    for x in rng.uniform(-5, 5, size=20):
        assert eval_derivative(spec, 0, x) == eval_force(spec, x)


def test_second_derivative_against_finite_difference():
    # d^2/dx^2 sin(2 pi x) at x=0.25 is -(2 pi)^2; cross-check the closed form
    # with a central difference of the direct evaluation.
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    exact = eval_derivative(spec, 2, 0.25)
    assert exact == pytest.approx(-(TWO_PI**2), rel=1e-13)
    h = 1e-5
    fd = (eval_force(spec, 0.25 + h) - 2 * eval_force(spec, 0.25) + eval_force(spec, 0.25 - h)) / h**2
    assert fd == pytest.approx(exact, rel=1e-5)


def test_growth_constant_values():
    assert c_f_bound(ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))) == pytest.approx(TWO_PI)
    assert c_f_bound(ForceSpec(L=1.0, a0=0.5)) == 1.0
    assert c_f_bound(ForceSpec(L=2.0, harmonics=(Harmonic(2, 3.0, 0.0),))) == pytest.approx(TWO_PI)


def test_periodicity(rng):
    spec = ForceSpec(L=1.5, a0=0.2, harmonics=(Harmonic(1, 0.3, 0.7), Harmonic(4, -0.1, 0.05)))
    for x in rng.uniform(-10, 10, size=100):
        f0 = eval_force(spec, x)
        f1 = eval_force(spec, x + spec.L)
        assert abs(f0 - f1) <= 1e-12 * (1.0 + abs(f0))


def test_derivative_bound(rng):
    spec = ForceSpec(L=1.0, a0=0.1, harmonics=(Harmonic(1, 0.5, 0.5), Harmonic(2, 0.0, 0.25)))
    c = c_f_bound(spec)
    xs = rng.uniform(0, spec.L, size=100)
    for k in range(9):
        vals = eval_derivative(spec, k, xs)
        assert np.max(np.abs(vals)) <= c ** (k + 1)


def test_finite_difference_consistency(rng):
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.2, 0.8), Harmonic(3, -0.4, 0.0)))
    h = 1e-5
    xs = rng.uniform(0, 1, size=25)
    for k in range(4):
        exact = eval_derivative(spec, k + 1, xs)
        fd = (eval_derivative(spec, k, xs + h) - eval_derivative(spec, k, xs - h)) / (2 * h)
        scale = np.max(np.abs(exact))
        np.testing.assert_allclose(fd, exact, rtol=1e-4, atol=1e-4 * scale)


def test_vectorized_evaluation_matches_scalar():
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(2, 0.3, -0.6),))
    xs = np.linspace(0, 1, 7)
    vec = eval_force(spec, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert eval_force(spec, float(x)) == pytest.approx(v, abs=1e-15)


def test_potential_gradient_is_minus_force(rng):
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.1, 0.9), Harmonic(2, -0.3, 0.0)))
    h = 1e-6
    for x in rng.uniform(0, 1, size=20):
        grad = (eval_potential(spec, x + h) - eval_potential(spec, x - h)) / (2 * h)
        assert -grad == pytest.approx(eval_force(spec, x), rel=1e-7, abs=1e-7)


def test_potential_requires_zero_mean():
    with pytest.raises(ConfigError):
        eval_potential(ForceSpec(L=1.0, a0=1.0), 0.3)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        ForceSpec(L=0.0)
    with pytest.raises(ConfigError):
        ForceSpec(L=1.0, harmonics=(Harmonic(1, 1.0, 0.0), Harmonic(1, 0.0, 1.0)))
    with pytest.raises(ConfigError):
        Harmonic(0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        eval_derivative(ForceSpec(L=1.0), -1, 0.0)
    with pytest.raises(ConfigError, match="^a0: "):
        ForceSpec(L=1.0, a0=math.inf)
    with pytest.raises(ConfigError, match="^b: "):
        Harmonic(1, 0.0, math.nan)


@pytest.mark.parametrize(
    "harmonic, field",
    [
        ({"k": 1.7}, "harmonics[0].k"),
        ({"k": True}, "harmonics[0].k"),
        ({"k": 1, "b": "0.5"}, "harmonics[0].b"),
    ],
)
def test_from_json_rejects_bad_values(harmonic, field):
    with pytest.raises(ConfigError) as info:
        ForceSpec.from_json({"L": 1.0, "harmonics": [harmonic]})
    assert info.value.field == field


def test_from_json_stores_floats():
    # an integer a0 must not change the JSON written back (and every table header)
    spec = ForceSpec.from_json({"L": 1, "a0": 0, "harmonics": [{"k": 2, "b": 1}]})
    assert spec.to_json() == {"L": 1.0, "a0": 0.0, "harmonics": [{"k": 2, "a": 0.0, "b": 1.0}]}
    assert all(type(v) is float for v in (spec.L, spec.a0, spec.harmonics[0].b))
