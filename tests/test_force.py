import json
import math

import numpy as np
import pytest

from conftest import SEED7_THREE, SEED7_TWO
from coulomb_chain import (
    ConfigError,
    ForceSpec,
    Harmonic,
    RingConfig,
    c_f_bound,
    eval_force,
    eval_potential,
    force_jet,
    initial_positions,
)
from coulomb_chain.series import force_grid

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def amplitude_sum(spec):
    return abs(spec.a0) + sum(abs(h.a) + abs(h.b) for h in spec.harmonics)


def forms_bound(spec):
    """How far the value kernel and the jet's row 0 may lie from the force, and apart."""
    return 8 * EPS * amplitude_sum(spec)


def reference_force(spec, x):
    """The force formula the jet's row 0 must reproduce bit for bit: reduce
    every entry with np.mod, add a*cos + b*sin per harmonic, then a0."""
    xm = np.mod(np.asarray(x, dtype=float), spec.L)
    out = np.zeros_like(xm)
    for h in spec.harmonics:
        theta = 2.0 * np.pi * h.k / spec.L * xm
        out += h.a * np.cos(theta) + h.b * np.sin(theta)
    if spec.a0 != 0.0:
        out += spec.a0
    return out


def phase_force(spec, x):
    """The value kernel's formula: reduce every entry with np.mod, add
    R sin(w x + phi) per harmonic with R = hypot(a, b), phi = atan2(a, b),
    then a0."""
    xm = np.mod(np.asarray(x, dtype=float), spec.L)
    out = np.zeros_like(xm)
    for h in spec.harmonics:
        w = 2.0 * np.pi * h.k / spec.L
        out += math.hypot(h.a, h.b) * np.sin(w * xm + math.atan2(h.a, h.b))
    if spec.a0 != 0.0:
        out += spec.a0
    return out


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
    assert force_jet(spec, 0.0, 1)[1] == pytest.approx(TWO_PI, rel=1e-15)


def test_order_zero_is_the_force(rng):
    # The value kernel has its own bits (one sine per harmonic); the jet's
    # row 0 is the same force to within the rounding of either form.
    spec = ForceSpec(L=2.0, a0=-0.3, harmonics=(Harmonic(1, 0.4, -0.2), Harmonic(3, 0.0, 1.1)))
    for x in rng.uniform(-5, 5, size=20):
        assert eval_force(spec, x) == phase_force(spec, x)
        assert abs(force_jet(spec, x, 0)[0] - eval_force(spec, x)) <= forms_bound(spec)


def test_second_derivative_against_finite_difference():
    # d^2/dx^2 sin(2 pi x) at x=0.25 is -(2 pi)^2; cross-check the closed form
    # with a central difference of the direct evaluation.
    spec = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    exact = force_jet(spec, 0.25, 2)[2]
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
        vals = force_jet(spec, xs, k)[k]
        assert np.max(np.abs(vals)) <= c ** (k + 1)


def test_finite_difference_consistency(rng):
    spec = ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.2, 0.8), Harmonic(3, -0.4, 0.0)))
    h = 1e-5
    xs = rng.uniform(0, 1, size=25)
    for k in range(4):
        exact = force_jet(spec, xs, k + 1)[k + 1]
        fd = (force_jet(spec, xs + h, k)[k] - force_jet(spec, xs - h, k)[k]) / (2 * h)
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


@pytest.mark.parametrize("harmonics", [
    (Harmonic(1, 0.0, 0.5),),
    (Harmonic(1, 0.4, -0.2), Harmonic(3, 0.0, 1.1)),
], ids=["sine", "two"])
def test_potential_off_the_circle_has_the_bits_of_the_reduced_points(harmonics, rng):
    # The points are reduced modulo L only when some point lies outside
    # [0, L); a point alone exercises both branches, -0.0 the skipped one.
    L = 1.5
    spec = ForceSpec(L=L, harmonics=harmonics)
    xs = np.concatenate([[0.0, -0.0, L, -L, np.nextafter(L, 0.0)],
                         rng.uniform(-3 * L, 3 * L, size=300)])
    reduced = np.mod(xs, L)
    np.testing.assert_array_equal(eval_potential(spec, xs).view(np.uint64),
                                  eval_potential(spec, reduced).view(np.uint64))
    alone = np.array([eval_potential(spec, x) for x in xs.tolist()])
    alone_reduced = np.array([eval_potential(spec, x) for x in reduced.tolist()])
    np.testing.assert_array_equal(alone.view(np.uint64), alone_reduced.view(np.uint64))


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        ForceSpec(L=0.0)
    with pytest.raises(ConfigError):
        ForceSpec(L=1.0, harmonics=(Harmonic(1, 1.0, 0.0), Harmonic(1, 0.0, 1.0)))
    with pytest.raises(ConfigError):
        Harmonic(0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        force_jet(ForceSpec(L=1.0), 0.0, -1)
    with pytest.raises(ConfigError, match="^a0: "):
        ForceSpec(L=1.0, a0=math.inf)
    with pytest.raises(ConfigError, match="^b: "):
        Harmonic(1, 0.0, math.nan)
    with pytest.raises(ConfigError, match="^a: "):
        Harmonic(1, np.bool_(True))
    with pytest.raises(ConfigError, match="^a: "):
        Harmonic(1, np.float32(np.inf))
    # numpy scalars are numbers too, stored as Python int and float
    h = Harmonic(np.int64(1), np.float32(0.5), np.float64(-0.25))
    assert (h.k, h.a, h.b) == (1, 0.5, -0.25)
    assert [type(v) for v in (h.k, h.a, h.b)] == [int, float, float]
    spec = ForceSpec(L=np.float32(1.0), a0=np.int64(0), harmonics=(h,))
    assert json.dumps(spec.to_json()) == json.dumps(
        ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.5, -0.25),)).to_json()
    )


@pytest.mark.parametrize(
    "harmonic, field",
    [
        ({"k": 1.7}, "harmonics[0].k"),
        ({"k": True}, "harmonics[0].k"),
        ({"k": 1, "b": "0.5"}, "harmonics[0].b"),
        ({"k": 1, "amp": 0.5}, "harmonics[0].amp"),
        (3, "harmonics[0]"),  # not an object
    ],
)
def test_from_json_rejects_bad_values(harmonic, field):
    with pytest.raises(ConfigError) as info:
        ForceSpec.from_json({"L": 1.0, "harmonics": [harmonic]})
    assert info.value.field == field


@pytest.mark.parametrize(
    "obj, field",
    [
        ([1.0], None),  # the force itself is not an object
        ({"L": 1.0, "harmonics": {"k": 1}}, "harmonics"),
    ],
)
def test_from_json_rejects_bad_structure(obj, field):
    with pytest.raises(ConfigError, match="expected a") as info:
        ForceSpec.from_json(obj)
    assert info.value.field == field


def test_from_json_stores_floats():
    # an integer a0 must not change the JSON written back (and every table header)
    spec = ForceSpec.from_json({"L": 1, "a0": 0, "harmonics": [{"k": 2, "b": 1}]})
    assert spec.to_json() == {"L": 1.0, "a0": 0.0, "harmonics": [{"k": 2, "a": 0.0, "b": 1.0}]}
    assert all(type(v) is float for v in (spec.L, spec.a0, spec.harmonics[0].b))


# ---------------------------------------------------------------------------
# the value kernel and the jet kernel

@pytest.mark.parametrize("spec", [SEED7_TWO, SEED7_THREE], ids=["two", "three"])
def test_eval_force_against_mpmath(spec, rng):
    # 40-digit evaluation at the same double points: the lattice of N=4096,
    # random points in [0, L) and points outside it (reduced with np.mod).
    # Measured: 3.6 and 4.7 eps times the amplitude sum.
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.arange(4096) / 4096, rng.uniform(0.0, 1.0, size=500),
                         rng.uniform(-3.0, 3.0, size=200), [-0.0, np.nextafter(1.0, 0.0)]])
    exact = np.empty_like(xs)
    with mpmath.workdps(40):
        for i, x in enumerate(xs.tolist()):
            exact[i] = float(sum(h.a * mpmath.cos(2 * mpmath.pi * h.k * mpmath.mpf(x))
                                 + h.b * mpmath.sin(2 * mpmath.pi * h.k * mpmath.mpf(x))
                                 for h in spec.harmonics))
    assert np.max(np.abs(eval_force(spec, xs) - exact)) <= forms_bound(spec)


def test_pure_sine_values_keep_the_cos_sin_bits(rng):
    # With a = 0 (either sign) and b > 0, phi = +-0 and R = b, so
    # R sin(w x + phi) has the bits of a cos(w x) + b sin(w x); the pinned
    # trajectories of pure-sine configs rest on this.  The potential keeps
    # (b cos(w x) - a sin(w x)) / w the same way.
    L = 1.5
    special = [0.0, -0.0, L, -L, np.nextafter(L, 0.0), 1e6, np.inf, np.nan]
    xs = np.concatenate([special, rng.uniform(-3 * L, 3 * L, size=300)])
    for spec in (
        ForceSpec(L=L, harmonics=(Harmonic(1, 0.0, 0.5),)),
        ForceSpec(L=L, a0=-0.3, harmonics=(Harmonic(1, -0.0, 0.3), Harmonic(3, 0.0, 1.1))),
    ):
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(eval_force(spec, xs).view(np.uint64),
                                          reference_force(spec, xs).view(np.uint64))
        if spec.a0 == 0.0:
            xm = np.mod(xs[np.isfinite(xs)], L)
            expected = np.zeros_like(xm)
            for h in spec.harmonics:
                w = 2.0 * np.pi * h.k / L
                expected += (-h.a * np.sin(w * xm) + h.b * np.cos(w * xm)) / w
            np.testing.assert_array_equal(eval_potential(spec, xm).view(np.uint64),
                                          expected.view(np.uint64))


def test_eval_force_fills_the_given_row():
    spec = ForceSpec(L=1.0, a0=0.2, harmonics=SEED7_THREE.harmonics)
    xs = np.linspace(0.0, 1.0, 33)
    out = np.full(33, np.nan)
    assert eval_force(spec, xs, out=out) is out
    np.testing.assert_array_equal(out.view(np.uint64), phase_force(spec, xs).view(np.uint64))
    with pytest.raises(ConfigError, match="shape"):
        eval_force(spec, xs, out=np.empty(32))


def test_row_zero_is_bit_identical_to_the_force_formula(rng):
    L = 1.5
    specs = (
        ForceSpec(L=L, a0=-0.3, harmonics=(Harmonic(1, 0.4, -0.2), Harmonic(3, 0.0, 1.1))),
        ForceSpec(L=L, harmonics=(Harmonic(2, -0.0, 0.7),)),
        ForceSpec(L=L, a0=0.25),
    )
    special = [0.0, -0.0, L, -L, np.nextafter(L, 0.0), 1e6, -1e6, np.inf, -np.inf, np.nan]
    xs = np.concatenate([special, rng.uniform(-3 * L, 3 * L, size=200)])
    with np.errstate(invalid="ignore"):  # np.mod and cos/sin of inf
        for spec in specs:
            config = RingConfig(N=64, L=L, force=spec, j_max=9)
            expected = reference_force(spec, xs)
            np.testing.assert_array_equal(force_jet(spec, xs, 0)[0].view(np.uint64),
                                          expected.view(np.uint64))
            values = phase_force(spec, xs)
            np.testing.assert_array_equal(eval_force(spec, xs).view(np.uint64),
                                          values.view(np.uint64))
            for x, e in zip(xs.tolist(), values.tolist()):
                assert np.array_equal(eval_force(spec, x), e, equal_nan=True)
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=forms_bound(spec))
            lattice = initial_positions(config)
            np.testing.assert_array_equal(
                force_grid(config, 4)[0].view(np.uint64),
                reference_force(spec, lattice).view(np.uint64),
            )


@pytest.mark.parametrize("spec", [SEED7_TWO, SEED7_THREE], ids=["two", "three"])
@pytest.mark.parametrize("n", [128, 1000, 4096])
def test_jet_against_mpmath(spec, n):
    # Row-relative error of F^(k) on the rest lattice for k <= 8, against
    # 40-digit evaluation at the same double positions.  Rotating p and q by
    # exact quarter turns stays below 3e-15; rounding theta + k pi/2 (the
    # earlier formula) reaches 4.4e-15 on the three-harmonic force at 4096.
    mpmath = pytest.importorskip("mpmath")
    k_max = 8
    config = RingConfig(N=n, L=1.0, force=spec, j_max=2 * k_max + 1)
    jet = force_grid(config, k_max)
    exact = np.zeros_like(jet)
    with mpmath.workdps(40):
        rows = [[mpmath.mpf(0)] * n for _ in range(k_max + 1)]
        for h in spec.harmonics:
            w = 2 * mpmath.pi * h.k / mpmath.mpf(spec.L)
            for i, x in enumerate(initial_positions(config).tolist()):
                cos, sin = mpmath.cos(w * x), mpmath.sin(w * x)
                turns = (h.a * cos + h.b * sin, h.b * cos - h.a * sin)
                for k in range(k_max + 1):
                    sign = 1 if k % 4 < 2 else -1
                    rows[k][i] += sign * w**k * turns[k % 2]
        for k in range(k_max + 1):
            exact[k] = [float(v) for v in rows[k]]
    for k in range(k_max + 1):
        err = np.max(np.abs(jet[k] - exact[k])) / np.max(np.abs(exact[k]))
        assert err <= 3e-15, (k, err)


def test_jet_subtraction_is_negation_and_fills_the_given_rows(rng):
    # jet[k] -= w**k * p has the bits of jet[k] += w**k * (-p); given turns=,
    # the jet writes every harmonic's (p, q) pair, also at k_max = 0.
    spec = ForceSpec(L=1.5, a0=0.2, harmonics=SEED7_THREE.harmonics + (Harmonic(5, -0.0, 0.3),))
    xs = np.concatenate([[0.0, -0.0, 0.75], rng.uniform(0.0, 1.5, size=300)])
    k_max = 11
    expected = np.zeros((k_max + 1, xs.size))
    expected_turns = np.empty((len(spec.harmonics), 2, xs.size))
    for h, pq in zip(spec.harmonics, expected_turns):
        w = 2.0 * np.pi * h.k / spec.L
        cos, sin = np.cos(w * xs), np.sin(w * xs)
        p, q = pq[...] = h.a * cos + h.b * sin, h.b * cos - h.a * sin
        expected[0] += p
        for k in range(1, k_max + 1):
            expected[k] += w**k * (p, q, -p, -q)[k % 4]
    expected[0] += spec.a0
    np.testing.assert_array_equal(force_jet(spec, xs, k_max).view(np.uint64),
                                  expected.view(np.uint64))
    for rows in (k_max, 0):
        turns = np.full(expected_turns.shape, np.nan)
        jet = force_jet(spec, xs, rows, turns=turns)
        np.testing.assert_array_equal(jet.view(np.uint64), expected[: rows + 1].view(np.uint64))
        np.testing.assert_array_equal(turns.view(np.uint64), expected_turns.view(np.uint64))
    with pytest.raises(ConfigError, match="shape"):
        force_jet(spec, xs, k_max, turns=turns[1:])


def test_derivative_equals_jet_row(rng):
    spec = ForceSpec(L=1.0, a0=0.2, harmonics=SEED7_THREE.harmonics)
    config = RingConfig(N=96, L=1.0, force=spec, j_max=24)
    jet = force_grid(config, 11)
    lattice = initial_positions(config)
    for k in range(12):
        np.testing.assert_array_equal(force_jet(spec, lattice, k)[k].view(np.uint64),
                                      jet[k].view(np.uint64))
        for i in rng.integers(0, 96, size=4).tolist():
            assert force_jet(spec, float(lattice[i]), k)[k] == jet[k, i]
