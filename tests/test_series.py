import math
import re

import numpy as np
import pytest
import sympy as sp

from conftest import assert_columns_close
from coulomb_chain import (
    CoefficientTable,
    ConfigError,
    ForceSpec,
    Harmonic,
    RingConfig,
    auto_scale,
    compute_coefficients,
    evaluate_position,
    evaluate_velocity,
    explicit_c3,
    explicit_c4,
    force_grid,
    initial_positions,
    oracle_coefficients,
    ordered_compositions,
)
from coulomb_chain.analysis import c4_bound


def ode_taylor_oracle(N, force, order):
    """Independent jet oracle: c_{ij} = v_i^(j)(0)/j! by repeated symbolic
    differentiation of the equations of motion for a trigonometric force on
    the ring of circumference force.L, evaluated at the uniform rest start."""
    L = force.L
    xs = sp.symbols(f"x:{N}")
    vs = sp.symbols(f"v:{N}")

    def F(x):
        terms = [force.a0] if force.a0 else []
        for h in force.harmonics:
            theta = 2 * sp.pi * h.k * x / L
            terms += [h.a * sp.cos(theta)] if h.a else []
            terms += [h.b * sp.sin(theta)] if h.b else []
        return sp.Add(*terms)

    gaps = [(xs[(i + 1) % N] - xs[i] + (L if i == N - 1 else 0)) for i in range(N)]
    acc = [1 / gaps[i - 1] ** 2 - 1 / gaps[i] ** 2 + F(xs[i]) for i in range(N)]

    def d_dt(expr):
        return sum(
            sp.diff(expr, xs[i]) * vs[i] + sp.diff(expr, vs[i]) * acc[i] for i in range(N)
        )

    subs = {xs[i]: sp.Rational(i, N) * L for i in range(N)}
    subs.update({vs[i]: 0 for i in range(N)})
    out = np.zeros((order + 1, N))
    for i in range(N):
        expr = acc[i]
        for j in range(1, order + 1):
            out[j, i] = float(expr.subs(subs).evalf(30)) / math.factorial(j)
            if j < order:
                expr = d_dt(expr)
    return out


def dense_reference(config):
    """Dense per-order loop of the coefficient recursion.

    Every order j = 1..J runs, and each convolution spans all m+1 rows of
    the truncated series, exact-zero terms included.  ``compute_coefficients``
    skips the structural zeros and must reproduce this table bit for bit.
    """
    N, J, s = config.N, config.j_max, config.scale
    delta = config.delta
    k_cap = (J - 1) // 2
    fk = np.empty((k_cap + 1, N))
    for k in range(k_cap + 1):
        fk[k] = force_grid(config.force, config, k) / math.factorial(k)

    c = np.zeros((J + 1, N))
    u = np.zeros((J, N))
    recip = np.zeros((J, N))
    w = np.zeros((J, N))
    gap = np.zeros((J, N))
    recip[0] = 1.0 / delta
    w[0] = 1.0 / delta**2
    pow_u = np.zeros((k_cap + 1, J, N)) if k_cap >= 1 else None

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, J + 1):
            m = j - 1
            if m >= 1:
                u[m] = s * c[m - 1] / m
                gap[m] = np.roll(u[m], -1) - u[m]
                recip[m] = -(gap[1 : m + 1] * recip[m - 1 :: -1]).sum(axis=0) / delta
                w[m] = (recip[: m + 1] * recip[m::-1]).sum(axis=0)
                if k_cap >= 1:
                    pow_u[1, m] = u[m]
                    for k in range(2, k_cap + 1):
                        pow_u[k, m] = (u[: m + 1] * pow_u[k - 1, m::-1]).sum(axis=0)

            interaction = np.roll(w[m], 1) - w[m]
            if m == 0:
                composed = fk[0]
            elif k_cap >= 1:
                composed = np.einsum("kn,kn->n", fk[1:], pow_u[1:, m])
            else:
                composed = 0.0
            c[j] = (s / j) * (interaction + composed)

    return CoefficientTable(N=N, L=config.L, j_max=J, scale=s, data=np.ascontiguousarray(c.T))


# ---------------------------------------------------------------------------
# basic contract


def test_constant_force_table_is_exact():
    config = RingConfig(N=5, L=1.0, force=ForceSpec(L=1.0, a0=1.3), j_max=10, scale=1.0)
    table = compute_coefficients(config)
    np.testing.assert_array_equal(table.data[:, 1], np.full(5, 1.3))
    assert np.max(np.abs(table.data[:, 2:])) == 0.0


def test_zero_force_table_is_zero():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0), j_max=8, scale=1.0)
    table = compute_coefficients(config)
    assert np.max(np.abs(table.data)) == 0.0


def test_first_order_is_the_force_sample(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=6)
    table = compute_coefficients(config)
    expected = config.scale * force_grid(sine_force, config, 0)
    np.testing.assert_array_equal(table.data[:, 1], expected)
    np.testing.assert_array_equal(table.data[:, 2], np.zeros(8))


def test_even_orders_vanish(sine_force):
    # From rest on the uniform lattice the velocities are odd in time.  The
    # engine only computes odd orders and relies on this for every force, so
    # it is checked on the two independent oracles, including a force with
    # nonzero mean and several harmonics.
    mixed = ForceSpec(L=1.0, a0=0.2, harmonics=(Harmonic(1, 0.1, 0.3), Harmonic(2, -0.05, 0.02)))
    for force in (sine_force, mixed):
        config = RingConfig(N=8, L=1.0, force=force, j_max=9, scale=1.0)
        slow = oracle_coefficients(config, 9)
        assert np.max(np.abs(slow.data[:, 1::2])) > 0.0
        for j in range(2, 10, 2):
            np.testing.assert_array_equal(slow.data[:, j], np.zeros(8))
    jet = ode_taylor_oracle(3, mixed, 4)
    assert np.max(np.abs(jet[3])) > 0.0
    np.testing.assert_array_equal(jet[2], np.zeros(3))
    np.testing.assert_array_equal(jet[4], np.zeros(3))


def test_invalid_configs_rejected(sine_force):
    with pytest.raises(ConfigError):
        RingConfig(N=1, L=1.0, force=sine_force, j_max=4)
    with pytest.raises(ConfigError):
        RingConfig(N=4, L=1.0, force=sine_force, j_max=0)
    with pytest.raises(ConfigError):
        RingConfig(N=4, L=2.0, force=sine_force, j_max=4)
    with pytest.raises(ConfigError):
        RingConfig(N=4, L=1.0, force=sine_force, j_max=4, scale=-1.0)
    with pytest.raises(ConfigError, match="^j_max: "):
        RingConfig(N=4, L=1.0, force=sine_force, j_max=True)
    with pytest.raises(ConfigError, match="^N: "):
        RingConfig(N=True, L=1.0, force=sine_force, j_max=4)


def test_matches_dense_reference(sine_force):
    # Skipping the structurally zero orders and convolution terms must not
    # change a single bit, signed zeros included.
    forces = (
        sine_force,
        ForceSpec(L=1.0, a0=-0.3),
        ForceSpec(L=1.0),
        ForceSpec(L=1.0, a0=0.2, harmonics=(Harmonic(1, 0.1, 0.3), Harmonic(3, -0.05, 0.02))),
    )
    for force in forces:
        for n in (2, 3, 8, 64):
            for j_max in (1, 2, 3, 4, 5, 6, 9, 24, 47):
                for scale in ({}, {"scale": 1.0}):
                    config = RingConfig(N=n, L=1.0, force=force, j_max=j_max, **scale)
                    fast = compute_coefficients(config).data
                    dense = dense_reference(config).data
                    np.testing.assert_array_equal(
                        fast.view(np.uint64), dense.view(np.uint64),
                        err_msg=f"N={n} j_max={j_max} {scale} {force}",
                    )
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=24, scale=1e40)
    with pytest.raises(OverflowError) as dense_error:
        dense_reference(config)
    with pytest.raises(OverflowError, match=f"^{re.escape(str(dense_error.value))}$"):
        compute_coefficients(config)


def test_overflow_raises(sine_force):
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=24, scale=1e40)
    with pytest.raises(OverflowError):
        compute_coefficients(config)


def test_auto_scale_default(sine_force):
    config = RingConfig(N=64, L=1.0, force=sine_force, j_max=4)
    assert config.scale == pytest.approx(auto_scale(64))
    assert auto_scale(64) == pytest.approx(64.0 ** (-5.0 / 6.0))


# ---------------------------------------------------------------------------
# oracles


def test_matches_enumeration_oracle(sine_force):
    for n in (3, 4, 8):
        config = RingConfig(N=n, L=1.0, force=sine_force, j_max=9, scale=1.0)
        fast = compute_coefficients(config)
        slow = oracle_coefficients(config, 9)
        assert_columns_close(fast.data, slow.data, rtol=1e-10)


def test_enumeration_oracle_zero_force():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0), j_max=9, scale=1.0)
    assert np.max(np.abs(oracle_coefficients(config, 9).data)) == 0.0


def test_enumeration_oracle_cap():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0), j_max=12, scale=1.0)
    with pytest.raises(ConfigError):
        oracle_coefficients(config, 10)


def test_matches_symbolic_jet_oracle():
    force = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    config = RingConfig(N=4, L=1.0, force=force, j_max=3, scale=1.0)
    table = compute_coefficients(config)
    oracle = ode_taylor_oracle(4, force, 3)
    assert_columns_close(table.data, oracle.T, rtol=1e-10)


def test_matches_symbolic_jet_oracle_deeper():
    force = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 0.5),))
    config = RingConfig(N=3, L=1.0, force=force, j_max=5, scale=1.0)
    table = compute_coefficients(config)
    oracle = ode_taylor_oracle(3, force, 5)
    assert_columns_close(table.data, oracle.T, rtol=1e-10)


def test_closed_form_c3(sine_force):
    for n in (4, 16):
        config = RingConfig(N=n, L=1.0, force=sine_force, j_max=4, scale=1.0)
        table = compute_coefficients(config)
        c3 = explicit_c3(config)
        scale = np.max(np.abs(c3))
        np.testing.assert_allclose(table.data[:, 3], c3, rtol=1e-12, atol=1e-14 * scale)


def test_closed_form_c3_against_jet_oracle():
    force = ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 1.0),))
    config = RingConfig(N=4, L=1.0, force=force, j_max=3, scale=1.0)
    oracle = ode_taylor_oracle(4, force, 3)
    c3 = explicit_c3(config)
    scale = np.max(np.abs(oracle[3]))
    np.testing.assert_allclose(c3, oracle[3], rtol=1e-10, atol=1e-12 * scale)


def test_constant_force_closed_forms_vanish():
    config = RingConfig(N=6, L=1.0, force=ForceSpec(L=1.0, a0=2.0), j_max=4, scale=1.0)
    np.testing.assert_array_equal(explicit_c3(config), np.zeros(6))
    np.testing.assert_array_equal(explicit_c4(config), np.zeros(6))


def test_printed_c4_display_respects_bound(sine_force):
    # The printed display disagrees with the recursion (the true order-4
    # coefficients vanish from rest) but must still obey its own magnitude
    # bound.
    from coulomb_chain import c_f_bound

    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=4, scale=1.0)
    assert np.max(np.abs(explicit_c4(config))) <= c4_bound(c_f_bound(sine_force))


def test_c4_of_recursion_is_zero(sine_force):
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=4, scale=1.0)
    np.testing.assert_array_equal(compute_coefficients(config).data[:, 4], np.zeros(16))


def test_composition_enumeration():
    assert list(ordered_compositions(3, 1)) == [(3,)]
    assert sorted(ordered_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(ordered_compositions(1, 2)) == []
    # tuples (j_1..j_k), j_p >= 1, with sum(j_p + 1) = j - 1 for j = 5:
    # k=1 -> (3,); k=2 -> (1, 1)
    assert list(ordered_compositions(5 - 1 - 1, 1)) == [(3,)]
    assert list(ordered_compositions(5 - 1 - 2, 2)) == [(1, 1)]


# ---------------------------------------------------------------------------
# structural invariants


def test_prefix_stability(sine_force):
    # Orders <= j never depend on deeper truncation: the j_max=9 table is a
    # bitwise prefix of the j_max=14 table (well-founded recursion).
    short = compute_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=9, scale=1.0))
    long = compute_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=14, scale=1.0))
    np.testing.assert_array_equal(short.data, long.data[:, :10])


def test_scale_covariance(sine_force):
    config_a = RingConfig(N=8, L=1.0, force=sine_force, j_max=12, scale=1.0)
    config_b = RingConfig(N=8, L=1.0, force=sine_force, j_max=12, scale=0.25)
    ta = compute_coefficients(config_a)
    tb = compute_coefficients(config_b)
    ratio = 0.25 ** np.arange(13)
    assert_columns_close(tb.data, ta.data * ratio[None, :], rtol=1e-12, floor_rtol=1e-13)


def test_translation_covariance():
    # Shifting the force by one lattice spacing permutes the particle rows.
    N, L = 8, 1.0
    delta = L / N
    base = ForceSpec(L=L, harmonics=(Harmonic(1, 0.0, 0.5),))
    # 0.5 sin(2 pi (x - delta)) expanded in cos/sin
    shifted = ForceSpec(
        L=L,
        harmonics=(
            Harmonic(1, -0.5 * math.sin(2 * math.pi * delta / L), 0.5 * math.cos(2 * math.pi * delta / L)),
        ),
    )
    ta = compute_coefficients(RingConfig(N=N, L=L, force=base, j_max=9, scale=1.0))
    tb = compute_coefficients(RingConfig(N=N, L=L, force=shifted, j_max=9, scale=1.0))
    assert_columns_close(tb.data, np.roll(ta.data, 1, axis=0), rtol=1e-9, floor_rtol=1e-11)


def test_ode_consistency_of_low_orders(sine_force):
    # Finite differences of the integrated velocities: the first derivative
    # at t=0 is the force sample (order-1 coefficient) and the second
    # derivative vanishes (order-2 coefficient is zero), so the centered
    # second difference reduces to the order-3 term 6*h*c3 up to O(h^3).
    from coulomb_chain import integrate

    config = RingConfig(N=6, L=1.0, force=sine_force, j_max=8, scale=1.0)
    table = compute_coefficients(config)
    c3, c5 = table.data[:, 3], table.data[:, 5]
    for h in (2e-3, 1e-3):
        sol = integrate(config, 2 * h, 1e-12, 1e-14, t_eval=[0.0, h, 2 * h], max_step=h / 5)
        v0, v1, v2 = (st.v for st in sol.states)
        fd1 = (v1 - v0) / h
        np.testing.assert_allclose(fd1, table.data[:, 1], atol=4 * h**2 * np.max(np.abs(c3)))
        fd2 = (v2 - 2 * v1 + v0) / h**2
        np.testing.assert_allclose(fd2, 6 * h * c3, atol=2 * 30 * h**3 * np.max(np.abs(c5)))


def test_reflection_antisymmetry_at_order_one(sine_force):
    # F(L - x) = -F(x) makes the first-order row antisymmetric under i -> N-i.
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    c1 = compute_coefficients(config).data[:, 1]
    reflected = c1[(-np.arange(8)) % 8]
    np.testing.assert_allclose(reflected, -c1, atol=1e-15)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluation_at_zero(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=8)
    table = compute_coefficients(config)
    np.testing.assert_array_equal(evaluate_velocity(table, 0.0), np.zeros(8))
    np.testing.assert_array_equal(evaluate_position(table, config, 0.0), initial_positions(config))


def test_constant_force_evaluation():
    f0 = 0.8
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0, a0=f0), j_max=8, scale=1.0)
    table = compute_coefficients(config)
    t = 0.3
    np.testing.assert_allclose(evaluate_velocity(table, t), np.full(4, f0 * t), rtol=1e-14)
    np.testing.assert_allclose(
        evaluate_position(table, config, t),
        initial_positions(config) + 0.5 * f0 * t**2,
        rtol=1e-14,
    )


def test_position_wrapping():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0, a0=5.0), j_max=4, scale=1.0)
    table = compute_coefficients(config)
    x = evaluate_position(table, config, 1.0, wrap=True)
    assert np.all((0.0 <= x) & (x < 1.0))


def test_partial_sum_tail_identity(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=12, scale=1.0)
    table = compute_coefficients(config)
    shorter = CoefficientTable(
        N=8, L=1.0, j_max=10, scale=1.0, data=table.data[:, :11].copy()
    )
    t = 0.05
    v_long = evaluate_velocity(table, t)
    diff = np.abs(v_long - evaluate_velocity(shorter, t))
    tail = np.abs(table.data[:, 11]) * t**11 + np.abs(table.data[:, 12]) * t**12
    # identity up to Horner evaluation rounding
    slack = 16 * np.finfo(float).eps * np.max(np.abs(v_long))
    assert np.all(diff <= tail + slack)


def test_unscaled_and_log_access(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=8)
    table = compute_coefficients(config)
    ref = compute_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=8, scale=1.0))
    np.testing.assert_allclose(table.unscaled(3), ref.data[:, 3], rtol=1e-12)
    assert table.log_max_abs(3) == pytest.approx(math.log(np.max(np.abs(ref.data[:, 3]))), rel=1e-12)
    assert table.log_max_abs(2) == -math.inf
