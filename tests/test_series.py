import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from mpmath import mp, mpc, mpf

from conftest import SEED1_THREE, SEED7_THREE, SEED7_TWO, assert_columns_close
from oracles import clean_order_max, explicit_c3, lattice_profile, mp_lattice, mp_proxy_loop
from coulomb_chain import (
    CoefficientProfile,
    CoefficientTable,
    ConfigError,
    ForceSpec,
    Harmonic,
    RingConfig,
    auto_scale,
    coefficient_profiles,
    coefficient_tables,
    compute_coefficients,
    estimate_radius,
    evaluate_velocity,
    force_jet,
    initial_positions,
    series,
    table_texts,
)
from coulomb_chain.series import force_grid, oracle_coefficients, ordered_compositions


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


def band(config, j):
    """ceil(j/2) times the top harmonic index: the top mode of the exact order-j column."""
    return (j + 1) // 2 * max((h.k for h in config.force.harmonics), default=0)


def on_lattice(config):
    """Whether the engine runs ``config`` on its own N points (N <= 2 B_J), not on a proxy grid."""
    return config.N <= 2 * band(config, config.j_max)


def dense_reference(config, exponential=False):
    """Dense per-order loop of the coefficient recursion on the lattice.

    Every order j = 1..J runs, and each convolution spans all m+1 rows of
    the truncated series, exact-zero terms included.  The force term is
    composed from the powers u**k (``exponential=False``) or through
    E = exp(i w u) per harmonic, m E_m = i w sum_{k=1..m} k u_k E_{m-k},
    as sum_h p_h Re E_h + q_h Im E_h with p = a cos + b sin and
    q = b cos - a sin at the rest positions.  Each odd column from order 3
    on is projected to its modes <= ``band`` when 2 band < N.  On a ring
    that runs on its own points ``compute_coefficients`` skips the
    structural zeros and must reproduce the exponential loop
    (``engine_reference``) bit for bit.
    """
    N, J, s = config.N, config.j_max, config.scale
    delta = config.delta
    k_cap = (J - 1) // 2
    fk = force_grid(config, k_cap)
    for k in range(k_cap + 1):
        fk[k] /= math.factorial(k)
    if exponential:
        x = initial_positions(config)
        freq = [2.0 * np.pi * h.k / config.L for h in config.force.harmonics]
        turns = np.array([[h.a * np.cos(f * x) + h.b * np.sin(f * x),
                           h.b * np.cos(f * x) - h.a * np.sin(f * x)]
                          for h, f in zip(config.force.harmonics, freq)]).reshape(-1, 2, N)
        rotate = np.array([(-f, f) for f in freq]).reshape(-1, 2, 1)
        E = np.zeros((J,) + turns.shape)
        E[0, :, 0] = 1.0

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
                if exponential:
                    ku = np.arange(1, m + 1)[:, None] * u[1 : m + 1]
                    E[m] = (ku[:, None, None] * E[m - 1 :: -1]).sum(axis=0)[:, ::-1] * (rotate / m)
                elif k_cap >= 1:
                    pow_u[1, m] = u[m]
                    for k in range(2, k_cap + 1):
                        pow_u[k, m] = (u[: m + 1] * pow_u[k - 1, m::-1]).sum(axis=0)

            interaction = np.roll(w[m], 1) - w[m]
            if m == 0:
                composed = fk[0]
            elif exponential:
                composed = np.einsum("hcn,hcn->n", turns, E[m])
            elif k_cap >= 1:
                composed = np.einsum("kn,kn->n", fk[1:], pow_u[1:, m])
            else:
                composed = 0.0
            c[j] = (s / j) * (interaction + composed)
            if j >= 3 and j % 2 and 2 * band(config, j) < N:
                spectrum = np.fft.rfft(c[j])
                spectrum[band(config, j) + 1 :] = 0.0
                c[j] = np.fft.irfft(spectrum, n=N)

    return CoefficientTable(L=config.L, scale=s, data=np.ascontiguousarray(c.T))


def engine_reference(config):
    """The dense loop of the composition the engine takes."""
    return dense_reference(config, exponential=True)


#: Column-relative tolerance, in units of eps, between the two compositions
#: on a ring's own points, sized over the dense-reference grid of
#: ``test_matches_dense_reference``, where the worst is 2.3 eps (7.7 eps with
#: the seed-7 three-harmonic force at N = 2, J = 47).  It does not hold where
#: orders run unprojected on more points: the mixed force at N = 20, J = 24
#: reads 1464 eps at order 19, the two roundings amplified by the cascade.
COMPOSITIONS_EPS = 8

#: Column-relative tolerance between a proxy-grid table and the dense loop
#: on the lattice: the two grids round differently, and the noise inside the
#: band grows with the order on both (3.6e-8 at N = 64, J = 47 for the sine
#: force, where each side lies within 1.6e-8 of the 50-digit recursion).
PROXY_RTOL = 1e-6


def assert_compositions_agree(config, table):
    """The table lies within ``COMPOSITIONS_EPS`` eps, column-relative, of the
    u**k recursion's table."""
    powers = dense_reference(config).data
    bound = COMPOSITIONS_EPS * np.finfo(float).eps * np.abs(powers).max(axis=0)
    excess = np.abs(table.data - powers) - bound
    assert not (excess > 0).any(), f"{config}: orders {np.unique(np.nonzero(excess > 0)[1])}"


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
    # A packed ring (N = 2 B_J) keeps the force sample bit for bit; a proxy
    # ring sums it over its band (test_order_one_of_a_proxy_ring_is_its_force_sample).
    config = RingConfig(N=6, L=1.0, force=sine_force, j_max=6)
    assert on_lattice(config)
    table = compute_coefficients(config)
    expected = config.scale * force_grid(config, 0)[0]
    np.testing.assert_array_equal(table.data[:, 1], expected)
    np.testing.assert_array_equal(table.data[:, 2], np.zeros(6))


def test_even_orders_vanish(sine_force):
    # From rest on the uniform lattice the velocities are odd in time.  The
    # engine only computes odd orders and relies on this for every force, so
    # it is checked on the two independent oracles, including a force with
    # nonzero mean and several harmonics.
    mixed = ForceSpec(L=1.0, a0=0.2, harmonics=(Harmonic(1, 0.1, 0.3), Harmonic(2, -0.05, 0.02)))
    for force in (sine_force, mixed):
        config = RingConfig(N=8, L=1.0, force=force, j_max=9, scale=1.0)
        slow = oracle_coefficients(config)
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
    with pytest.raises(ConfigError, match="^N: "):
        RingConfig(N=np.bool_(True), L=1.0, force=sine_force, j_max=4)
    with pytest.raises(ConfigError, match="^N: "):
        RingConfig(N=np.float64(8.0), L=1.0, force=sine_force, j_max=4)
    # numpy scalars are numbers too, stored as Python int and float, so the
    # table and its artifacts are those of the plain values
    numpy_config = RingConfig(N=np.int64(8), L=np.float32(1.0), force=sine_force,
                              j_max=np.int32(9), scale=np.float32(0.5))
    values = (numpy_config.N, numpy_config.L, numpy_config.j_max, numpy_config.scale)
    assert values == (8, 1.0, 9, 0.5)
    assert [type(v) for v in values] == [int, float, int, float]
    table = compute_coefficients(numpy_config)
    plain = compute_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=9, scale=0.5))
    assert table_texts(table, sine_force, ["csv"]) == table_texts(plain, sine_force, ["csv"])


def test_matches_dense_reference(sine_force):
    # On a ring's own points, skipping the structurally zero orders and
    # convolution terms must not change a single bit, signed zeros included,
    # and the table lies within a few eps of the u**k loop.  A ring on a
    # proxy grid runs the same recursion on other points.
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
                    assert_same_bits(config)
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=24, scale=1e40)
    assert on_lattice(config)
    with pytest.raises(OverflowError) as dense_error:
        engine_reference(config)
    for engine in (compute_coefficients, one_profile):
        with pytest.raises(OverflowError, match=f"^{re.escape(str(dense_error.value))}$"):
            engine(config)


def one_profile(config):
    """The one-ring case of ``coefficient_profiles``."""
    (profile,) = coefficient_profiles([config])
    return profile


def assert_profile_of(config, table):
    """``coefficient_profiles`` gives the table's magnitude profile bit for bit."""
    profile = one_profile(config)
    assert type(profile) is CoefficientProfile
    assert (profile.N, profile.L, profile.scale, profile.j_max) == (
        table.N, table.L, table.scale, table.j_max)
    assert np.array_equal(profile.max_abs, table.max_abs), str(config)
    assert np.array_equal(np.signbit(profile.max_abs), np.signbit(table.max_abs)), str(config)


def assert_same_bits(config):
    table = compute_coefficients(config)
    assert_matches_reference(config, table)
    assert_profile_of(config, table)


def assert_matches_reference(config, table):
    """On its own points, the table is the dense loop's bit for bit and near the u**k one;
    on a proxy grid it lies within ``PROXY_RTOL`` of the dense loop."""
    dense = engine_reference(config).data
    if on_lattice(config):
        np.testing.assert_array_equal(
            table.data.view(np.uint64), dense.view(np.uint64), err_msg=str(config))
        assert_compositions_agree(config, table)
    else:
        top = np.maximum(np.abs(dense).max(axis=0), series.TINY)
        error = np.abs(table.data - dense).max(axis=0) / top
        assert (error <= PROXY_RTOL).all(), f"{config}: column errors {error}"


MIXED = ForceSpec(L=1.0, a0=0.2, harmonics=(Harmonic(1, 0.1, 0.3), Harmonic(3, -0.05, 0.02)))


CONSTANT = ForceSpec(L=1.0, a0=-0.3)


@pytest.mark.parametrize("force, n, j_max", [
    ("seed-7", 64, 21),  # a proxy grid of N points, where projection is the whole fix
    ("seed-7", 256, 13),  # a proxy grid of 32 points
    ("sine", 64, 24),  # a proxy grid of 32 points
    ("seed-1", 64, 24),  # the ring's own points, projected up to order 19
])
def test_every_order_matches_the_multiple_precision_recursion(force, n, j_max, sine_force):
    # Without the projections the amplified out-of-band noise took over at
    # orders 10, 6, 8 and 12 here.
    force = {"seed-7": SEED7_TWO, "sine": sine_force, "seed-1": SEED1_THREE}[force]
    config = RingConfig(N=n, L=1.0, force=force, j_max=j_max)
    clean, worst = clean_order_max(compute_coefficients(config), config)
    assert clean == j_max, f"clean up to order {clean}, worst column error {worst:.2e}"
    assert worst <= 1e-9


@pytest.mark.parametrize("n, bound", [(64, 1e-9), (4096, 2e-6)])
def test_deep_proxy_rings_match_the_mp_proxy_loop(sine_force, rng, n, bound):
    # The sine force at J = 41 runs on P = 64 points, with N == P and N > P.
    # The 40-digit lattice recursion cannot check it: its unprojected noise
    # reads column errors of 1.0 from order 31 at N = 256.  Against the
    # 60-digit proxy loop the worst column error read 3.0e-10 at N = 64 and
    # 6.1e-7 at N = 4096, both at order 41: every point of the small ring,
    # 150 sampled points and each column's argmax and argmin of the large
    # one.  The profiles then agree to the same bound, and so do the radii.
    config = RingConfig(N=n, L=1.0, force=sine_force, j_max=41)
    P, spectra = mp_proxy_loop(config)
    assert P == 64
    table = compute_coefficients(config)
    columns = table.data[:, 1::2].T
    points = (range(n) if n <= 64 else np.unique(np.r_[
        rng.choice(n, 150, replace=False), columns.argmax(axis=1), columns.argmin(axis=1)]))
    with mp.workdps(60):
        for k, exact in enumerate(mp_lattice(spectra, n, P, points)):
            top = max(abs(v) for v in exact)
            error = max(abs(columns[k, i] - v) for i, v in zip(points, exact)) / top
            assert error <= bound, (2 * k + 1, error)
    profile = lattice_profile(config, P, spectra)
    np.testing.assert_allclose(table.max_abs, profile.max_abs, rtol=bound, atol=0.0)
    assert estimate_radius(table).r_hat == pytest.approx(estimate_radius(profile).r_hat, rel=bound)


def assert_grid_matches_one_ring_walks(rings):
    """The grid walk gives every ring's table and profile of its own walk, bit for bit.

    Each ring's own walk on its own points is also the dense loop's bit for bit.
    """
    tables = list(coefficient_tables(rings))
    profiles = coefficient_profiles(rings)
    assert [t.N for t in tables] == [p.N for p in profiles] == [r.N for r in rings]
    for ring, table, profile in zip(rings, tables, profiles):
        alone = compute_coefficients(ring)
        if on_lattice(ring):
            np.testing.assert_array_equal(alone.data.view(np.uint64),
                                          engine_reference(ring).data.view(np.uint64), str(ring))
        assert (table.L, table.scale, profile.L, profile.scale) == (ring.L, ring.scale) * 2
        np.testing.assert_array_equal(
            table.data.view(np.uint64), alone.data.view(np.uint64), err_msg=str(ring))
        for got in (table, profile):
            np.testing.assert_array_equal(
                got.max_abs.view(np.uint64), alone.max_abs.view(np.uint64), err_msg=str(ring))
            assert np.array_equal(np.signbit(got.max_abs), np.signbit(alone.max_abs)), str(ring)


# Grids whose rings, with each force and j_max below, fall on both sides of
# N = 2 B_J, so that rings on their own points and proxy rings (with P below,
# equal to and above N, and N = 20011 not a power of two) share one loop.
# The ids name the slab layouts the grids were first written for.
PACKINGS = {
    "one-slab": (2, 3, 8, 64, 5),
    "slab-8": (3, 4, 2, 8, 5, 3, 20),
    "slab-3": (2, 5, 3, 2, 2, 9),
    "packed-then-split": (3, 8, 100, 20011),
}


@pytest.mark.parametrize("j_max", [1, 2, 3, 9, 24])
@pytest.mark.parametrize("force", ["sine", "mixed", "constant"])
@pytest.mark.parametrize("packing", sorted(PACKINGS))
def test_grid_walk_matches_one_ring_walks(sine_force, packing, force, j_max):
    grid = PACKINGS[packing]
    force = {"sine": sine_force, "mixed": MIXED, "constant": CONSTANT}[force]
    for scale in ({}, {"scale": 1.0}):
        assert_grid_matches_one_ring_walks(
            [RingConfig(N=n, L=1.0, force=force, j_max=j_max, **scale) for n in grid])


def test_overflow_in_the_middle_of_a_packed_slab(sine_force):
    # The first three rings are packed side by side, the last runs on a
    # proxy grid; the second one overflows.
    rings = [RingConfig(N=8, L=1.0, force=sine_force, j_max=24),
             RingConfig(N=16, L=1.0, force=sine_force, j_max=24, scale=1e40),
             RingConfig(N=4, L=1.0, force=sine_force, j_max=24),
             RingConfig(N=64, L=1.0, force=sine_force, j_max=24)]
    with pytest.raises(OverflowError) as dense_error:
        engine_reference(rings[1])
    message = f"^{re.escape(str(dense_error.value))}$"
    tables = coefficient_tables(rings)
    first = next(tables)
    np.testing.assert_array_equal(
        first.data.view(np.uint64), compute_coefficients(rings[0]).data.view(np.uint64))
    with pytest.raises(OverflowError, match=message):
        next(tables)
    with pytest.raises(OverflowError, match=message):
        coefficient_profiles(rings)
    # The overflowing ring's inf and nan do not reach the other rings' columns.
    for ring, columns in series._odd_columns(rings):
        if ring is not rings[1]:
            alone = compute_coefficients(ring).data.T
            np.testing.assert_array_equal(
                np.array(list(columns)).view(np.uint64), alone[1::2].view(np.uint64))


@pytest.mark.parametrize("n", [21, 22, 256, 2**14, 2**18, 20011])
def test_lattice_values_match_a_40_digit_sum_of_their_spectrum(monkeypatch, rng, n):
    # A proxy ring's lattice values sum each odd column's P-point spectrum
    # (P = 32 here) over its band B_j = 2, 4, .., 10, below N/2.  Each value
    # lies within 8 ulps of the column max of the 40-digit sum: at every
    # point of a small ring, at 150 sampled points and each column's argmax
    # and argmin of a large one.
    seen = []
    lattice = series._lattice

    def spy(spectra, bands, N, P):
        spectra = [spectrum.copy() for spectrum in spectra]
        seen.append((spectra, bands, N, P))
        return lattice(spectra, bands, N, P)

    monkeypatch.setattr(series, "_lattice", spy)
    table = compute_coefficients(RingConfig(N=n, L=1.0, force=SEED7_TWO, j_max=9))
    ((spectra, bands, N, P),) = seen
    assert (N, P, len(spectra), list(bands)) == (n, 32, 5, [2, 4, 6, 8, 10])
    with mp.workdps(40):
        for k, spectrum in enumerate(spectra):
            column = table.data[:, 2 * k + 1]
            modes = [mpc(complex(x)) * (1 if m == 0 else 2) / P
                     for m, x in enumerate(spectrum[: bands[k] + 1])]
            points = (range(N) if N <= 256 else np.unique(np.r_[
                rng.choice(N, 150, replace=False), column.argmax(), column.argmin()]))
            ulp = np.spacing(np.abs(column).max())
            for i in points:
                exact = sum(mp.re(x * mp.expjpi(mpf(2 * m * int(i)) / N))
                            for m, x in enumerate(modes))
                assert abs(column[i] - exact) <= 8 * ulp, (k, i)


@pytest.mark.parametrize("force, j_max, n", [
    *((force, j_max, n) for force, j_max in (("sine", 9), ("seed-7-two", 9), ("seed-7-three", 13))
      for n in (100, 1000, 4096)),
    ("sine", 9, 16), ("seed-7-two", 9, 32), ("seed-7-three", 13, 64),  # N == P
])
def test_order_one_of_a_proxy_ring_is_its_force_sample(sine_force, rng, force, j_max, n):
    # A proxy ring sums order 1 over its band B_1 = K_max, as it does every
    # order, whether or not N == P; the modes above it hold rounding noise
    # only.  Its values lie within 6e-16 of the column max of the 40-digit
    # sample scale F(i L/N): at every point for N <= 1000, at 150 sampled
    # points and the column's argmax and argmin for N = 4096.
    force = {"sine": sine_force, "seed-7-two": SEED7_TWO, "seed-7-three": SEED7_THREE}[force]
    config = RingConfig(N=n, L=1.0, force=force, j_max=j_max)
    assert not on_lattice(config)
    column = compute_coefficients(config).data[:, 1]
    points = (range(n) if n <= 1000 else np.unique(np.r_[
        rng.choice(n, 150, replace=False), column.argmax(), column.argmin()]))
    with mp.workdps(40):
        theta = [2 * mp.pi * int(i) / n for i in points]  # 2 pi x_i / L
        sample = [mpf(config.scale) * (force.a0 + sum(
            h.a * mp.cos(h.k * t) + h.b * mp.sin(h.k * t) for h in force.harmonics)) for t in theta]
        top = max(abs(f) for f in sample)
        error = max(abs(column[i] - f) for i, f in zip(points, sample)) / top
    assert error <= 6e-16


def test_tables_do_not_depend_on_the_blas_thread_count():
    # The lattice evaluation multiplies matrices through BLAS; one and two
    # threads must give the same bytes.
    script = ("import hashlib; "
              "from coulomb_chain import ForceSpec, RingConfig, coefficient_tables; "
              "force = ForceSpec.from_json(%r); digest = hashlib.sha256(); "
              "[digest.update(t.data.tobytes()) for t in coefficient_tables("
              "RingConfig(N=n, L=1.0, force=force, j_max=9) for n in (22, 256, 20011))]; "
              "print(digest.hexdigest())" % SEED7_TWO.to_json())
    env = dict(os.environ)
    src = str(Path(series.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                              timeout=300).stdout for threads in ("1", "2")}
    assert len(digests) == 1, digests


def test_overflow_on_a_proxy_ring_off_the_powers_of_two(sine_force):
    # N = 1000 runs on a 32-point proxy grid; its lattice columns overflow
    # first at order 15, and profiles stop where tables do.
    ring = RingConfig(N=1000, L=1.0, force=sine_force, j_max=24, scale=1e20)
    message = r"^coefficient overflow at order 15: rescale 1e\+20 too large for N=1000, j_max=24$"
    with pytest.raises(OverflowError, match=message):
        compute_coefficients(ring)
    with pytest.raises(OverflowError, match=message):
        one_profile(ring)


def test_deep_grid_takes_one_force_jet(monkeypatch):
    # The deep-truncation grid N = 16..128 is packed on its own points: one
    # jet, not four, whose trig pass also hands out each harmonic's (p, q)
    # rows.
    calls = []

    def counted(spec, x, k_max, **kwargs):
        calls.append((np.size(x), kwargs.get("turns") is not None))
        return force_jet(spec, x, k_max, **kwargs)

    monkeypatch.setattr(series, "force_jet", counted)
    rings = [RingConfig(N=n, L=1.0, force=SEED7_THREE, j_max=96) for n in (16, 32, 64, 128)]
    coefficient_profiles(rings)
    assert calls == [(240, True)]
    list(coefficient_tables(rings))
    assert calls == [(240, True)] * 2


def test_exponential_table_matches_enumeration_oracle(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=24, scale=1.0)
    fast = compute_coefficients(config)
    slow = oracle_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=9, scale=1.0))
    assert_columns_close(fast.data[:, :10], slow.data, rtol=1e-10)


def test_deep_profile_peak_memory():
    # The loop holds O(K J) rows of the proxy grid's 512 points, not of N,
    # and one column of N values at a time.
    config = RingConfig(N=4096, L=1.0, force=SEED7_THREE, j_max=96)
    tracemalloc.start()
    try:
        one_profile(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_deep_grid_workspace_holds_one_displacement_row_per_order():
    # On the deep-truncation grid (W = 240 packed columns, 48 rows, K = 3)
    # the loop holds (2K+4) rows of W per order: cols, gap, recip, one
    # r * u_r row per order, and E per (harmonic, part); 2K copies of r * u_r
    # would take 2K-1 more.  The bound adds one row per order for the jet,
    # the (p, q) rows, the composition's (K, 2, W) sum and the one-row
    # arrays, and nothing for a product array or a ufunc buffer: each
    # convolution is one einsum over forward slices, which forms neither.
    # A first call fills numpy's FFT caches.
    rings = [RingConfig(N=n, L=1.0, force=SEED1_THREE, j_max=96) for n in (16, 32, 64, 128)]
    rows, width, K = 48, 240, len(SEED1_THREE.harmonics)
    coefficient_profiles(rings)
    tracemalloc.start()
    try:
        coefficient_profiles(rings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * K + 5) * rows * width * 8


@pytest.mark.parametrize("force", [SEED1_THREE, SEED7_THREE], ids=["seed-1", "seed-7"])
def test_deep_grid_matches_dense_reference(force):
    # The deep-truncation grid is packed on its own points at J_max = 96,
    # where each convolution sums up to 48 rows: its tables and profiles
    # are the dense loop's bit for bit, signed zeros included.
    rings = [RingConfig(N=n, L=1.0, force=force, j_max=96) for n in (16, 32, 64, 128)]
    assert all(on_lattice(ring) for ring in rings)
    for ring, table, profile in zip(rings, coefficient_tables(rings), coefficient_profiles(rings)):
        dense = engine_reference(ring)
        np.testing.assert_array_equal(
            table.data.view(np.uint64), dense.data.view(np.uint64), err_msg=str(ring))
        np.testing.assert_array_equal(
            profile.max_abs.view(np.uint64), dense.max_abs.view(np.uint64), err_msg=str(ring))


def test_einsum_rounds_like_multiply_then_add_reduce(rng):
    # The engine's bits rest on each einsum of its loop adding its rounded
    # products in ascending row order, as np.multiply followed by
    # np.add.reduce(axis=0) does.  A numpy build whose einsum fuses the
    # multiply and the add (an FMA kernel) rounds once per term instead.
    width, K = 240, 3
    cause = ("np.einsum does not round like np.multiply then np.add.reduce on this numpy "
             "build (a fused multiply-add?), so the coefficient tables are not the dense "
             "reference's bits")
    for r in (1, 2, 3, 17, 48):
        a, b = rng.standard_normal((2, r, width)) * 10.0 ** rng.uniform(-3, 3, (2, r, width))
        E = rng.standard_normal((r, K, 2, width))
        contractions = [
            (np.einsum("kn,kn->n", a, b), a * b),  # the reciprocal
            (np.einsum("kn,kn->n", a[::-1], b), a[::-1] * b),  # the square
            (np.einsum("rn,rhcn->hcn", a, E), a[:, None, None] * E),  # the composition
        ]
        for got, products in contractions:
            expected = np.add.reduce(products, axis=0)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), f"r = {r}: {cause}"


def test_grid_rings_share_force_and_depth(sine_force):
    ring = RingConfig(N=8, L=1.0, force=sine_force, j_max=9)
    assert coefficient_profiles([]) == [] and list(coefficient_tables([])) == []
    for other in (RingConfig(N=4, L=1.0, force=MIXED, j_max=9),
                  RingConfig(N=4, L=1.0, force=sine_force, j_max=8)):
        with pytest.raises(ConfigError, match="share force and j_max"):
            coefficient_profiles([ring, other])


@pytest.mark.parametrize("j_max", [9, 24])
def test_engine_peak_memory_is_a_small_multiple_of_the_table(j_max):
    # The series rows of the proxy grid and one column's lattice values are live
    # besides the table.
    config = RingConfig(N=2**17, L=1.0, force=SEED7_TWO, j_max=j_max)
    tracemalloc.start()
    try:
        table = compute_coefficients(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.data.nbytes


def test_profile_peak_memory_is_one_column_not_the_table():
    # One column's lattice values are live at a time and no table is kept: the
    # table of N = 2**18 at j_max = 9 would take 20 MiB.
    n = 2**18
    config = RingConfig(N=n, L=1.0, force=SEED7_TWO, j_max=9)
    tracemalloc.start()
    try:
        one_profile(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n


def test_magnitude_profile_takes_no_copy_of_the_table():
    # the engine's layout: the transpose of an order-major array
    data = np.random.default_rng(3).standard_normal((10, 2**17)).T
    tracemalloc.start()
    try:
        CoefficientTable(L=1.0, scale=1.0, data=data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * data.nbytes


def reference_csv(table):
    """Per-entry f-string CSV; ``table_texts`` must reproduce it byte for byte."""
    lines = ["i,j,c_scaled,scale,N,L,J_max"]
    tail = f",{table.scale:.17g},{table.N},{table.L:.17g},{table.j_max}"
    for i, row in enumerate(table.data[:, 1:].tolist()):
        lines.extend(f"{i},{j},{v:.17g}{tail}" for j, v in enumerate(row, start=1))
    return "\n".join(lines) + "\n"


def reference_json(table, force):
    """The stdlib encoder on the payload dict; ``table_texts`` must reproduce it byte for byte."""
    payload = {
        "config": {"N": table.N, "L": table.L, "J_max": table.j_max, "force": force.to_json()},
        "scale": table.scale,
        "coefficients": [float(v) for v in table.data[:, 1:].ravel(order="C")],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def assert_writers_match_references(table):
    """``table_texts`` with both formats and each alone gives the references."""
    texts = {"csv": reference_csv(table), "json": reference_json(table, SEED7_TWO)}
    assert table_texts(table, SEED7_TWO, ["csv", "json"]) == texts
    for fmt in texts:
        assert table_texts(table, SEED7_TWO, [fmt]) == {fmt: texts[fmt]}


# sha256 of the ``table_texts`` CSV and JSON for the seed-7 two-harmonic
# force, scale "auto".  The determinism tests compare two runs of the same
# code; these pins catch a change of any bit.  They hold for one numpy build
# and CPU family (the trig functions are not correctly rounded): on another
# platform, check the tables against the oracles and re-pin.  The JSON pins
# were taken from the stdlib encoder (``reference_json``).
PINNED_CSV = {
    (8, 9): "246684a061fd362e4d6ff6ec5e75d27a3b782e9d12cdaa3e829d206c56a73074",
    (8, 24): "7f75f6c851682440ebe7eda30b0d54f0d280ee4d2f63baf5f9bf4b9e4da683d9",
    (64, 9): "f774ae66719cc4ff9bba8ee387a4bc883677aa628d13ee7b050d68dbe522a317",
    (64, 24): "ca964cef33c774f26b1834efc58e8d87d9648619975a75e41500b19282838ef7",
    (256, 9): "97c5622b52b74672aeb4b1148fa5cd65f02e45a7f1d2bab5f65e562ef2cfb1e7",
    (256, 24): "88ffd0badb78c1f328cbfcc2acda546de84ece01822e3120c89c7acf72ad9097",
}
PINNED_JSON = {
    (8, 9): "b1ace59ea42b6b80be262cced4ea8462908665e8642506488e265f1735c46b1e",
    (8, 24): "0864670010aada075fddbe9efb234ca7b57fbc31c17fcddd888367796db2592c",
    (64, 9): "1c6efaaf02b2a2eb0911889052faeaae2521c5ee92d3bf81ea8f411b17689fc5",
    (64, 24): "a6225e986eada8414511636403710a48b714493ccb3828b0b72a140555973a65",
    (256, 9): "499edf534aa8775824c1ae9a0f40e94b34e4a9398bd7e00434802c8971a8f115",
    (256, 24): "f61dbf6c693bc357a3af0c58a9ad622e25d0459c20902562ac48b93e5bef8e13",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, j_max", sorted(PINNED_CSV))
def test_table_bytes_are_pinned(n, j_max):
    table = compute_coefficients(RingConfig(N=n, L=1.0, force=SEED7_TWO, j_max=j_max))
    texts = table_texts(table, SEED7_TWO, ["csv", "json"])
    assert sha256(texts["csv"]) == PINNED_CSV[n, j_max]
    assert sha256(texts["json"]) == PINNED_JSON[n, j_max]


EDGE_VALUES = [-0.0, 5e-324, 1e-5, 2.0, 1e16, 1e22, -1.7976931348623157e308, 3.3e-05, 1e18]


@pytest.mark.parametrize("j_max", [1, 3, 9])
def test_writers_match_reference_renderers_on_edge_values(j_max):
    # The edge values fill the table in turn; scale and L print in exponent form.
    n = -(-len(EDGE_VALUES) // j_max)
    data = np.zeros((n, j_max + 1))
    data[:, 1:] = np.resize(EDGE_VALUES, (n, j_max))
    table = CoefficientTable(L=1.5e20, scale=2.5e-7, data=data)
    assert_writers_match_references(table)


def test_writers_match_reference_renderers_on_random_bits(rng):
    bits = rng.integers(0, 2**64, size=(64, 9), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.0
    data = np.hstack([np.zeros((64, 1)), values])
    # row-major, and the transposed order-major layout the engine hands over
    for layout in (data, np.ascontiguousarray(data.T).T):
        table = CoefficientTable(L=3.0e-9, scale=1e-100, data=layout)
        assert_writers_match_references(table)


@pytest.mark.parametrize("even_entry, written", [
    (None, None), (0.0, "before"), (-0.0, "before"), (-0.0, "after"), (2.5, "before"), (2.5, "after"),
])
def test_writers_match_reference_renderers_on_zero_columns(even_entry, written):
    # The writers print a column of +0.0 only as a literal zero: every column
    # of a zero table, and the even columns of an engine table.  A -0.0 or a
    # nonzero value in an even column, also one written after construction,
    # which ``max_abs`` does not see, must still print as its float.
    data = np.zeros((4, 7))
    if even_entry is not None:
        data[:, 1::2] = [[0.5, -1e-300, 7.0]] * 4
    if written == "before":
        data[2, 4] = even_entry
    table = CoefficientTable(L=1.0, scale=0.25, data=data)
    if written == "after":
        table.data[2, 4] = even_entry
    assert_writers_match_references(table)


def test_table_texts_of_a_constant_force_table():
    # Only order 1 is live, and its equal values have equal texts in both
    # formats, so the repr side lays out no row again.
    force = ForceSpec(L=1.0, a0=2.0, harmonics=())
    table = compute_coefficients(RingConfig(N=8, L=1.0, force=force, j_max=12))
    assert not table.data[:, 2:].any()
    assert_writers_match_references(table)
    with pytest.raises(ValueError, match="xml"):
        table_texts(table, SEED7_TWO, ["csv", "xml"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_json_rejects_values_set_after_construction(bad):
    table = CoefficientTable(L=1.0, scale=0.5, data=np.zeros((4, 4)))
    table.data[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        table_texts(table, SEED7_TWO, ["json"])
    # the CSV writes inf and nan
    assert table_texts(table, SEED7_TWO, ["csv"]) == {"csv": reference_csv(table)}


def test_max_abs_is_the_column_max_of_magnitudes():
    # Negatives, signed zeros and subnormals: the profile equals the per-column
    # max of |c| bit for bit, so every log read from it is unchanged.
    data = np.array([
        [0.0, -3.0, -0.0, 5e-324, 1e300, -2.2250738585072014e-308],
        [-0.0, 2.0, -0.0, -1e-310, -2e300, 1e-320],
        [0.0, -1.5, 0.0, 0.0, 7.0, -0.0],
    ])
    expected = np.array([np.max(np.abs(data[:, j])) for j in range(data.shape[1])])
    # row-major, and the transposed order-major layout the engine hands over
    for layout in (data, np.ascontiguousarray(data.T).T):
        table = CoefficientTable(L=1.0, scale=0.5, data=layout)
        assert table.max_abs.tobytes() == expected.tobytes()
        assert table.log_max_abs(2) == -math.inf
        assert table.log_max_abs(3) == math.log(1e-310) - 3 * math.log(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_a_later_row_names_its_order(bad):
    data = np.ones((5, 7))
    data[4, 3] = bad
    data[1, 5] = bad
    with pytest.raises(OverflowError, match="at order 3:"):
        CoefficientTable(L=1.0, scale=1.0, data=data)


@pytest.mark.parametrize("shape", [(1, 2), (7, 4), (3, 10)])
def test_table_dimensions_follow_the_data(shape):
    table = CoefficientTable(L=1.0, scale=1.0, data=np.zeros(shape))
    assert (table.N, table.j_max) == (shape[0], shape[1] - 1)


@pytest.mark.parametrize("shape", [(4,), (0, 3), (4, 1), (2, 2, 2)])
def test_table_rejects_data_without_particles_or_orders(shape):
    with pytest.raises(ConfigError, match="shape"):
        CoefficientTable(L=1.0, scale=1.0, data=np.zeros(shape))


def test_overflow_raises(sine_force):
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=24, scale=1e40)
    with pytest.raises(OverflowError):
        compute_coefficients(config)
    config = RingConfig(N=16, L=1.0, force=sine_force, j_max=9, scale=1e40)
    with pytest.raises(OverflowError, match="^coefficient overflow at order 9: "):
        oracle_coefficients(config)


@pytest.mark.parametrize("x, expected", [
    (0.0, 1.0), (0.75, 1.0), (1.0, 2.0), (3.0, 4.0), (5e-324, 2.0**-1073),
    (2.0**1022, 2.0**1023), (2.0**1023, 2.0**1023), (1e308, 2.0**1023),
    (np.finfo(float).max, 2.0**1023),
])
def test_power_of_two_clamps_at_the_top_of_double_range(x, expected):
    assert series._power_of_two(x) == expected


def test_oracle_rescales_an_overflowing_gap_product():
    # The sine ring above overflows on both sides of order 9.  On a long ring
    # delta**(-2-m) is tiny, so here only the raw gap product of (1, 1, 1, 1)
    # leaves double range while every term of order 9 is finite; the oracle
    # keeps each gap row divided by a power of two and folds the exponents
    # back into the term, so it stays finite and agrees with the engine.
    force = ForceSpec(L=1e15, harmonics=(Harmonic(1, 0.0, 0.5),))
    s = 1e40
    c = oracle_coefficients(RingConfig(N=8, L=1e15, force=force, j_max=8, scale=s)).data.T
    with np.errstate(over="ignore"):
        gap = s * np.diff(c, append=c[:, :1], axis=1) / np.arange(1, 10)[:, None]
        overflowing = [tup for m in range(1, 5) for tup in ordered_compositions(8 - m, m)
                       if not np.isfinite(np.prod(gap[list(tup)], axis=0)).all()]
    assert overflowing == [(1, 1, 1, 1)]
    config = RingConfig(N=8, L=1e15, force=force, j_max=9, scale=s)
    oracle, engine = oracle_coefficients(config).data, compute_coefficients(config).data
    assert np.isfinite(oracle).all()
    # column by column, relative to the column's largest entry
    assert (np.abs(oracle - engine).max(axis=0) <= 1e-10 * np.abs(engine).max(axis=0)).all()


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
        slow = oracle_coefficients(config)
        assert_columns_close(fast.data, slow.data, rtol=1e-10)


@pytest.mark.parametrize("j_max", [3, 4, 9])
def test_enumeration_oracle_differences_each_order_once(monkeypatch, sine_force, j_max):
    # Orders 1..j_max-2 are read by a later order; each is differenced once.
    calls = []
    diff = np.diff

    def counted(*args, **kwargs):
        calls.append(1)
        return diff(*args, **kwargs)

    monkeypatch.setattr(np, "diff", counted)
    oracle_coefficients(RingConfig(N=5, L=1.0, force=sine_force, j_max=j_max))
    assert len(calls) == j_max - 2


# sha256 of the oracle's table bytes for the seed-7 three-harmonic force at
# j_max = 9, scale "auto", on the cross-check rings (3, 4, 8) and (4, 5, 8).
# Like the table pins above they hold for one numpy build and CPU family.
PINNED_ORACLE = {
    3: "6137ec3772a731310e03444b4b6167df3cf58f481a31ed087e1a4ae29236dd57",
    4: "a72be4ab346beb41a2e73893fa7de69a55fe6d022c125e06fdfa04d0f65385b3",
    5: "0179ef0b9a5035bc9d9f523b8519835c379da268324e462ba55af5bbcda4d665",
    8: "2a0e3d3605610783fd4f2ed469d3c898d2f02aa2195f255bee25a77e55b6ab62",
}


@pytest.mark.parametrize("n", sorted(PINNED_ORACLE))
def test_enumeration_oracle_bytes_are_pinned(n):
    table = oracle_coefficients(RingConfig(N=n, L=1.0, force=SEED7_THREE, j_max=9))
    assert hashlib.sha256(table.data.tobytes()).hexdigest() == PINNED_ORACLE[n]


def test_enumeration_oracle_zero_force():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0), j_max=9, scale=1.0)
    assert np.max(np.abs(oracle_coefficients(config).data)) == 0.0


def test_enumeration_oracle_cap():
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0), j_max=10, scale=1.0)
    with pytest.raises(ConfigError):
        oracle_coefficients(config)


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
        sol = integrate(config, 2 * h, 1e-12, 1e-14, t_eval=np.linspace(0.0, 2 * h, 11))
        v0, v1, v2 = (sol.states[i].v for i in (0, 5, 10))
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


def test_constant_force_evaluation():
    f0 = 0.8
    config = RingConfig(N=4, L=1.0, force=ForceSpec(L=1.0, a0=f0), j_max=8, scale=1.0)
    table = compute_coefficients(config)
    t = 0.3
    np.testing.assert_allclose(evaluate_velocity(table, t), np.full(4, f0 * t), rtol=1e-14)


def test_partial_sum_tail_identity(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=12, scale=1.0)
    table = compute_coefficients(config)
    shorter = CoefficientTable(L=1.0, scale=1.0, data=table.data[:, :11].copy())
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
    # The entries at the zeros of the force are rounding noise: an absolute floor.
    expected = ref.data[:, 3] * table.scale**3
    np.testing.assert_allclose(table.data[:, 3], expected, rtol=1e-12,
                               atol=1e-15 * np.abs(expected).max())
    assert table.log_max_abs(3) == pytest.approx(math.log(np.max(np.abs(ref.data[:, 3]))), rel=1e-12)
    assert table.log_max_abs(2) == -math.inf
