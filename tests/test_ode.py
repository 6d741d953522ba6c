import numpy as np
import pytest

from coulomb_chain import (
    CollisionError,
    ConfigError,
    ForceSpec,
    Harmonic,
    RingConfig,
    TrajectoryState,
    compute_coefficients,
    energy,
    evaluate_velocity,
    integrate,
    ode,
)
from coulomb_chain.cli import parse_config
from conftest import SEED7_TWO
from oracles import acceleration, initial_state, with_left_acceleration


def make_config(N=8, force=None, j_max=4):
    force = force or ForceSpec(L=1.0)
    return RingConfig(N=N, L=1.0, force=force, j_max=j_max, scale=1.0)


def test_uniform_rest_is_a_fixed_point():
    config = make_config()
    np.testing.assert_allclose(acceleration(config, initial_state(config)), np.zeros(8), atol=1e-9)


def test_constant_force_accelerates_uniformly():
    config = make_config(force=ForceSpec(L=1.0, a0=0.7))
    np.testing.assert_allclose(
        acceleration(config, initial_state(config)), np.full(8, 0.7), rtol=1e-12
    )


def test_two_particle_hand_values():
    config = make_config(N=2)
    state = TrajectoryState(t=0.0, x=np.array([0.0, 0.4]), v=np.zeros(2))
    a = acceleration(config, state)
    expected = 0.6**-2 - 0.4**-2
    np.testing.assert_allclose(a, [expected, -expected], rtol=1e-13)
    assert a[0] == pytest.approx(-3.47222, rel=1e-5)


def test_collision_guard():
    # A gap at the floor is not physical: the kernel marks the whole row NaN,
    # and a start there is refused by name.
    config = make_config(N=3)
    state = TrajectoryState(t=0.0, x=np.array([0.0, 1e-12, 0.5]), v=np.zeros(3))
    assert np.isnan(acceleration(config, state)).all()
    with pytest.raises(CollisionError, match=r"^initial gap 0 is 1\.000e-12, at or below the floor"):
        integrate(config, 0.01, 1e-10, 1e-12, initial=state)


def padded_kernel(config, x0, g0, u):
    g0, dg0, work = ode._kernel_rows(g0)
    out = np.empty(config.N)
    ode._acceleration(config, x0, g0, dg0, u, out, work)
    return out


@pytest.mark.parametrize("N", [2, 3, 8, 1024])
def test_padded_kernel_is_bit_identical_to_the_unpadded_oracle(N, rng):
    # One ufunc per neighbour op on padded rows must give the bits of the
    # unpadded rows with a scalar op for the wrap, on the uniform start (exact
    # gaps L/N, as integrate uses) and on a jittered one (gaps from positions).
    config = RingConfig(N=N, L=1.0, force=SEED7_TWO, j_max=4)
    lattice = initial_state(config).x
    jittered = lattice + rng.uniform(0.0, 0.3 * config.delta, size=N)
    for x0, g0 in ((lattice, np.full(N, config.delta)), (jittered, ode._gaps(jittered, 1.0))):
        for u in (np.zeros(N), rng.normal(scale=0.05 * config.delta, size=N)):
            expected = with_left_acceleration(config, x0, g0, u)
            np.testing.assert_array_equal(padded_kernel(config, x0, g0, u).view(np.uint64),
                                          expected.view(np.uint64))
        state = TrajectoryState(t=0.0, x=x0, v=np.zeros(N))
        np.testing.assert_array_equal(
            acceleration(config, state).view(np.uint64),
            with_left_acceleration(config, x0, ode._gaps(x0, 1.0), np.zeros(N)).view(np.uint64),
        )


@pytest.mark.parametrize("N", [3, 8, 1024])
def test_padded_kernel_floor_and_nan_gaps(N, rng):
    config = RingConfig(N=N, L=1.0, force=SEED7_TWO, j_max=4)
    x0, g0 = initial_state(config).x, np.full(N, config.delta)
    u = rng.normal(scale=0.05 * config.delta, size=N)
    # a NaN displacement, the wrap gap (between particles N-1 and 0) at the
    # floor, and both at once each give an all-NaN row, with the oracle's bits
    nan = u.copy()
    nan[N // 2] = np.nan
    floor = u.copy()
    floor[0] = floor[-1] - config.delta
    both = floor.copy()
    both[N // 2] = np.nan
    for bad in (nan, floor, both):
        got = padded_kernel(config, x0, g0, bad)
        assert np.isnan(got).all()
        np.testing.assert_array_equal(got.view(np.uint64),
                                      with_left_acceleration(config, x0, g0, bad).view(np.uint64))


def test_nonphysical_trial_stage_is_rejected_not_fatal(sine_force, monkeypatch):
    # Particle 0 runs into particle 1, 0.01 ahead, at closing speed 200 while
    # the ring slides; the slide makes the controller's first trial step
    # (~1e-4) long enough to carry a stage past the gap floor.  The controller
    # must retry with a shorter step, not abort.
    nonphysical = []
    kernel = ode._acceleration

    def counted(config, x0, g0, dg0, u, out, work):
        kernel(config, x0, g0, dg0, u, out, work)
        # a stage at the floor, not one that inherits NaN from an earlier stage
        if np.isfinite(u).all() and np.isnan(out).all():
            nonphysical.append(1)

    monkeypatch.setattr(ode, "_acceleration", counted)
    N = 8
    config = RingConfig(N=N, L=1.0, force=sine_force, j_max=4, scale=1.0)
    x = np.arange(N) / N
    x[1] = x[0] + 0.01
    v = np.full(N, -100.0)
    v[0] = 100.0
    sol = integrate(config, 1e-3, 1e-10, 1e-12, initial=TrajectoryState(t=0.0, x=x, v=v))
    assert nonphysical
    assert sol.n_rejected_steps >= 1
    assert sol.states[-1].t == 1e-3
    for st in sol.states:
        assert np.all(ode._gaps(st.x, config.L) > ode.GAP_FLOOR_FACTOR * config.delta)
    e0 = energy(config, sol.states[0])
    drift = max(abs(energy(config, st) - e0) for st in sol.states) / abs(e0)
    assert drift <= 1e-9


def test_an_accepted_step_that_breaks_the_ordering_raises(monkeypatch):
    # With no force the particles fly free and no trial stage is rejected, so
    # particle 0, 0.01 behind particle 1 at speed 1000, passes it inside an
    # accepted step; the check after each accepted step must catch it.
    def free(config, x0, g0, dg0, u, out, work):
        out[:] = 0.0

    monkeypatch.setattr(ode, "_acceleration", free)
    N = 8
    config = make_config(N=N)
    x = np.arange(N) / N
    x[1] = x[0] + 0.01
    v = np.zeros(N)
    v[0] = 1000.0
    with pytest.raises(CollisionError, match="^particle ordering violated at t="):
        integrate(config, 1e-3, initial=TrajectoryState(t=0.0, x=x, v=v))


@pytest.mark.parametrize("n_x, n_v", [(3, 3), (32, 32), (16, 3), (3, 16)])
def test_initial_state_of_the_wrong_length_is_a_config_error(n_x, n_v):
    # A zero-filled short state would otherwise read as a collapsed gap, and
    # any other length as a numpy broadcast error.
    config = make_config(N=16)
    x = np.arange(n_x) / 16 if n_x == 16 else np.zeros(n_x)
    state = TrajectoryState(t=0.0, x=x, v=np.zeros(n_v))
    with pytest.raises(ConfigError, match=r"^initial: x and v must have shape \(16,\)") as err:
        integrate(config, 1e-3, initial=state)
    assert err.value.field == "initial"


@pytest.mark.parametrize("name, value", [("x", np.nan), ("x", np.inf), ("v", np.nan),
                                         ("v", -np.inf)])
def test_non_finite_initial_state_is_a_config_error(name, value):
    # Unchecked, a NaN position underflows the step size and an infinite
    # velocity reaches scipy's bare ValueError.
    config = make_config(N=16)
    arrays = {"x": np.arange(16) / 16, "v": np.zeros(16)}
    arrays[name][5] = value
    with pytest.raises(ConfigError, match="^initial: x and v must be finite") as err:
        integrate(config, 1e-3, initial=TrajectoryState(t=0.0, **arrays))
    assert err.value.field == "initial"


def test_step_count_is_stability_limited(sine_force):
    # Integrating displacements keeps the RHS free of eps*L noise in the gaps,
    # so the controller is no longer accuracy-limited: 14 steps here, where
    # differencing absolute positions took 416.
    config = RingConfig(N=1024, L=1.0, force=sine_force, j_max=4)
    assert integrate(config, 0.001).n_steps <= 41


@pytest.mark.parametrize("N", [256, 384, 512])
def test_samples_match_series(sine_force, N):
    # Guards two rules: no accepted step is longer than the sample spacing
    # (without that cap the controller crosses N=512 in 2 steps and the
    # dense interpolant is off by 3e-10), and the uniform start uses the exact
    # gaps L/N (differencing the rounded i*L/N is off by 2e-8 at N=384).
    config = RingConfig(N=N, L=1.0, force=sine_force, j_max=13)
    table = compute_coefficients(config)
    t_end = 5e-4
    sol = integrate(config, t_end, t_eval=np.linspace(t_end / 10, t_end, 10))
    for st in sol.states:
        err = np.max(np.abs(evaluate_velocity(table, st.t) - st.v)) / np.max(np.abs(st.v))
        assert err <= 1e-10


def test_zero_force_stays_put():
    config = make_config()
    sol = integrate(config, 0.5, 1e-10, 1e-12)
    for st in sol.states:
        np.testing.assert_allclose(st.x, initial_state(config).x, atol=1e-8)
        np.testing.assert_allclose(st.v, np.zeros(8), atol=1e-8)


def test_constant_force_trajectory():
    f0 = 0.9
    config = make_config(force=ForceSpec(L=1.0, a0=f0))
    sol = integrate(config, 0.4, 1e-11, 1e-13, t_eval=np.linspace(0.0, 0.4, 41))
    x0 = initial_state(config).x
    for st in sol.states:
        np.testing.assert_allclose(st.v, np.full(8, f0 * st.t), atol=1e-12)
        np.testing.assert_allclose(st.x, x0 + 0.5 * f0 * st.t**2, atol=1e-12)


def test_requested_samples_are_honored(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    times = np.array([0.0, 0.013, 0.05, 0.08])
    sol = integrate(config, 0.08, 1e-10, 1e-12, t_eval=times)
    assert [st.t for st in sol.states] == list(times)
    assert sol.n_steps > 0 and sol.n_rhs_evals > 0
    assert sol.n_rejected_steps == 0  # a smooth run
    assert 0 < sol.min_step <= sol.max_step
    assert sol.local_error_bound > 0


def test_unsorted_and_repeated_samples(sine_force):
    # States come at the sorted times; the t = 0 samples are the start and a
    # repeated time is read from the same dense output twice.
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    sol = integrate(config, 0.08, t_eval=[0.05, 0.0, 0.013, 0.0, 0.05, 0.08])
    assert [st.t for st in sol.states] == [0.0, 0.0, 0.013, 0.05, 0.05, 0.08]
    rest = initial_state(config)
    for st in sol.states[:2]:
        np.testing.assert_array_equal(st.x, rest.x)
        np.testing.assert_array_equal(st.v, rest.v)
    first, second = sol.states[3:5]
    assert first.x.tobytes() == second.x.tobytes() and first.v.tobytes() == second.v.tobytes()


def test_gaps_sum_to_circumference(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    sol = integrate(config, 0.1, 1e-10, 1e-12)
    for st in sol.states:
        assert np.sum(ode._gaps(st.x, config.L)) == pytest.approx(config.L, rel=1e-14)
        assert np.all(ode._gaps(st.x, config.L) > 0)


def test_energy_uniform_rest():
    config = make_config(N=4)
    assert energy(config, initial_state(config)) == pytest.approx(16.0, rel=1e-13)


def test_energy_two_particles_hand_value():
    config = make_config(N=2)
    state = TrajectoryState(t=0.0, x=np.array([0.0, 0.4]), v=np.zeros(2))
    assert energy(config, state) == pytest.approx(1 / 0.4 + 1 / 0.6, rel=1e-13)


def test_energy_requires_zero_mean():
    config = make_config(force=ForceSpec(L=1.0, a0=0.5))
    with pytest.raises(ConfigError):
        energy(config, initial_state(config))


def test_energy_conservation(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    sol = integrate(config, 0.1, 1e-10, 1e-12, t_eval=np.linspace(0, 0.1, 21))
    e0 = energy(config, sol.states[0])
    drift = max(abs(energy(config, st) - e0) for st in sol.states) / abs(e0)
    assert drift <= 1e-7


def test_time_reversal(sine_force):
    config = RingConfig(N=8, L=1.0, force=sine_force, j_max=4, scale=1.0)
    rel_tol, abs_tol = 1e-10, 1e-12
    fwd = integrate(config, 0.1, rel_tol, abs_tol, t_eval=[0.1])
    end = fwd.states[-1]
    back = integrate(
        config,
        0.1,
        rel_tol,
        abs_tol,
        t_eval=[0.1],
        initial=TrajectoryState(t=0.0, x=end.x, v=-end.v),
    )
    fin = back.states[-1]
    start = initial_state(config)
    tol_x = abs_tol + rel_tol * np.abs(start.x)
    assert np.all(np.abs(fin.x - start.x) <= 100 * tol_x)
    assert np.all(np.abs(-fin.v - start.v) <= 100 * (abs_tol + rel_tol))


def test_tolerance_convergence(sine_force):
    config = RingConfig(N=4, L=1.0, force=sine_force, j_max=4, scale=1.0)

    def final(rtol):
        sol = integrate(config, 0.2, rtol, rtol * 1e-2, t_eval=[0.2])
        st = sol.states[-1]
        return np.concatenate([st.x, st.v])

    coarse, mid, fine = final(1e-5), final(1e-7), final(1e-9)
    assert np.max(np.abs(coarse - mid)) > np.max(np.abs(mid - fine))


def test_integrate_validation(sine_force):
    config = RingConfig(N=4, L=1.0, force=sine_force, j_max=4, scale=1.0)
    with pytest.raises(ConfigError):
        integrate(config, -1.0, 1e-10, 1e-12)
    with pytest.raises(ConfigError) as library:
        integrate(config, 1.0, 0.5, 1e-12)
    with pytest.raises(ConfigError) as front_end:
        parse_config(
            {
                "ring": {"N": 4, "L": 1.0, "J_max": 4},
                "force": {"harmonics": [{"k": 1, "a": 0.0, "b": 0.5}]},
                "ode": {"rel_tol": 0.5},
            }
        )
    # one rule, one reason; the CLI only adds the JSON path
    assert (library.value.field, front_end.value.field) == ("rel_tol", "ode.rel_tol")
    assert library.value.reason == front_end.value.reason == "must be <= 1e-2, got 0.5"
    with pytest.raises(ConfigError):
        integrate(config, 1.0, 1e-10, 1e-12, t_eval=[2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError) as excinfo:
            integrate(config, 0.01, 1e-10, 1e-12, t_eval=[0.005, bad])
        assert excinfo.value.field == "t_eval"


def test_a_sample_past_the_horizon_is_rejected(sine_force):
    # No state is returned past t_end, so a sample a hair beyond it would be
    # dropped without a word.
    config = RingConfig(N=4, L=1.0, force=sine_force, j_max=4, scale=1.0)
    with pytest.raises(ConfigError) as excinfo:
        integrate(config, 1e-3, t_eval=[5e-4, 1e-3 * (1 + 1e-13)])
    assert excinfo.value.field == "t_eval"
