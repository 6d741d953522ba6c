"""High-accuracy direct integration of the equations of motion.

The ring dynamics

    x_i'' = gap_{i-1}**(-2) - gap_i**(-2) + F(x_i),   gap_i = x_{i+1} - x_i

is integrated with an adaptive eighth-order explicit Runge-Kutta pair
(scipy's DOP853) driven step by step so the particle ordering can be
monitored on every accepted step and requested sample times can be filled
from the local dense interpolant.  This is the ground-truth oracle for the
velocity series, so controllable local error matters more than long-time
structure preservation; positions are kept unwrapped so gaps stay
meaningful.

A trial Runge-Kutta stage whose gaps reach the floor is not physical: the
right-hand side returns NaN for it, DOP853's error norm is then not below
one, and the controller rejects the step and retries with a shorter one.
Only an accepted step that breaks the particle ordering raises
CollisionError.  scipy is imported inside ``integrate``, so importing this
module (and the CLI) does not pay for loading ``scipy.integrate``.

``check_settings`` is the one check of the run settings t_end, rel_tol and
abs_tol; ``integrate`` applies it, and the CLI applies it to the config
before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError, ConfigError, StiffnessError, check_real
from .force import eval_force, eval_potential
from .ring import RingConfig, initial_positions

__all__ = [
    "TrajectoryState",
    "ODESolution",
    "initial_state",
    "acceleration",
    "integrate",
    "energy",
]

#: Gap floor as a fraction of the uniform spacing; reaching it means the
#: integration has gone numerically wrong, not that particles collided.
GAP_FLOOR_FACTOR = 1e-9

#: Steps shorter than this fraction of the horizon abort the integration.
MIN_STEP_FRACTION = 1e-15


@dataclass(frozen=True, eq=False)
class TrajectoryState:
    """Positions (unwrapped) and velocities of all particles at one time."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def gaps(self, L: float) -> np.ndarray:
        """Cyclic gaps to the right neighbor; they sum to L by construction."""
        return _gaps(self.x, L)


@dataclass(frozen=True, eq=False)
class ODESolution:
    """Sampled trajectory plus error and step-size statistics."""

    times: np.ndarray
    states: list[TrajectoryState]
    local_error_bound: float
    n_steps: int
    n_rhs_evals: int
    min_step: float
    max_step: float = field(default=0.0)


def _gaps(x: np.ndarray, L: float) -> np.ndarray:
    g = np.empty_like(x)
    g[:-1] = x[1:] - x[:-1]
    g[-1] = x[0] + L - x[-1]
    return g


def _floor_gaps(config: RingConfig, x: np.ndarray) -> np.ndarray:
    """Cyclic gaps of ``x``; raises CollisionError if any is at or below the floor."""
    g = _gaps(x, config.L)
    floor = GAP_FLOOR_FACTOR * config.delta
    if (g <= floor).any():
        worst = int(np.argmin(g))
        raise CollisionError(
            f"gap {worst} shrank to {g[worst]:.3e} (floor {floor:.3e}); "
            "numerical fault in the integration"
        )
    return g


def _acceleration(config: RingConfig, x: np.ndarray, out: np.ndarray) -> None:
    """Write the net acceleration at positions ``x`` into ``out``.

    Raises CollisionError when any gap is at or below the collision floor.
    """
    g = _floor_gaps(config, x)
    inv2 = np.power(g, -2.0, out=g)
    np.subtract(inv2[:-1], inv2[1:], out=out[1:])
    out[0] = inv2[-1] - inv2[0]
    out += eval_force(config.force, x)


def initial_state(config: RingConfig) -> TrajectoryState:
    """Uniform rest start: x_i = i*L/N, v_i = 0."""
    return TrajectoryState(t=0.0, x=initial_positions(config), v=np.zeros(config.N))


def acceleration(config: RingConfig, state: TrajectoryState) -> np.ndarray:
    """Net acceleration of every particle in ``state``.

    Raises CollisionError when any gap is at or below the collision floor.
    """
    x = np.asarray(state.x, dtype=float)
    out = np.empty_like(x)
    _acceleration(config, x, out)
    return out


def check_settings(t_end, rel_tol, abs_tol) -> tuple[float, float, float]:
    """The run settings as floats: ``t_end`` > 0 and both tolerances in (0, 1e-2]."""
    t_end = check_real(t_end, "t_end", positive=True)
    rel_tol = check_real(rel_tol, "rel_tol", positive=True)
    abs_tol = check_real(abs_tol, "abs_tol", positive=True)
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if tol > 1e-2:
            raise ConfigError(f"must be <= 1e-2, got {tol}", name)
    return t_end, rel_tol, abs_tol


def integrate(
    config: RingConfig,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    initial: TrajectoryState | None = None,
    max_step: float = np.inf,
) -> ODESolution:
    """Integrate from rest (or ``initial``) to ``t_end`` with sampled output.

    ``t_eval`` defaults to 11 uniform samples on [0, t_end].  ``max_step``
    caps the accepted step; the dense interpolant's rounding error scales
    with the step, so capping it tightens sample accuracy on trajectories
    the controller would otherwise cross in a few giant steps.  Raises
    StiffnessError if the controller's accepted step underflows, and
    CollisionError if a gap of the initial state is at or below the floor
    or an accepted step breaks the particle ordering.
    """
    t_end, rel_tol, abs_tol = check_settings(t_end, rel_tol, abs_tol)
    if not (max_step > 0.0):
        raise ConfigError(f"max_step must be positive, got {max_step}")
    N = config.N
    if initial is None:
        initial = initial_state(config)
    y0 = np.concatenate([np.asarray(initial.x, float), np.asarray(initial.v, float)])
    _floor_gaps(config, y0[:N])  # only trial stages may cross the floor

    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 11)
    t_eval = np.sort(np.asarray(t_eval, dtype=float))
    if t_eval.size and (t_eval[0] < 0.0 or t_eval[-1] > t_end * (1 + 1e-12)):
        raise ConfigError("t_eval samples must lie within [0, t_end]")

    def rhs(_t, y):
        dy = np.empty(2 * N)
        dy[:N] = y[N:]
        try:
            _acceleration(config, y[:N], dy[N:])
        except CollisionError:
            dy[N:] = np.nan  # non-physical trial stage: DOP853 rejects the step
        return dy

    from scipy.integrate import DOP853  # deferred: only integration needs scipy

    solver = DOP853(rhs, 0.0, y0, t_end, rtol=rel_tol, atol=abs_tol, max_step=max_step)

    samples: list[tuple[float, np.ndarray]] = []
    next_idx = 0
    while next_idx < t_eval.size and t_eval[next_idx] <= 0.0:
        samples.append((float(t_eval[next_idx]), y0.copy()))
        next_idx += 1

    n_steps = 0
    min_step = np.inf
    max_step = 0.0
    err_bound = 0.0
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"step-size control failed: {msg}")
        h = solver.t - solver.t_old
        if h < MIN_STEP_FRACTION * t_end:
            raise StiffnessError(
                f"accepted step {h:.3e} underflowed below "
                f"{MIN_STEP_FRACTION * t_end:.3e}"
            )
        n_steps += 1
        min_step = min(min_step, h)
        max_step = max(max_step, h)
        err_bound += rel_tol * float(np.max(np.abs(solver.y))) + abs_tol
        # Ordering must survive every accepted step, not just the samples.
        if np.any(_gaps(solver.y[:N], config.L) <= 0.0):
            raise CollisionError(f"particle ordering violated at t={solver.t:.6e}")
        if next_idx < t_eval.size and t_eval[next_idx] <= solver.t:
            dense = solver.dense_output()
            while next_idx < t_eval.size and t_eval[next_idx] <= solver.t:
                tq = float(t_eval[next_idx])
                samples.append((tq, dense(tq)))
                next_idx += 1

    states = [TrajectoryState(t=tq, x=y[:N].copy(), v=y[N:].copy()) for tq, y in samples]
    return ODESolution(
        times=np.array([tq for tq, _ in samples]),
        states=states,
        local_error_bound=err_bound,
        n_steps=n_steps,
        n_rhs_evals=int(solver.nfev),
        min_step=float(min_step) if n_steps else 0.0,
        max_step=float(max_step),
    )


def energy(config: RingConfig, state: TrajectoryState) -> float:
    """Total energy: kinetic + sum 1/gap + external potential.

    Requires a zero-mean force so a periodic potential exists; conserved
    along exact trajectories, so its drift measures integration error.
    """
    if config.force.a0 != 0.0:
        raise ConfigError("energy requires a zero-mean force (a0 == 0)")
    g = state.gaps(config.L)
    kinetic = 0.5 * float(np.dot(state.v, state.v))
    interaction = float(np.sum(1.0 / g))
    external = float(np.sum(eval_potential(config.force, state.x)))
    return kinetic + interaction + external
